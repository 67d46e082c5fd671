"""Command-line front end: thresholds, rate curves, simulation, attack curves.

Every CSV written by this tool starts with '#'-prefixed manifest lines above
its header (:func:`write_manifest`): the subcommand, tool version and UTC
timestamp, each option set, resolved defaults included, as ``# key: value``
for ``--key value``, and ``# note:`` lines.  The subcommand and those options,
with the run's own --out, --histogram or --check, reproduce the data rows byte
for byte; SOURCE_DATE_EPOCH pins the timestamp and THREEPASS_SEED the seed.
Sweep rows are byte-identical to formatting each number with ``.6g``: they
use ``%g``, which is ``.6g`` by definition; a width or precision would take
CPython's ``%`` off its fast path, which writes a float with no temporary.
Rows are filled into templates that hold their coordinates already
formatted, so only the values are converted per row: ``curves`` formats each
grid coordinate once, one template per q row; ``pns --out`` fills a block from
its length unit's template at a step 1/P, P dividing 10^4, and otherwise from
the block's own, one ``%`` over its lengths.  A ``curves`` grid is checked at its corners before anything is
written, so an invalid one leaves stdout empty.

Exit codes: 0 on success, 1 when --check finds a reference-value mismatch,
2 on usage, numerical or file errors (an output path that cannot be
written, a sweep of more than MAX_GRID_POINTS rows), 141 (128 + SIGPIPE),
with nothing on stderr, when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import IO, Iterator, Sequence

import numpy as np

from . import __version__
from .protocol import (
    BRANCH_CODES,
    DEFAULT_SB1_TOLERANCE,
    STATE_NAMES,
    TABLE1_BRANCHES,
    Eavesdropper,
    ProtocolId,
    SimulationConfig,
    code_distribution,
    run_simulation,
)
from . import paper, pns as pns_mod
from . import secrate
from .qmath import in_range

CHECK_FAILED_EXIT = 1
ERROR_EXIT = 2
BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a filter it killed

#: Grid points per rate or eve_info call in a sweep, so memory stays bounded
#: for any grid: a ``curves`` block is whole q rows, or a chunk of one row's e
#: axis when the row is longer, and ``pns`` evaluates this many lengths.
_BLOCK = 2048

#: Fewest rows of a ``pns --out`` length unit (:func:`_length_spans`).  A warm
#: 100001-row scan at step 0.005 (2-vCPU Xeon; time, tracemalloc peak) took
#: 37 ms and 292 kB at 256 (2000-row units), 39-40 ms and 182 kB at 1 or 64
#: (200-row units), and 50 ms and 1.4 MB at 2048 (20000-row units).
_SUB_BLOCK = 256

#: The conversion of every number in the CSV output: %-style, so a block of
#: rows, or a curves row template, is one ``%`` call; it gives the bytes of
#: ``f"{x:.6g}"``.  ``%g`` is precision 6 by definition.  Do not write
#: ``%.6g``: with a width or precision CPython's ``%`` formats each float into
#: a temporary string and copies it; without one it writes straight into the
#: result.
_NUMBER = "%g"

#: Most CSV rows one sweep may write; a larger grid is refused before it is built.
MAX_GRID_POINTS = 10**7

#: The q axis of a ``curves --kind lower|upper`` surface when not given.
_Q_AXIS_DEFAULTS = {"q_start": 0.0, "q_stop": 0.5, "q_step": 0.025}

#: How the bound rates read --mu4-override (:func:`secrate._bound_inputs`).
_MU4_RULE = "min(mu4_override, e) at each point"

#: Parsed names no manifest records: the handler, and where output goes.
_UNRECORDED = {"func", "out", "histogram", "check"}


def _closed_form_root(rate_fn):
    """The threshold of a closed-form rate as a function of mu4, which it ignores."""
    return lambda mu4: secrate.find_threshold(rate_fn, *secrate.THRESHOLD_BRACKET)


#: (key in :data:`paper.FIGURES`, label, root of mu4) for the six thresholds.
_THRESHOLDS = [
    ("sb1", "return pass (no announcement)",
     _closed_form_root(lambda e: secrate.key_rate_sb1(e, False))),
    ("sb1_announced", "return pass (Y announced)",
     _closed_form_root(lambda e: secrate.key_rate_sb1(e, True))),
    ("sifted", "sifted key (no announcement)",
     _closed_form_root(lambda e: secrate.key_rate_sifted(e, False))),
    ("sifted_announced", "sifted key (X announced)",
     _closed_form_root(lambda e: secrate.key_rate_sifted(e, True))),
    ("lower_bound", "collective lower bound (q->1/2)", secrate.lower_bound_threshold),
    ("upper_bound", "collective upper bound (q->1/2)", secrate.upper_bound_threshold),
]


def _env_int(name: str, default, lo: int, hi=math.inf):
    """The integer in environment variable ``name``, or ``default`` if unset; a
    value that is not an integer in [lo, hi] is a ValueError naming ``name``."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def _timestamp() -> str:
    epoch = _env_int("SOURCE_DATE_EPOCH", None, -62135596800, 253402300799)  # years 1-9999
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % time.gmtime(epoch)[:6]


def _mu4_note(mu4: float | None) -> str:
    """The note of the bound rates' mu4.  Called before any rate, so a negative
    or NaN --mu4-override is refused once, by name; inf reads as mu4 = e."""
    if mu4 is not None:
        in_range("mu4_override", mu4, 0.0, math.inf)
    return f"bound rates take mu4 = {'e^2' if mu4 is None else _MU4_RULE}"


def _check_exit(failures: list) -> int:
    """The exit code of a ``--check``: 0 when no published number was
    missed, else 1, with the keys of ``failures`` on stderr."""
    if failures:
        print(f"check failed for: {', '.join(failures)}", file=sys.stderr)
        return CHECK_FAILED_EXIT
    return 0


def _fmt(x: float) -> str:
    return _NUMBER % x


def write_manifest(stream: IO[str], command: str, args: argparse.Namespace,
                   notes: Sequence[str] = ()) -> None:
    """Write the manifest of a ``command`` run with parsed options ``args``:
    the command, tool and timestamp, each option that is set as ``# key:
    value`` for ``--key value`` (a flag when true, replayed as ``--key``),
    then each note.  All lines are built first: a bad SOURCE_DATE_EPOCH writes none."""
    options = sorted((key.replace("_", "-"), value) for key, value in vars(args).items()
                     if key not in _UNRECORDED and value is not None and value is not False)
    lines = [f"command: {command}", f"tool: threepass {__version__}",
             f"timestamp: {_timestamp()}", *(f"{key}: {value}" for key, value in options),
             *(f"note: {note}" for note in notes)]
    stream.write("".join(f"# {line}\n" for line in lines))


@contextmanager
def _csv_out(path: str | None) -> Iterator[IO[str]]:
    """The CSV output stream: stdout for None or "-", else ``path``.

    A path is written as ``<path>.<pid>.tmp`` in the same directory and
    renamed over ``path`` only when the block finishes, so a failing command
    leaves an existing file unchanged and no partial CSV; the temp file is
    removed on any exception.  A symlink, which the rename would replace,
    and a target that is not a regular file (e.g. /dev/null) are written directly.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            yield out
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        out = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the target, not the temp file
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from None
    try:
        with out:
            yield out
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def cmd_thresholds(args: argparse.Namespace) -> int:
    mu4 = args.mu4_override
    notes = [f"every root is searched to tol {secrate.THRESHOLD_TOL}", _mu4_note(mu4)]
    computed = {key: root(mu4) for key, _, root in _THRESHOLDS}
    failures = paper.failures(computed)

    with _csv_out(args.out) as out:
        write_manifest(out, "thresholds", args, notes)
        out.write("key,description,computed,reference,deviation,within_tolerance\n")
        for key, label, _ in _THRESHOLDS:
            reference = paper.FIGURES[key].value
            out.write(f"{key},{label},{_fmt(computed[key])},{_fmt(reference)},"
                      f"{_fmt(abs(computed[key] - reference))},"
                      f"{'NO' if key in failures else 'yes'}\n")
    return _check_exit(failures) if args.check else 0


def _grid_points(last: float) -> int:
    """The number of grid indices 0, 1, ..., floor(last), counted without
    building the grid and refused above :data:`MAX_GRID_POINTS`."""
    if not last < MAX_GRID_POINTS:  # NaN fails too
        raise ValueError(f"grid too large: {last + 1:.4g} points, "
                         f"the limit is {MAX_GRID_POINTS}")
    return math.floor(last) + 1


def _axis_points(axis: str, start: float, stop: float, step: float) -> tuple:
    """(n, at): the number of points start + i*step up to stop, and the map
    from indices i to the points min(start + i*step, stop), so that a last
    point that rounding puts past stop is stop itself.  The ends must be
    finite and ordered and the step positive and finite; an error names the
    option as ``<axis>_start``, ``<axis>_stop`` or ``<axis>_step``."""
    in_range(f"{axis}_start", start, -math.inf, math.inf, "()")
    in_range(f"{axis}_stop", stop, -math.inf, math.inf, "()")
    in_range(f"{axis}_step", step, 0.0, math.inf, "()")
    if start > stop:
        raise ValueError(f"{axis}_start must not exceed {axis}_stop, got {start} > {stop}")
    return (_grid_points((stop - start) / step + 1e-9),
            lambda i: np.minimum(start + i * step, stop))


def cmd_curves(args: argparse.Namespace) -> int:
    if args.kind in ("sb1", "sifted"):
        unused = [key for key in (*_Q_AXIS_DEFAULTS, "mu4_override")
                  if getattr(args, key) is not None]
    else:
        unused = ["announce"] if args.announce else []
    if unused:
        option = "--" + unused[0].replace("_", "-")
        raise ValueError(f"{option} does not apply to --kind {args.kind}")
    n_e, e_at = _axis_points("e", args.e_start, args.e_stop, args.e_step)
    notes = []
    if args.kind in ("sb1", "sifted"):
        fn = secrate.key_rate_sb1 if args.kind == "sb1" else secrate.key_rate_sifted
        # One q row with no q column: its "q" is the row index, never read.
        n_q, q_at, q_text, header = 1, np.asarray, lambda q: "", "e,r"
        rate = lambda e, q: fn(e, args.announce)
    else:
        vars(args).update((k, v) for k, v in _Q_AXIS_DEFAULTS.items() if getattr(args, k) is None)
        n_q, q_at = _axis_points("q", args.q_start, args.q_stop, args.q_step)
        _grid_points(n_e * n_q - 1)  # the whole surface
        notes.append(_mu4_note(args.mu4_override))
        if args.kind == "upper":
            # The r column is the information margin (mutual information
            # minus Holevo ceiling); its sign boundary locates the
            # threshold, which the published closed form cannot express.
            notes.append("r is the information margin [H(b)-H(b|c)] - chi(E)")
            fn = secrate.upper_bound_crossing
        else:
            fn = secrate.lower_bound_rate
        q_text, header = lambda q: "," + _fmt(q), "e,q,r"
        rate = lambda e, q: fn(e, q, args.mu4_override)

    # Rows are q-major.  A block is whole q rows, or one chunk of a q row's e
    # axis when the row is longer than a block; each is one rate call on the
    # outer product of its e and q values.
    chunk, rows = min(n_e, _BLOCK), max(_BLOCK // n_e, 1)

    @functools.lru_cache(maxsize=1)  # the whole e axis, when it is one chunk
    def e_chunk(first: int) -> tuple:
        e = e_at(np.arange(first, min(first + chunk, n_e)))
        return e[None, :], [_fmt(x) for x in e.tolist()]

    def blocks() -> Iterator[tuple]:
        """(row tails, e strings, rates) of each block, in row order."""
        for first_q in range(0, n_q, rows):
            q = q_at(np.arange(first_q, min(first_q + rows, n_q)))
            tails = [f"{q_text(x)},{_NUMBER}\n" for x in q.tolist()]
            for first_e in range(0, n_e, chunk):
                e, text = e_chunk(first_e)
                yield tails, text, rate(e, q[:, None])

    # The grid is arithmetic, so its corners bound every point: a rate that
    # accepts them accepts the whole grid, and an invalid grid fails here,
    # before any output.
    try:
        rate(e_at(np.array([[0, n_e - 1]])), q_at(np.array([[0], [n_q - 1]])))
    except ValueError:
        # Name the first invalid point in row order, as the sweep would.
        for _ in blocks():
            pass
        raise
    # Rows are evaluated one block at a time as they are written, so memory
    # stays bounded however fine the grid; each row's template holds its
    # coordinates' strings, so only the rates are converted per row.
    with _csv_out(args.out) as out:
        write_manifest(out, "curves", args, notes)
        out.write(header + "\n")
        for tails, text, r in blocks():
            for tail, row in zip(tails, r.tolist()):
                out.write((tail.join(text) + tail) % tuple(row))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    args.seed = _env_int("THREEPASS_SEED", 0, 0) if args.seed is None else args.seed
    config = SimulationConfig(
        protocol=ProtocolId(args.protocol),
        n_rounds=args.rounds,
        channel_qber=args.qber,
        eve=Eavesdropper(args.eve),
        rng_seed=args.seed,
        sb1_tolerance=args.sb1_tolerance,
    )
    # The manifest is built, and the histogram target opened, before any
    # round is drawn, so a bad SOURCE_DATE_EPOCH or path prints no report.
    manifest = io.StringIO()
    if args.histogram:
        write_manifest(manifest, "simulate", args)
    with _csv_out(args.histogram) if args.histogram else nullcontext() as out:
        report = run_simulation(config)
        print(report.to_text())
        if out is not None:
            out.write(manifest.getvalue())
            out.write("alice_state,bob_result,sb1_result,sb2_result,"
                      "expected_probability,expected_count,observed_count\n")
            # The exact probabilities at this QBER and attack; the off-table
            # rounds have the rest.
            eve = config.eve is Eavesdropper.INTERCEPT_RESEND
            law = code_distribution(config.channel_qber, eve)
            expected = [law[code] for code in BRANCH_CODES]
            for (*states, _), prob, count in zip(TABLE1_BRANCHES, expected, report.branch_counts):
                names = ",".join(STATE_NAMES[s] for s in states)
                out.write(f"{names},{_fmt(prob)},{_fmt(prob * config.n_rounds)},{count}\n")
            rest = 1.0 - math.fsum(expected)
            out.write(f"(off-table),,,,{_fmt(rest)},{_fmt(rest * config.n_rounds)},"
                      f"{report.other_count}\n")
    return 0


def _length_spans(step: float, n: int) -> list:
    """Spans (first, stop, template) of the rows 0..n - 1 of a ``pns --out``
    scan of lengths i*step: template(a, b), where not None, is rows a..b - 1
    with only their i_eve numbers left as %g.

    If step is fl(1/P), P dividing 10^4, 1/P has k <= 4 decimals and
    length_at(i) = fl(i fl(1/P)) lies within 2^-51 (relative) of i/P, which has
    at most 6 significant digits for 1 <= i/P < 10^(6 - k); %g, correctly
    rounded, then writes i/P.  Unit U >= 1 of 10^d km, d the least with R =
    10^d P >= :data:`_SUB_BLOCK` rows but at most 5 - k, has row U R + r as
    str(U) then 10^d + r/P after its 1.  Unit 0, lengths from 10^(6 - k) km on,
    the last row, which may be clipped to --max-km, and other steps get none."""
    p = round(1 / step) if step >= 1e-4 else 0  # 1/step may overflow
    k = next((k for k in range(5) if 10**k % p == 0), None) if p and 1 / p == step else None
    if k is None:
        return [(0, n, None)]
    d = next((d for d in range(5 - k) if 10**d * p >= _SUB_BLOCK), 5 - k)
    rows, row = 10**d * p, f",{_NUMBER}\n"
    first, stop = min(rows, n), max(min(rows, n), min(n - 1, p * 10 ** (6 - k)))
    suffixes = [_fmt(10**d + r / p)[1:] for r in range(min(rows, stop - first))]
    template = lambda a, b: "".join(
        str(u) + (row + str(u)).join(suffixes[max(a - u * rows, 0):b - u * rows]) + row
        for u in range(a // rows, (b - 1) // rows + 1))
    return [(0, first, None), (first, stop, template), (stop, n, None)]


def cmd_pns(args: argparse.Namespace) -> int:
    if args.attack == "pns" and args.chi is not None:
        raise ValueError("--chi does not apply to --attack pns")
    if args.attack == "irud" and args.chi is None:
        args.chi = pns_mod.DEFAULT_IRUD_OVERLAP
    in_range("step_km", args.step_km, 0.0, math.inf, "()")
    in_range("max_km", args.max_km, 0.0, math.inf, "[)")
    if args.attack == "pns":
        numerator = pns_mod.numerator_pns(args.mu)
    else:
        numerator = pns_mod.numerator_irud(args.mu, args.chi)

    l_c, delta_c = pns_mod.critical_distance(args.alpha, args.mu, numerator, args.max_km)

    if args.out:
        n, length_at = _axis_points("l", 0.0, args.max_km, args.step_km)
        with _csv_out(args.out) as out:
            write_manifest(out, "pns", args)
            out.write("l_km,i_eve\n")
            for lo, hi, template in _length_spans(args.step_km, n):
                for first in range(lo, hi, _BLOCK):
                    lengths = length_at(np.arange(first, min(first + _BLOCK, hi)))
                    info = pns_mod.per_detection(numerator, args.alpha, lengths, args.mu)
                    # Without a unit template the block is its own: its lengths
                    # filled in, the escaped %%g left for i_eve (no %g output has a %).
                    rows = (template(first, first + len(info)) if template else
                            f"{_NUMBER},%{_NUMBER}\n" * len(info) % tuple(lengths.tolist()))
                    out.write(rows % tuple(info.tolist()))

    print(f"attack:            {args.attack}")
    print(f"critical distance: l_c = {l_c:.2f} km")
    print(f"critical loss:     delta_c = {delta_c:.4f} dB")
    computed = {f"{args.attack}_l_c": l_c, f"{args.attack}_delta_c": delta_c}
    l_ref, delta_ref = (paper.FIGURES[key].value for key in computed)
    print(f"reference:         l_c = {l_ref} km, delta_c = {delta_ref} dB")
    print(f"deviation:         {l_c - l_ref:+.2f} km, {delta_c - delta_ref:+.4f} dB")
    if not args.check:
        return 0
    if args.attack == "pns":
        failures = paper.failures(computed)
    else:
        # The published crossing is not checked (its band is None): the
        # conclusive information is, and that the information grows with length.
        failures = paper.failures({"i3": pns_mod.unambiguous_info(3, args.chi)})
        grid = pns_mod.eve_info_irud(args.alpha, np.arange(41) * 5.0, args.mu, args.chi)
        if not np.all(grid[:-1] < grid[1:]):
            failures.append("monotone")
    return _check_exit(failures)


def cmd_efficiency(args: argparse.Namespace) -> int:
    if args.bs is not None or args.qt is not None or args.bt is not None:
        for option, given in (("--preset", args.preset), ("--check", args.check)):
            if given:
                raise ValueError(f"{option} does not apply to custom --bs/--qt/--bt")
        if None in (args.bs, args.qt, args.bt):
            raise ValueError("custom efficiency needs all of --bs, --qt, --bt")
        inputs = secrate.EfficiencyInputs(args.bs, args.qt, args.bt)
        print(f"custom: eta = {secrate.cabello_efficiency(inputs):.6g}")
        return 0
    computed = {}
    for name in [args.preset] if args.preset else ["p1", "p2", "sarg04"]:
        inputs = secrate.EFFICIENCY_PRESETS[name]
        computed[name] = eta = secrate.cabello_efficiency(inputs)
        print(f"{name:7s} b_s={inputs.b_s:.6g} q_t={inputs.q_t:.6g} "
              f"b_t={inputs.b_t:.6g}  eta = {eta:.6g}")
    return _check_exit(paper.failures(computed)) if args.check else 0


def _thresholds_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu4-override", type=float, default=None,
                   help=f"fix mu4 instead of the default e^2, as {_MU4_RULE}")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless every value matches its reference")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")


def _curves_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=["sb1", "sifted", "lower", "upper"])
    p.add_argument("--announce", action="store_true",
                   help="announce Y (sb1) or X (sifted); sb1 and sifted only")
    p.add_argument("--e-start", type=float, default=0.0)
    p.add_argument("--e-stop", type=float, default=0.3)
    p.add_argument("--e-step", type=float, default=0.005)
    for key, default in _Q_AXIS_DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), type=float, default=None,
                       help=f"lower and upper only (default: {default})")
    p.add_argument("--mu4-override", type=float, default=None,
                   help=f"fix mu4 instead of the default e^2, as {_MU4_RULE}; "
                        "lower and upper only")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protocol", required=True, choices=["p1", "p2"])
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--qber", type=float, default=0.0, help="channel QBER per pass")
    p.add_argument("--eve", choices=["none", "intercept-resend"], default="none")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: THREEPASS_SEED, else 0)")
    p.add_argument("--sb1-tolerance", type=float, default=DEFAULT_SB1_TOLERANCE)
    p.add_argument("--histogram", default=None,
                   help="write the noiseless-branch histogram CSV here")


def _pns_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--attack", required=True, choices=["pns", "irud"])
    p.add_argument("--alpha", type=float, default=0.25, help="fiber loss, dB/km")
    p.add_argument("--mu", type=float, required=True, help="mean photon number")
    p.add_argument("--chi", type=float, default=None,
                   help="state overlap for the discrimination attack")
    p.add_argument("--max-km", type=float, default=500.0)
    p.add_argument("--step-km", type=float, default=1.0)
    p.add_argument("--out", default=None, help="CSV path for the distance curve")
    p.add_argument("--check", action="store_true")


def _efficiency_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["p1", "p2", "sarg04"], default=None)
    p.add_argument("--bs", type=float, default=None)
    p.add_argument("--qt", type=float, default=None)
    p.add_argument("--bt", type=float, default=None)
    p.add_argument("--check", action="store_true")


#: Each subcommand's help line, handler and arguments, in the order of --help.
_COMMANDS = {
    "thresholds": ("tolerable-error thresholds and bounds", cmd_thresholds,
                   _thresholds_arguments),
    "curves": ("key-rate curves as CSV", cmd_curves, _curves_arguments),
    "simulate": ("Monte-Carlo protocol run", cmd_simulate, _simulate_arguments),
    "pns": ("attacker information vs distance", cmd_pns, _pns_arguments),
    "efficiency": ("secret bits per transmitted resource", cmd_efficiency,
                   _efficiency_arguments),
}


class _CommandParser(argparse.ArgumentParser):
    """One command's parser on its own, whose refusals main prints from the full tree."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


@functools.cache  # one parser per command, built on its first main call, not at import
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """``command``'s parser alone, which parses and helps as its parser in the
    full tree, or, when ``command`` is None, that tree of the root and every command."""
    if command is not None:
        parser = _CommandParser(prog=f"threepass {command}")
        _, func, add_arguments = _COMMANDS[command]
        add_arguments(parser)
        parser.set_defaults(func=func)
        return parser
    parser = argparse.ArgumentParser(
        prog="threepass",
        description="Three-pass single-photon QKD: simulation and key-rate analysis.",
    )
    parser.add_argument("--version", action="version", version=f"threepass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_line, parents=[build_parser(name)], add_help=False)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv[1:] if command else argv)
    except argparse.ArgumentError:  # printed by the tree, whose root may refuse first
        args = build_parser(None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return code
    except BrokenPipeError:  # the reader left: quiet, as a filter SIGPIPE killed
        if sys.stdout is sys.__stdout__:  # so the exit flush writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    except (ValueError, secrate.BracketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: thresholds, rate curves, simulation, attack curves.

Every CSV written by this tool starts with a reproducibility manifest as
'#'-prefixed comment lines: the subcommand, every resolved parameter, the
seed, the tool version, and a UTC timestamp.  Re-running with the manifest's
parameters reproduces the data rows byte for byte; set SOURCE_DATE_EPOCH to
pin the timestamp line as well.  THREEPASS_SEED provides the default seed.

Exit codes: 0 on success, 1 when --check finds a reference-value mismatch,
2 on usage, numerical or file errors (an output path that cannot be
written, a sweep of more than MAX_GRID_POINTS rows).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from typing import IO, Iterator, Sequence

import numpy as np

from . import __version__
from .protocol import (
    DEFAULT_SB1_TOLERANCE,
    TABLE1_BRANCHES,
    Eavesdropper,
    ProtocolId,
    SimulationConfig,
    run_simulation,
)
from . import pns as pns_mod
from . import secrate

CHECK_FAILED_EXIT = 1
ERROR_EXIT = 2

#: Grid points per rate or eve_info call in a sweep: bounded memory for any grid.
_BLOCK = 2048

#: Most CSV rows one sweep may write; a larger grid is refused before it is built.
MAX_GRID_POINTS = 10**7

#: (key, rate callable, bracket) for the four closed-form thresholds.
_THRESHOLD_SPECS = [
    ("sb1", "return pass (no announcement)",
     lambda e: secrate.key_rate_sb1(e, False), 5e-4),
    ("sb1_announced", "return pass (Y announced)",
     lambda e: secrate.key_rate_sb1(e, True), 5e-4),
    ("sifted", "sifted key (no announcement)",
     lambda e: secrate.key_rate_sifted(e, False), 5e-4),
    ("sifted_announced", "sifted key (X announced)",
     lambda e: secrate.key_rate_sifted(e, True), 5e-3),
]


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        dt = datetime.now(tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _default_seed() -> int:
    return int(os.environ.get("THREEPASS_SEED", "0"))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_manifest(stream: IO[str], command: str, params: dict, seed=None) -> None:
    stream.write(f"# command: {command}\n")
    stream.write(f"# tool: threepass {__version__}\n")
    stream.write(f"# timestamp: {_timestamp()}\n")
    if seed is not None:
        stream.write(f"# seed: {seed}\n")
    for key in sorted(params):
        stream.write(f"# {key}: {params[key]}\n")


@contextmanager
def _csv_out(path: str | None) -> Iterator[IO[str]]:
    """The CSV output stream: stdout for None or "-", else ``path``.

    A path is written as ``<path>.<pid>.tmp`` in the same directory and
    renamed over ``path`` only when the block finishes, so a failing command
    leaves an existing file unchanged and no partial CSV; the temp file is
    removed on any exception.  A target that exists and is not a regular
    file (e.g. /dev/null) cannot be renamed over and is written directly.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
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
    tol = args.tol
    mu4 = args.mu4_override
    rows = []
    for key, label, fn, check_tol in _THRESHOLD_SPECS:
        computed = secrate.find_threshold(fn, 1e-4, 0.45, tol)
        rows.append((key, label, computed, secrate.REFERENCE_THRESHOLDS[key], check_tol))
    lower_e, lower_q = secrate.lower_bound_threshold(mu4)
    upper_e, upper_q = secrate.upper_bound_threshold(mu4)
    rows.append(("lower_bound", f"collective lower bound (q*={lower_q:.4g})",
                 lower_e, secrate.REFERENCE_THRESHOLDS["lower_bound"], 2e-3))
    rows.append(("upper_bound", f"collective upper bound (q*={upper_q:.4g})",
                 upper_e, secrate.REFERENCE_THRESHOLDS["upper_bound"], 2e-3))

    with _csv_out(args.out) as out:
        params = {"tol": tol, "mu4_override": "default (e^2)" if mu4 is None else mu4}
        write_manifest(out, "thresholds", params)
        out.write("key,description,computed,reference,deviation,within_tolerance\n")
        failures = []
        for key, label, computed, reference, check_tol in rows:
            dev = abs(computed - reference)
            ok = dev <= check_tol
            if not ok:
                failures.append(key)
            out.write(f"{key},{label},{_fmt(computed)},{_fmt(reference)},"
                      f"{_fmt(dev)},{'yes' if ok else 'NO'}\n")
        if mu4 is not None:
            out.write("# note: bound thresholds computed under a non-default mu4\n")
    if args.check and failures:
        print(f"check failed for: {', '.join(failures)}", file=sys.stderr)
        return CHECK_FAILED_EXIT
    return 0


def _grid_points(last: float) -> int:
    """The number of grid indices 0, 1, ..., floor(last), counted without
    building the grid and refused above :data:`MAX_GRID_POINTS`."""
    if not last < MAX_GRID_POINTS:  # NaN fails too
        raise ValueError(f"grid too large: {last + 1:.4g} points, "
                         f"the limit is {MAX_GRID_POINTS}")
    return math.floor(last) + 1


def _axis_points(start: float, stop: float, step: float) -> int:
    """The number of points start + i*step up to stop."""
    if not (0.0 < step < math.inf and -math.inf < start <= stop < math.inf):
        raise ValueError(f"invalid grid: start={start} stop={stop} step={step}")
    return _grid_points((stop - start) / step + 1e-9)


def _grid_blocks(start: float, step: float, n: int) -> Iterator[np.ndarray]:
    """The points start + i*step, i < n, in arrays of at most :data:`_BLOCK`."""
    for first in range(0, n, _BLOCK):
        yield start + np.arange(first, min(first + _BLOCK, n)) * step


def cmd_curves(args: argparse.Namespace) -> int:
    n_e = _axis_points(args.e_start, args.e_stop, args.e_step)
    params = {
        "kind": args.kind, "e_start": args.e_start, "e_stop": args.e_stop,
        "e_step": args.e_step,
    }
    if args.kind in ("sb1", "sifted"):
        params["announce"] = args.announce
        fn = secrate.key_rate_sb1 if args.kind == "sb1" else secrate.key_rate_sifted
        header = "e,r"
        q_rows = [("", lambda e: fn(e, args.announce))]
    else:
        n_q = _axis_points(args.q_start, args.q_stop, args.q_step)
        _grid_points(n_e * n_q - 1)  # the whole surface
        params.update(q_start=args.q_start, q_stop=args.q_stop, q_step=args.q_step,
                      mu4_override="default (e^2)" if args.mu4_override is None
                      else args.mu4_override)
        if args.kind == "upper":
            # The r column is the information margin (mutual information
            # minus Holevo ceiling); its sign boundary locates the
            # threshold, which the published closed form cannot express.
            params["r_column"] = "information margin [H(b)-H(b|c)] - chi(E)"
            fn = secrate.upper_bound_crossing
        else:
            fn = secrate.lower_bound_rate
        header = "e,q,r"
        q_rows = ((f",{_fmt(q)}", lambda e, q=q: fn(e, q, args.mu4_override))
                  for block in _grid_blocks(args.q_start, args.q_step, n_q)
                  for q in block.tolist())

    # Rows are evaluated one block of e values at a time as they are written,
    # so memory stays bounded however fine the grid.
    with _csv_out(args.out) as out:
        write_manifest(out, "curves", params)
        out.write(header + "\n")
        for q_column, rate in q_rows:
            for e_block in _grid_blocks(args.e_start, args.e_step, n_e):
                for e, r in zip(e_block.tolist(), rate(e_block).tolist()):
                    out.write(f"{_fmt(e)}{q_column},{_fmt(r)}\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        protocol=ProtocolId(args.protocol),
        n_rounds=args.rounds,
        channel_qber=args.qber,
        eve=Eavesdropper(args.eve),
        rng_seed=args.seed,
        sb1_tolerance=args.sb1_tolerance,
    )
    # The histogram target is opened first, so a bad path fails before any
    # round is drawn.
    with _csv_out(args.histogram) if args.histogram else nullcontext() as out:
        report = run_simulation(config, workers=args.workers)
        print(report.to_text())
        if out is not None:
            write_manifest(out, "simulate", {
                "protocol": args.protocol, "rounds": args.rounds, "qber": args.qber,
                "eve": args.eve, "workers": args.workers,
                "sb1_tolerance": args.sb1_tolerance,
            }, seed=args.seed)
            out.write("alice_state,bob_result,sb1_result,sb2_result,"
                      "expected_probability,expected_count,observed_count\n")
            for (s, y, r1, r2, prob), count in zip(TABLE1_BRANCHES, report.branch_counts):
                expected = float(prob) * report.n_rounds
                out.write(f"{s},{y},{r1},{r2},{_fmt(float(prob))},"
                          f"{_fmt(expected)},{count}\n")
            out.write(f"(off-table),,,,0,0,{report.other_count}\n")
    return 0


def cmd_pns(args: argparse.Namespace) -> int:
    if not 0.0 < args.step_km < math.inf:
        raise ValueError(f"--step-km must be positive and finite, got {args.step_km}")
    source = pns_mod.WcpSource(args.mu)
    if args.attack == "pns":
        info = lambda l: pns_mod.eve_info_pns(pns_mod.FiberLink(args.alpha, l), source)
    else:
        info = lambda l: pns_mod.eve_info_irud(
            pns_mod.FiberLink(args.alpha, l), source, args.chi)

    l_c, delta_c = pns_mod.critical_distance(info, args.alpha, args.max_km)

    if args.out:
        n = _grid_points(args.max_km / args.step_km)
        with _csv_out(args.out) as out:
            write_manifest(out, "pns", {
                "attack": args.attack, "alpha": args.alpha, "mu": args.mu,
                "chi": args.chi, "max_km": args.max_km, "step_km": args.step_km,
            })
            out.write("l_km,i_eve\n")
            for lengths in _grid_blocks(0.0, args.step_km, n):
                for l, i_eve in zip(lengths.tolist(), info(lengths).tolist()):
                    out.write(f"{_fmt(l)},{_fmt(i_eve)}\n")

    print(f"attack:            {args.attack}")
    print(f"critical distance: l_c = {l_c:.2f} km")
    print(f"critical loss:     delta_c = {delta_c:.4f} dB")
    ref = pns_mod.REFERENCE_CRITICAL[args.attack]
    print(f"reference:         l_c = {ref['l_km']} km, delta_c = {ref['delta_db']} dB")
    print(f"deviation:         {l_c - ref['l_km']:+.2f} km, "
          f"{delta_c - ref['delta_db']:+.4f} dB")
    if args.check:
        if args.attack == "pns":
            ok = abs(l_c - ref["l_km"]) <= 1.0 and abs(delta_c - ref["delta_db"]) <= 0.1
        else:
            # The published crossing is not asserted for this attack; check
            # the conclusive-information formula and monotonicity instead.
            i3 = pns_mod.unambiguous_info(3, args.chi)
            grid = info(np.arange(41) * 5.0)
            ok = abs(i3 - 0.7942369457243101) <= 1e-6 and bool(np.all(grid[:-1] < grid[1:]))
        if not ok:
            print("check failed", file=sys.stderr)
            return CHECK_FAILED_EXIT
    return 0


def cmd_efficiency(args: argparse.Namespace) -> int:
    if args.bs is not None or args.qt is not None or args.bt is not None:
        if None in (args.bs, args.qt, args.bt):
            raise ValueError("custom efficiency needs all of --bs, --qt, --bt")
        inputs = secrate.EfficiencyInputs(args.bs, args.qt, args.bt)
        print(f"custom: eta = {secrate.cabello_efficiency(inputs):.6g}")
        return 0
    presets = [args.preset] if args.preset else ["p1", "p2", "sarg04"]
    reference = {"p1": 0.2069, "p2": 0.25, "sarg04": 0.125}
    failures = []
    for name in presets:
        inputs = secrate.EFFICIENCY_PRESETS[name]
        eta = secrate.cabello_efficiency(inputs)
        print(f"{name:7s} b_s={inputs.b_s:.6g} q_t={inputs.q_t:.6g} "
              f"b_t={inputs.b_t:.6g}  eta = {eta:.6g}")
        if abs(round(eta, 4) - reference[name]) > 5e-5:
            failures.append(name)
    if args.check and failures:
        print(f"check failed for: {', '.join(failures)}", file=sys.stderr)
        return CHECK_FAILED_EXIT
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threepass",
        description="Three-pass single-photon QKD: simulation and key-rate analysis.",
    )
    parser.add_argument("--version", action="version", version=f"threepass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="tolerable-error thresholds and bounds")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="bisection tolerance of the four closed-form thresholds; "
                        "the two bounds always use 1e-7")
    p.add_argument("--mu4-override", type=float, default=None,
                   help="fix mu4 instead of the default e^2 in the bound rates")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless every value matches its reference")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("curves", help="key-rate curves as CSV")
    p.add_argument("--kind", required=True, choices=["sb1", "sifted", "lower", "upper"])
    p.add_argument("--announce", action="store_true",
                   help="announce Y (sb1) or X (sifted)")
    p.add_argument("--e-start", type=float, default=0.0)
    p.add_argument("--e-stop", type=float, default=0.3)
    p.add_argument("--e-step", type=float, default=0.005)
    p.add_argument("--q-start", type=float, default=0.0)
    p.add_argument("--q-stop", type=float, default=0.5)
    p.add_argument("--q-step", type=float, default=0.025)
    p.add_argument("--mu4-override", type=float, default=None)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("simulate", help="Monte-Carlo protocol run")
    p.add_argument("--protocol", required=True, choices=["p1", "p2"])
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--qber", type=float, default=0.0, help="channel QBER per pass")
    p.add_argument("--eve", choices=["none", "intercept-resend"], default="none")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--workers", type=int, default=1,
                   help="number of RNG streams the rounds are split over; the "
                        "report depends on it, the thread count does not")
    p.add_argument("--sb1-tolerance", type=float, default=DEFAULT_SB1_TOLERANCE)
    p.add_argument("--histogram", default=None,
                   help="write the noiseless-branch histogram CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pns", help="attacker information vs distance")
    p.add_argument("--attack", required=True, choices=["pns", "irud"])
    p.add_argument("--alpha", type=float, default=0.25, help="fiber loss, dB/km")
    p.add_argument("--mu", type=float, required=True, help="mean photon number")
    p.add_argument("--chi", type=float, default=pns_mod.DEFAULT_IRUD_OVERLAP,
                   help="state overlap for the discrimination attack")
    p.add_argument("--max-km", type=float, default=500.0)
    p.add_argument("--step-km", type=float, default=1.0)
    p.add_argument("--out", default=None, help="CSV path for the distance curve")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_pns)

    p = sub.add_parser("efficiency", help="secret bits per transmitted resource")
    p.add_argument("--preset", choices=["p1", "p2", "sarg04"], default=None)
    p.add_argument("--bs", type=float, default=None)
    p.add_argument("--qt", type=float, default=None)
    p.add_argument("--bt", type=float, default=None)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_efficiency)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, secrate.BracketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: fixed CLI command lists and their output checks.

Each workload is one pass of ``threepass`` commands, repeated by the child
process for the run length.  An operation is one command; it fails when its
exit code is unexpected or its output check fails.  A check returns an error
message, or None when the output is correct.

This module imports nothing from ``threepass``, so the parent process can use
the workload table without loading the program under test.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MC_ROUNDS = 10_000_000
MC_QBER = "0.03"
# Width of the acceptance band around the exact oracle expectations.
MC_SIGMAS = 5.0

# Frozen 40-digit values of the defining expressions, as in tests/test_secrate.py.
ROOT_SB1 = 0.0311244603047894
ROOT_SB1_ANNOUNCED = 0.0614904700787242
ROOT_SIFTED = 0.0229698402967669
ROOT_SIFTED_ANNOUNCED = 0.0485152401087486
LOWER_AT_0P1_Q0P1 = 0.06269436857898337
CROSSING_AT_0P1_Q0P1 = 0.050574356619537638

THRESHOLD_TOL = 1e-6      # the bisection --tol the roots workload runs with
BOUND_TOL = 2e-4
# (lower, upper) bound thresholds for the default mu4 = e^2 and for mu4 = 0.
BOUNDS = {None: (0.124120, 0.120137), "0.0": (0.129817, 0.115529)}

SURFACE_ROWS = 6321       # 301 e values x 21 q values at --e-step 0.001
SCAN_ROWS = 100_001       # 0..500 km at --step-km 0.005
HISTOGRAM_ROWS = 29       # 28 noiseless branches plus the off-table row


class Outcome(NamedTuple):
    """What one CLI command returned: exit code (None on an exception) and output."""

    rc: Optional[int]
    stdout: str
    stderr: str


def invoke(main: Callable, argv: list[str]) -> Outcome:
    """Call ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = None
    return Outcome(rc, out.getvalue(), err.getvalue())


def _data_rows(path: str):
    """Yield the comma-split data rows of a CLI CSV: no manifest, no header."""
    with open(path, encoding="utf-8") as fh:
        header_seen = False
        for line in fh:
            if line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True
                continue
            yield line.rstrip("\n").split(",")


def _exit_error(outcome: Outcome) -> Optional[str]:
    if outcome.rc != 0:
        return f"exit code {outcome.rc}: {outcome.stderr.strip()[-300:]}"
    return None


# --- mc: Monte-Carlo runs of both protocols --------------------------------

@cache
def _oracle(eve: bool):
    if os.path.join(ROOT, "tests") not in sys.path:
        sys.path.append(os.path.join(ROOT, "tests"))
    import enum_oracle

    return enum_oracle.oracle_stats(Fraction(MC_QBER), eve)


def _report_values(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            values[key.strip()] = value.strip()
    return values


def _check_mc(protocol: str, eve: bool, outcome: Outcome, histogram: str) -> Optional[str]:
    error = _exit_error(outcome)
    if error:
        return error
    report = _report_values(outcome.stdout)
    try:
        rounds = int(report["rounds"])
        observed = {
            "sift fraction": float(report["sift fraction"]),
            "sifted qber": float(report["sifted qber"]),
            "sb1 orthogonal fraction": float(report["sb1 orthogonal fraction"]),
        }
    except (KeyError, ValueError) as exc:
        return f"unreadable report ({exc!r})"
    if rounds != MC_ROUNDS:
        return f"report shows {rounds} rounds, expected {MC_ROUNDS}"
    oracle = _oracle(eve)
    sift = float(getattr(oracle, f"{protocol}_sift"))
    qber = float(getattr(oracle, f"{protocol}_qber"))
    orth = float(oracle.orth_fraction)
    expected = {
        "sift fraction": (sift, math.sqrt(sift * (1 - sift) / rounds)),
        "sifted qber": (qber, math.sqrt(qber * (1 - qber) / (rounds * sift))),
        "sb1 orthogonal fraction": (orth, math.sqrt(orth * (1 - orth) / rounds)),
    }
    for key, (mean, sigma) in expected.items():
        if abs(observed[key] - mean) > MC_SIGMAS * sigma:
            return f"{key} {observed[key]} outside {mean:.6g} +- {MC_SIGMAS:g} sigma"
    try:
        counts = [int(row[-1]) for row in _data_rows(histogram)]
    except (OSError, ValueError) as exc:
        return f"unreadable histogram ({exc!r})"
    if len(counts) != HISTOGRAM_ROWS or sum(counts) != rounds:
        return (f"histogram has {len(counts)} rows summing to {sum(counts)}, "
                f"expected {HISTOGRAM_ROWS} rows summing to {rounds}")
    return None


_MC_RUNS = (("p1", False), ("p2", True))


def _mc_commands(outdir: str, seed: int) -> list[list[str]]:
    commands = []
    for protocol, eve in _MC_RUNS:
        argv = ["simulate", "--protocol", protocol, "--rounds", str(MC_ROUNDS),
                "--qber", MC_QBER, "--seed", str(seed),
                "--histogram", os.path.join(outdir, f"histogram_{protocol}.csv")]
        if eve:
            argv[-2:-2] = ["--eve", "intercept-resend"]
        commands.append(argv)
    return commands


def _mc_check(outcomes: list[Outcome], outdir: str) -> list[Optional[str]]:
    return [_check_mc(protocol, eve, outcome,
                      os.path.join(outdir, f"histogram_{protocol}.csv"))
            for (protocol, eve), outcome in zip(_MC_RUNS, outcomes)]


# --- roots: tolerable-error searches ---------------------------------------

_ROOTS_MU4 = (None, "0.0")


def _roots_commands(outdir: str, seed: int) -> list[list[str]]:
    return [["thresholds"] + ([] if mu4 is None else ["--mu4-override", mu4])
            for mu4 in _ROOTS_MU4]


def _check_thresholds(mu4: Optional[str], outcome: Outcome) -> Optional[str]:
    error = _exit_error(outcome)
    if error:
        return error
    lines = [l for l in outcome.stdout.splitlines() if l and not l.startswith("#")]
    try:
        computed = {row[0]: float(row[2]) for row in (l.split(",") for l in lines[1:])}
    except (IndexError, ValueError) as exc:
        return f"unreadable thresholds table ({exc!r})"
    lower, upper = BOUNDS[mu4]
    expected = {
        "sb1": (ROOT_SB1, THRESHOLD_TOL),
        "sb1_announced": (ROOT_SB1_ANNOUNCED, THRESHOLD_TOL),
        "sifted": (ROOT_SIFTED, THRESHOLD_TOL),
        "sifted_announced": (ROOT_SIFTED_ANNOUNCED, THRESHOLD_TOL),
        "lower_bound": (lower, BOUND_TOL),
        "upper_bound": (upper, BOUND_TOL),
    }
    if set(computed) != set(expected):
        return f"threshold keys {sorted(computed)}, expected {sorted(expected)}"
    for key, (value, tol) in expected.items():
        if not abs(computed[key] - value) <= tol:
            return f"{key} = {computed[key]}, expected {value} within {tol:g}"
    return None


def _roots_check(outcomes: list[Outcome], outdir: str) -> list[Optional[str]]:
    return [_check_thresholds(mu4, outcome) for mu4, outcome in zip(_ROOTS_MU4, outcomes)]


# --- surface: bound rates on a dense (e, q) grid -----------------------------

_SURFACE_KINDS = (("lower", LOWER_AT_0P1_Q0P1), ("upper", CROSSING_AT_0P1_Q0P1))


def _surface_commands(outdir: str, seed: int) -> list[list[str]]:
    return [["curves", "--kind", kind, "--e-step", "0.001",
             "--out", os.path.join(outdir, f"surface_{kind}.csv")]
            for kind, _ in _SURFACE_KINDS]


def _check_surface(outcome: Outcome, path: str, frozen: float) -> Optional[str]:
    error = _exit_error(outcome)
    if error:
        return error
    rows = 0
    probe = None
    try:
        for row in _data_rows(path):
            rows += 1
            if row[:2] == ["0.1", "0.1"]:
                probe = row[2]
    except (OSError, IndexError) as exc:
        return f"unreadable surface ({exc!r})"
    if rows != SURFACE_ROWS:
        return f"{rows} data rows, expected {SURFACE_ROWS}"
    if probe != f"{frozen:.6g}":
        return f"r(e=0.1, q=0.1) = {probe}, expected {frozen:.6g}"
    return None


def _surface_check(outcomes: list[Outcome], outdir: str) -> list[Optional[str]]:
    return [_check_surface(outcome, os.path.join(outdir, f"surface_{kind}.csv"), frozen)
            for (kind, frozen), outcome in zip(_SURFACE_KINDS, outcomes)]


# --- scan: PNS and IRUD information versus distance ---------------------------

_SCAN_ATTACKS = (("pns", "0.1"), ("irud", "0.2"))


def _scan_commands(outdir: str, seed: int) -> list[list[str]]:
    return [["pns", "--attack", attack, "--mu", mu, "--step-km", "0.005", "--check",
             "--out", os.path.join(outdir, f"scan_{attack}.csv")]
            for attack, mu in _SCAN_ATTACKS]


def _check_scan(outcome: Outcome, path: str) -> Optional[str]:
    error = _exit_error(outcome)
    if error:
        return error
    try:
        rows = sum(1 for _ in _data_rows(path))
    except OSError as exc:
        return f"unreadable scan ({exc!r})"
    if rows != SCAN_ROWS:
        return f"{rows} data rows, expected {SCAN_ROWS}"
    return None


def _scan_check(outcomes: list[Outcome], outdir: str) -> list[Optional[str]]:
    return [_check_scan(outcome, os.path.join(outdir, f"scan_{attack}.csv"))
            for (attack, _), outcome in zip(_SCAN_ATTACKS, outcomes)]


@dataclass(frozen=True)
class Workload:
    name: str
    #: (output directory, seed) -> argv of each command in one pass.
    commands: Callable[[str, int], list[list[str]]]
    #: (outcomes of one pass, output directory) -> error message or None per command.
    check: Callable[[list[Outcome], str], list[Optional[str]]]
    #: Work items per pass, for items_per_s: simulated rounds on mc,
    #: thresholds solved on roots, CSV data rows written on surface and scan.
    items: int


WORKLOADS = {
    w.name: w for w in (
        Workload("mc", _mc_commands, _mc_check, MC_ROUNDS * len(_MC_RUNS)),
        Workload("roots", _roots_commands, _roots_check, 6 * len(_ROOTS_MU4)),
        Workload("surface", _surface_commands, _surface_check,
                 SURFACE_ROWS * len(_SURFACE_KINDS)),
        Workload("scan", _scan_commands, _scan_check, SCAN_ROWS * len(_SCAN_ATTACKS)),
    )
}

import argparse
import io
import math
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from threepass import cli, pns as pns_mod, secrate
from threepass.cli import _NUMBER, _SUB_BLOCK, _fmt, _write_rows, main
from conftest import assert_fits

pytestmark = pytest.mark.usefixtures("pinned_timestamp")


@pytest.fixture
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def _read(path):
    return path.read_text(encoding="utf-8")


def test_thresholds_table(tmp_path, capsys):
    out = tmp_path / "thresholds.csv"
    assert main(["thresholds", "--out", str(out)]) == 0
    text = _read(out)
    assert text.startswith("# command: thresholds\n")
    assert "# timestamp: 2023-11-14T22:13:20Z" in text
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "key,description,computed,reference,deviation,within_tolerance"
    # all six published reference values appear in the table
    for ref in ("0.0314", "0.0617", "0.0316", "0.15", "0.124", "0.114"):
        assert f",{ref}," in text
    # computed values within documented tolerances where reproducible
    assert "sb1," in text and ",yes" in text
    # the three non-reproducible references are flagged, not silently passed
    assert text.count(",NO") == 3


def test_thresholds_prints_correctly_rounded_roots(capsys):
    # The roots at secrate.THRESHOLD_TOL, correct to every printed digit.
    assert main(["thresholds"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")]
    computed = {row[0]: row[2] for row in rows[1:]}
    assert computed["sb1"] == "0.0311245"
    assert computed["sb1_announced"] == "0.0614905"
    assert computed["sifted"] == "0.0229698"
    assert computed["sifted_announced"] == "0.0485152"


def test_thresholds_manifest_records_bound_tolerance(tmp_path):
    # The bound rows' tolerance is the one every row uses, so the manifest
    # records it on a single line and has no separate bound_tol line.
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--out", str(out)]) == 0
    manifest = [l for l in _read(out).splitlines() if l.startswith("#")]
    assert [l for l in manifest if "tol" in l] == ["# tol: 1e-07"]


def test_thresholds_check_exit_code(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--check", "--out", str(out)]) == 1


def test_thresholds_mu4_override_flagged(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--mu4-override", "0.0", "--out", str(out)]) == 0
    text = _read(out)
    assert "# mu4_override: 0.0" in text
    assert "# mu4_rule: min(mu4_override, e) at each point" in text
    assert "non-default mu4" in text


def test_mu4_override_above_e_is_read_as_e(capsys):
    # The bound roots are searched from e = 1e-4 and the surface starts at
    # e = 0: a positive mu4 exceeds e there.
    assert main(["thresholds", "--mu4-override", "0.01"]) == 0
    rows = {line.split(",")[0]: line.split(",")[2]
            for line in capsys.readouterr().out.splitlines() if not line.startswith("#")}
    assert (rows["lower_bound"], rows["upper_bound"]) == ("0.124503", "0.118457")
    assert main(["curves", "--kind", "lower", "--mu4-override", "0.001", "--e-step", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "# mu4_rule: min(mu4_override, e) at each point\n" in out
    expected = "%.6g" % secrate.lower_bound_rate(0.1, 0.0, 0.001)
    assert f"\n0.1,0,{expected}\n" in out


@pytest.mark.parametrize("mu4,bound", [("1", "lower"), ("0.44964", "upper")])
def test_bound_threshold_without_crossing_names_bound_and_mu4(capsys, mu4, bound):
    # mu4 near 1/2 keeps a bound rate positive up to the bracket end e = 0.45;
    # at 0.44964 the lower root still lies inside the bracket, the upper not.
    assert main(["thresholds", "--mu4-override", mu4]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: no {bound} bound threshold at q->1/2 with mu4_override={mu4}: "
        "rate must straddle zero on the bracket")


def _no_rate(*args, **kwargs):
    pytest.fail("a rate was evaluated")


@pytest.mark.parametrize("argv", [["thresholds"], ["curves", "--kind", "lower"]],
                         ids=["thresholds", "curves"])
@pytest.mark.parametrize("mu4", ["nan", "-0.05"])
def test_mu4_override_is_refused_before_any_rate(monkeypatch, capsys, argv, mu4):
    # Named as the option, once, not as mu4 at the root bracket's end
    # e = 1e-4 or at the grid point e = 0, where min(mu4, e) would fail.
    monkeypatch.setattr(secrate, "find_threshold", _no_rate)
    monkeypatch.setattr(secrate, "lower_bound_rate", _no_rate)
    assert main([*argv, f"--mu4-override={mu4}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: mu4_override must lie in [0, inf], got {float(mu4)}\n"


@pytest.mark.parametrize("argv", [["thresholds"], ["thresholds", "--mu4-override", "0.0"]],
                         ids=["default", "mu4_0"])
def test_thresholds_take_no_eigensolve_and_no_bound_rate(monkeypatch, capsys, argv):
    # Both bound thresholds are roots of the q -> 1/2 limits, scalars in math.
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_rate)
    monkeypatch.setattr(secrate, "lower_bound_rate", _no_rate)
    monkeypatch.setattr(secrate, "upper_bound_crossing", _no_rate)
    assert main(argv) == 0
    assert capsys.readouterr().out.count("(q->1/2)") == 2


@pytest.mark.parametrize("attack,mu,info_calls", [("pns", "0.1", 0), ("irud", "0.2", 1)])
def test_pns_takes_no_root_search(monkeypatch, capsys, attack, mu, info_calls):
    # The crossing is closed form; the information is evaluated only for
    # the irud --check grid, in one array call.
    monkeypatch.setattr(secrate, "find_threshold", lambda *a, **k: pytest.fail("a root search"))
    calls = []
    name = f"eve_info_{attack}"
    info = getattr(pns_mod, name)
    monkeypatch.setattr(pns_mod, name, lambda *a: calls.append(a) or info(*a))
    assert main(["pns", "--attack", attack, "--mu", mu, "--check"]) == 0
    assert capsys.readouterr().out.startswith(f"attack:            {attack}\n")
    assert len(calls) == info_calls


@pytest.mark.parametrize("attack,mu", [("pns", "0.1"), ("irud", "0.2")])
def test_pns_out_computes_the_numerator_once(monkeypatch, tmp_path, attack, mu):
    # The --out blocks divide the numerator computed for the critical
    # distance: one numerator per command, however many 2048-row blocks.
    calls = []
    name = f"numerator_{attack}"
    numerator = getattr(pns_mod, name)
    monkeypatch.setattr(pns_mod, name, lambda *a: calls.append(a) or numerator(*a))
    monkeypatch.setattr(pns_mod, f"eve_info_{attack}", lambda *a: pytest.fail("eve_info"))
    out = tmp_path / "scan.csv"
    assert main(["pns", "--attack", attack, "--mu", mu, "--step-km", "0.05",
                 "--out", str(out)]) == 0
    assert len(calls) == 1 and _read(out).count("\n") > 3 * 2048


def test_mu4_override_inf_reads_as_e(capsys):
    rows = []
    for mu4 in ("inf", "0.5"):
        assert main(["curves", "--kind", "lower", "--mu4-override", mu4, "--e-step", "0.05"]) == 0
        rows.append([l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")])
    assert rows[0] == rows[1] and len(rows[0]) == 1 + 7 * 21


def test_curves_sifted_crosses_near_published_threshold(tmp_path):
    out = tmp_path / "sifted.csv"
    assert main(["curves", "--kind", "sifted", "--announce",
                 "--e-start", "0", "--e-stop", "0.3", "--e-step", "0.005",
                 "--out", str(out)]) == 0
    rows = [l.split(",") for l in _read(out).splitlines()
            if l and not l.startswith("#") and not l.startswith("e,")]
    assert rows[0][0] == "0" and float(rows[0][1]) > 0
    crossings = [(float(a[0]), float(b[0])) for a, b in zip(rows, rows[1:])
                 if float(a[1]) > 0 >= float(b[1])]
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo <= 0.0485152401087486 <= hi


def test_curves_sb1_single_point_near_root(tmp_path, capsys):
    # Re-evaluating the rate at its own computed threshold gives ~0; at the
    # published rounded value 0.0314 the rate is already -3.4e-3.
    assert main(["curves", "--kind", "sb1", "--e-start", "0.0311245",
                 "--e-stop", "0.0311245", "--e-step", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = [l for l in lines if not l.startswith("#") and not l.startswith("e,")]
    assert len(data) == 1
    assert abs(float(data[0].split(",")[1])) < 1e-3


def test_curves_lower_sign_boundary(tmp_path):
    out = tmp_path / "lower.csv"
    assert main(["curves", "--kind", "lower",
                 "--e-start", "0.1", "--e-stop", "0.14", "--e-step", "0.002",
                 "--q-start", "0.45", "--q-stop", "0.45", "--q-step", "1",
                 "--out", str(out)]) == 0
    rows = [l.split(",") for l in _read(out).splitlines()
            if l and not l.startswith("#") and not l.startswith("e,")]
    signs = [(float(e), float(r) > 0) for e, _, r in rows]
    flips = [(a[0], b[0]) for a, b in zip(signs, signs[1:]) if a[1] and not b[1]]
    assert len(flips) == 1
    assert flips[0][0] <= 0.1241 <= flips[0][1] + 0.002


def test_curves_upper_has_sign_boundary(tmp_path):
    out = tmp_path / "upper.csv"
    assert main(["curves", "--kind", "upper",
                 "--e-start", "0.08", "--e-stop", "0.14", "--e-step", "0.002",
                 "--q-start", "0.3", "--q-stop", "0.3", "--q-step", "1",
                 "--out", str(out)]) == 0
    text = _read(out)
    assert "# r_column: information margin" in text
    rows = [l.split(",") for l in text.splitlines()
            if l and not l.startswith("#") and not l.startswith("e,")]
    vals = [float(r) for _, _, r in rows]
    assert vals[0] > 0 and vals[-1] < 0  # a threshold exists on this column


@pytest.mark.parametrize("kind,rate", [("lower", secrate.lower_bound_rate),
                                       ("upper", secrate.upper_bound_crossing)])
def test_curves_rows_are_q_major_with_their_own_q(tmp_path, kind, rate):
    # Rows built point by point, q-major and e-minor, on the default
    # e in [0, 0.3] and q in [0, 0.5].
    out = tmp_path / "surface.csv"
    assert main(["curves", "--kind", kind, "--e-step", "0.01", "--q-step", "0.1",
                 "--out", str(out)]) == 0
    e = np.arange(31) * 0.01
    expected = [f"{x:.6g},{q:.6g},{r:.6g}"
                for q in (np.arange(6) * 0.1).tolist()
                for x, r in zip(e.tolist(), rate(e, q).tolist())]
    data = [l for l in _read(out).splitlines() if not l.startswith("#")]
    assert data == ["e,q,r", *expected]


def test_curves_invalid_grid_exits_2():
    assert main(["curves", "--kind", "sb1", "--e-start", "0.3",
                 "--e-stop", "0.1", "--e-step", "0.01"]) == 2


@pytest.mark.parametrize("argv,bad", [
    (["--kind", "sb1", "--e-step", "inf"], "e_step must lie in (0, inf), got inf"),
    (["--kind", "lower", "--q-step", "inf"], "q_step must lie in (0, inf), got inf"),
    (["--kind", "sb1", "--e-start", "inf", "--e-stop", "inf"],
     "e_start must lie in (-inf, inf), got inf"),
    (["--kind", "sb1", "--e-stop", "inf"], "e_stop must lie in (-inf, inf), got inf"),
    (["--kind", "lower", "--q-start=-inf"], "q_start must lie in (-inf, inf), got -inf"),
    (["--kind", "upper", "--q-start", "inf", "--q-stop", "inf"],
     "q_start must lie in (-inf, inf), got inf"),
], ids=["argv0", "argv1", "e-start-stop", "e-stop", "q-start", "q-start-stop"])
def test_curves_infinite_step_exits_2_without_csv(tmp_path, capsys, argv, bad):
    # inf * 0 at the first grid point once leaked a RuntimeWarning and then
    # a NaN-QBER error; inf - inf once gave "grid too large: nan points".
    out = tmp_path / "curves.csv"
    assert main(["curves", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}\n"
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    pytest.param(["--kind", "lower", "--mu4-override=-0.05"],
                 "error: mu4_override must lie in [0, inf], got -0.05", id="argv0-mu4_override"),
    (["--kind", "sb1", "--e-stop", "0.6"], "error: QBER must lie in [0, 0.5], got 0.505"),
    (["--kind", "upper", "--q-stop", "1.5", "--e-step", "0.1"],
     "error: q must lie in [0, 1], got 1.0250000000000001"),
])
def test_curves_invalid_point_exits_2_without_csv(tmp_path, capsys, argv, message):
    out = tmp_path / "curves.csv"
    assert main(["curves", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


def test_failing_curves_leaves_existing_target_unchanged(tmp_path, capsys):
    # The q = 1.025 row is invalid: the old CSV stays as it was and no temp
    # file is left behind.
    out = tmp_path / "curves.csv"
    out.write_text("old\n", encoding="utf-8")
    assert main(["curves", "--kind", "upper", "--q-stop", "1.5", "--e-step", "0.1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: q must lie in [0, 1]")
    assert _read(out) == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]


def test_csv_out_failure_removes_partial_temp_file(tmp_path):
    out = tmp_path / "data.csv"
    out.write_text("old\n", encoding="utf-8")
    with pytest.raises(ValueError):
        with cli._csv_out(str(out)) as stream:
            stream.write("partial\n")
            raise ValueError("failed mid-write")
    assert _read(out) == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


@pytest.mark.parametrize("argv", [
    ["--kind", "lower", "--q-stop", "1.5", "--q-step", "0.5", "--e-step", "0.1"],
    ["--kind", "upper", "--q-stop", "1.5", "--e-step", "0.1"],
    ["--kind", "sb1", "--e-stop", "0.6"],
    ["--kind", "lower", "--e-stop", "0.6"],
    ["--kind", "upper", "--e-start=-0.1"],
    ["--kind", "sifted", "--e-start=-0.1"],
    ["--kind", "lower", "--mu4-override=-1"],
    ["--kind", "upper", "--mu4-override", "nan", "--e-step", "0.1"],
], ids=["lower-q-stop", "upper-q-stop", "sb1-e-stop", "lower-e-stop", "upper-e-start",
        "sifted-e-start", "lower-mu4-negative", "upper-mu4-nan"])
def test_curves_invalid_grid_to_stdout_writes_nothing(capsys, argv):
    # The grid's corners are checked before the manifest, so stdout gets no
    # manifest, header or rows ahead of the error.
    assert main(["curves", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,option", [
    (["--kind", "sb1", "--q-stop", "1.5", "--mu4-override", "nan", "--e-step", "0.1"],
     "--q-stop"),
    (["--kind", "sifted", "--q-step", "0"], "--q-step"),
    (["--kind", "sifted", "--announce", "--q-start", "0.1"], "--q-start"),
    (["--kind", "sb1", "--mu4-override", "0"], "--mu4-override"),
    (["--kind", "lower", "--announce"], "--announce"),
    (["--kind", "upper", "--announce", "--q-step", "0.1"], "--announce"),
    pytest.param(["--attack", "pns", "--mu", "0.1", "--chi", "nan", "--out", "p.csv"], "--chi",
                 id="pns-chi"),
    pytest.param(["--preset", "p1", "--bs", "1", "--qt", "1", "--bt", "1", "--check"],
                 "--preset", id="efficiency-preset"),
    pytest.param(["--bs", "1", "--qt", "1", "--bt", "1", "--check"], "--check",
                 id="efficiency-check"),
])
def test_curves_option_of_another_kind_exits_2(monkeypatch, tmp_path, capsys, argv, option):
    # An option that the curves kind, the pns attack or a custom efficiency
    # does not read is refused, not silently ignored, and nothing is written.
    command = {"--kind": "curves", "--attack": "pns"}.get(argv[0], "efficiency")
    scope = "custom --bs/--qt/--bt" if command == "efficiency" else " ".join(argv[:2])
    monkeypatch.chdir(tmp_path)
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} does not apply to {scope}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind,fn", [("lower", secrate.lower_bound_rate),
                                     ("upper", secrate.upper_bound_crossing)])
@pytest.mark.parametrize("mu4", [None, 0.0])
def test_curves_blocks_split_rows_byte_identical(monkeypatch, capsys, kind, fn, mu4):
    # 11 points per q row, so 7-point blocks split each row into e chunks.
    argv = ["curves", "--kind", kind, "--e-start", "0.02", "--e-stop", "0.12",
            "--e-step", "0.01", "--q-start", "0.1", "--q-step", "0.1"]
    if mu4 is not None:
        argv += ["--mu4-override", str(mu4)]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "_BLOCK", 7)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    expected = ["%.6g,%.6g,%.6g" % (e, q, float(fn(e, q, mu4)))
                for q in (0.1 + np.arange(5) * 0.1).tolist()
                for e in (0.02 + np.arange(11) * 0.01).tolist()]
    data = [l for l in whole.splitlines() if not l.startswith("#")]
    assert data == ["e,q,r", *expected]


_RATES = {"sb1": secrate.key_rate_sb1, "sifted": secrate.key_rate_sifted,
          "lower": secrate.lower_bound_rate, "upper": secrate.upper_bound_crossing}


@st.composite
def _axes(draw, unit, top):
    """(start, stop, step) in multiples of 1/unit with stop <= top, and the
    axis points min(start + i*step, stop) counted in exact integers."""
    start = draw(st.integers(0, top // 2))
    step = draw(st.integers(1, top // 4))
    stop = draw(st.integers(start, min(start + 6 * step, top)))
    points = [min(start / unit + i * (step / unit), stop / unit)
              for i in range((stop - start) // step + 1)]
    return [str(start / unit), str(stop / unit), str(step / unit)], points


@given(kind=st.sampled_from(sorted(_RATES)), mu4=st.sampled_from([None, 0.0]),
       announce=st.booleans(), e_axis=_axes(1000, 500), q_axis=_axes(100, 100),
       block=st.sampled_from(["1", "7", "n_e", "grid + 1"]))
def test_curves_rows_match_pointwise_rates(kind, mu4, announce, e_axis, q_axis, block):
    # Every row against the rate evaluated point by point, whatever the
    # block size: one point, a chunk of a row, one whole row, the whole grid.
    (e_args, e_points), (q_args, q_points) = e_axis, q_axis
    argv = ["curves", "--kind", kind, *(f"--e-{key}={value}" for key, value
                                        in zip(("start", "stop", "step"), e_args))]
    if kind in ("sb1", "sifted"):
        argv += ["--announce"] if announce else []
        expected = ["%.6g,%.6g" % (e, _RATES[kind](e, announce)) for e in e_points]
    else:
        argv += [f"--q-{key}={value}" for key, value in zip(("start", "stop", "step"), q_args)]
        argv += [] if mu4 is None else ["--mu4-override", str(mu4)]
        expected = ["%.6g,%.6g,%.6g" % (e, q, _RATES[kind](e, q, mu4))
                    for q in q_points for e in e_points]
    size = {"1": 1, "7": 7, "n_e": len(e_points), "grid + 1": len(expected) + 1}[block]
    out = io.StringIO()
    with mock.patch.object(cli, "_BLOCK", size), redirect_stdout(out):
        assert main(argv) == 0
    data = [l for l in out.getvalue().splitlines() if not l.startswith("#")]
    assert data[1:] == expected


@pytest.mark.parametrize("argv,n_rows,last", [
    (["--kind", "lower", "--q-start", "0.09", "--q-stop", "1.0", "--q-step", "0.07"],
     61 * 14, "0.3,1,"),
    (["--kind", "sb1", "--e-start", "0.045", "--e-stop", "0.5", "--e-step", "0.035"],
     14, "0.5,"),
], ids=["lower-q-stop", "sb1-e-stop"])
def test_curves_axis_point_rounding_past_stop_is_stop(capsys, argv, n_rows, last):
    # 0.09 + 13 * 0.07 and 0.045 + 13 * 0.035 round past their stops, which
    # once refused the grid: the last point is the stop itself.
    assert main(["curves", *argv]) == 0
    data = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(data) == 1 + n_rows and data[-1].startswith(last)


def test_csv_replaces_target_and_writes_non_regular_files_directly(tmp_path):
    out = tmp_path / "curves.csv"
    out.write_text("old\n", encoding="utf-8")
    args = ["curves", "--kind", "sb1", "--e-stop", "0.1", "--e-step", "0.05"]
    assert main(args + ["--out", str(out)]) == 0
    assert _read(out).splitlines()[-1].startswith("0.1,")
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]
    assert main(args + ["--out", os.devnull]) == 0


def test_csv_writes_through_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n", encoding="utf-8")
    link.symlink_to(target)
    assert main(["thresholds", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert _read(target).startswith("# command: thresholds\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_curves_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curves", "--kind", "sifted", "--e-start", "0", "--e-stop", "0.1",
            "--e-step", "0.01"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)


# Pools of at most 8 floats, repeated to the row count, keep the examples
# small; nan, infinities, signed zeros and subnormals are all drawn.
_FLOAT_POOLS = st.lists(st.floats(), min_size=1, max_size=8)


def _format_sweep():
    """A fixed sweep of 10^5 random 64-bit patterns (every float class), the
    neighbours of the notation edges 1e-4 and 1e6 and of the values that
    round onto them, half-way ties, and the extremes, each with both signs."""
    bits = np.random.default_rng(7).integers(0, 2**64, size=10**5, dtype=np.uint64)
    edges = [1e-4, 9.999995e-05, 1e6, 999999.5, 0.1234565, 1.0000005, 5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308]
    near = []
    for x in edges:
        down = up = x
        for _ in range(3):
            down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
            near += [down, up]
        near.append(x)
    near += [0.0, math.inf, math.nan]
    return bits.view(np.float64).tolist() + near + [-x for x in near]


_SWEEP = _format_sweep()


@example(n=len(_SWEEP), a=_SWEEP + [np.float64(0.1234565), np.int64(-2**62)],
         b=_SWEEP[::-1])
@given(n=st.sampled_from([0, 1, _SUB_BLOCK, 2 * _SUB_BLOCK + 37]),
       a=_FLOAT_POOLS, b=_FLOAT_POOLS)
def test_write_rows_matches_per_row_format(n, a, b):
    # The row writer, with the production conversion, against the per-row
    # f-string loop it replaced; the single-value formatter against the same
    # reference.  The explicit example is the fixed sweep, plus a numpy float
    # and a numpy integer for the formatter.
    assert [_fmt(x) for x in a] == [f"{x:.6g}" for x in a]
    a, b = np.resize(a, n).tolist(), np.resize(b, n).tolist()
    out = io.StringIO()
    _write_rows(out, f"{_NUMBER},{_NUMBER}\n", np.array(a), np.array(b))
    expected = "".join(f"{x:.6g},{r:.6g}\n" for x, r in zip(a, b))
    # Compared by row: a failing example then shrinks in seconds.
    assert out.getvalue().splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_simulate_report_and_histogram(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    assert main(["simulate", "--protocol", "p1", "--rounds", "50000",
                 "--qber", "0", "--seed", "7", "--histogram", str(hist)]) == 0
    report = capsys.readouterr().out
    assert "sift fraction:" in report
    sift = float([l for l in report.splitlines() if "sift fraction" in l][0].split()[-1])
    assert abs(sift - 0.75) < 0.01
    text = _read(hist)
    assert "# seed: 7" in text
    data = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert data[0].startswith("alice_state,bob_result,")
    assert len(data) == 1 + 28 + 1  # header, table rows, off-table row
    assert data[-1].startswith("(off-table),")


def test_simulate_byte_identical_reports(capsys):
    args = ["simulate", "--protocol", "p2", "--rounds", "20000",
            "--qber", "0.03", "--eve", "intercept-resend",
            "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_simulate_zero_sb1_tolerance_reports_fail(capsys):
    # 1001 rounds cannot hold exactly a quarter orthogonal outcomes.
    assert main(["simulate", "--protocol", "p1", "--rounds", "1001",
                 "--sb1-tolerance", "0"]) == 0
    assert "sb1 check (tol 0): FAIL" in capsys.readouterr().out


def test_simulate_seed_env_default(monkeypatch, capsys):
    # the default seed comes from the environment when not given
    monkeypatch.setenv("THREEPASS_SEED", "123")
    assert main(["simulate", "--protocol", "p1", "--rounds", "1000"]) == 0
    assert "seed:                    123\n" in capsys.readouterr().out


def test_bad_seed_env_fails_only_simulate_without_seed(monkeypatch, capsys):
    monkeypatch.setenv("THREEPASS_SEED", "abc")
    assert main(["efficiency"]) == 0
    assert main(["simulate", "--protocol", "p1", "--rounds", "1000", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--protocol", "p1", "--rounds", "1000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: THREEPASS_SEED must be an integer, got 'abc'\n"


def test_parser_is_built_once(capsys):
    # Once per command: a command's later calls reuse its parser.
    cli.build_parser.cache_clear()
    assert main(["efficiency"]) == 0 and main(["efficiency", "--preset", "p1"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    assert main(["thresholds", "--mu4-override", "0.0"]) == 0 and main(["efficiency"]) == 0
    assert main(["thresholds"]) == 0
    assert cli.build_parser.cache_info().misses == 2


def _subparsers(parser):
    """The subcommand parsers of ``parser``, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_parser_of_one_command_helps_as_the_full_one(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    one, full = cli.build_parser(command), _subparsers(cli.build_parser(None))[command]
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()


@pytest.mark.parametrize("argv", [
    ["thresholds", "--mu4-override", "0.0"], ["curves", "--kind", "sb1", "--e-step", "0.1"],
    ["simulate", "--protocol", "p1", "--rounds", "1000"],
    ["pns", "--attack", "pns", "--mu", "0.1"], ["efficiency", "--preset", "p1"],
])
def test_a_named_command_is_parsed_without_the_full_parser(monkeypatch, capsys, argv):
    def add_parser(*args, **kwargs):
        raise AssertionError("the full parser was built")

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
    assert main(argv) == 0


_ROOT_USAGE = ("usage: threepass [-h] [--version]\n"
               "                 {thresholds,curves,simulate,pns,efficiency} ...\n")


@pytest.mark.parametrize("argv,err", [
    (["thresholds", "extra"], "threepass: error: unrecognized arguments: extra\n"),
    (["thresholdz"], "threepass: error: argument command: invalid choice: 'thresholdz' "
                     "(choose from 'thresholds', 'curves', 'simulate', 'pns', 'efficiency')\n"),
    ([], "threepass: error: the following arguments are required: command\n"),
    # The root tolerance is fixed (secrate.THRESHOLD_TOL); there is no option.
    (["thresholds", "--tol", "1e-3"],
     "threepass: error: unrecognized arguments: --tol 1e-3\n"),
])
def test_parse_errors_print_the_root_usage(monkeypatch, capsys, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _ROOT_USAGE + err)


@pytest.mark.parametrize("argv", [
    ["--help"], ["--version"], ["-h", "thresholds"], ["thresholds", "extra"],
    ["thresholds", "--mu4-override"], ["curves", "--kind", "x"], ["simulate", "--help"],
    ["pns", "--attack", "pns"], ["efficiency", "--bs", "x"], ["--", "efficiency"],
    ["thresholds", "--mu4-override", "0", "extra"], ["thresholds", "--version"],
    ["thresholds", "--", "x"], ["curves", "--kind", "lower", "-x"],
    ["thresholds", "--foo", "--mu4-override", "x"], ["simulate", "-h", "extra"],
    ["thresholds", "--check", "--=x"],
])
def test_parse_exits_as_the_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = []
    for parse in (main, cli.build_parser(None).parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_simulate_invalid_sb1_tolerance_exits_2(capsys, tol):
    assert main(["simulate", "--protocol", "p1", "--rounds", "1000",
                 "--sb1-tolerance", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: sb1_tolerance must lie in [0, inf], got {float(tol)}\n"
    assert captured.out == ""


def test_simulate_rounds_beyond_int64_exits_2(capsys):
    # Round counts are int64; a larger --rounds is a clean usage error.
    assert main(["simulate", "--protocol", "p1", "--rounds", "10000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: n_rounds must be <= 2**63 - 1, "
                            "got 10000000000000000000\n")
    assert captured.out == ""


@pytest.mark.parametrize("qber", ["0.03", "5e-324"])
@pytest.mark.parametrize("eve", ["none", "intercept-resend"])
@pytest.mark.parametrize("rounds", [10**12, 2**63 - 1])
def test_simulate_huge_round_counts(tmp_path, capsys, rounds, eve, qber):
    # A run's cost does not grow with --rounds, up to the int64 limit, nor
    # at the smallest QBER, 2**-1074, where a count read at e has mode 0.
    hist = tmp_path / "hist.csv"
    start = time.perf_counter()
    assert main(["simulate", "--protocol", "p2", "--rounds", str(rounds), "--qber", qber,
                 "--eve", eve, "--seed", "3", "--histogram", str(hist)]) == 0
    assert time.perf_counter() - start < 2.0
    assert f"rounds:                  {rounds}\n" in capsys.readouterr().out
    rows = [l.split(",") for l in _read(hist).splitlines() if l and not l.startswith("#")]
    assert len(rows) == 1 + 28 + 1
    assert sum(int(row[-1]) for row in rows[1:]) == rounds


def test_simulate_leaves_out_numpy_random(tmp_path):
    # The runs draw from random.Random, so numpy.random is never imported.
    package_dir = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, threepass.cli as cli; "
            "cli.main(['simulate', '--protocol', 'p2', '--rounds', '10000000', '--eve', "
            "'intercept-resend', '--qber', '0.03', '--histogram', sys.argv[1]]); "
            "print('numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "hist.csv")],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": package_dir}, check=True)
    assert result.stdout.splitlines()[-1] == "False"


_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name,argv", [
    ("p1_noiseless", ["--protocol", "p1", "--rounds", "20000", "--seed", "7"]),
    ("p2_qber0.03_eve", ["--protocol", "p2", "--rounds", "20000", "--qber", "0.03",
                         "--eve", "intercept-resend", "--seed", "11"]),
    ("p1_qber0.1_eve", ["--protocol", "p1", "--rounds", "30000", "--qber", "0.1",
                        "--eve", "intercept-resend", "--seed", "5"]),
    ("p2_qber0.2", ["--protocol", "p2", "--rounds", "30000", "--qber", "0.2", "--seed", "3"]),
])
def test_simulate_outputs_match_golden_files(tmp_path, capsys, name, argv):
    # The report and the histogram CSV, byte for byte: state names, row
    # order, number formatting and the manifest (its timestamp pinned by
    # SOURCE_DATE_EPOCH) are all frozen in tests/golden.
    hist = tmp_path / "hist.csv"
    assert main(["simulate", *argv, "--histogram", str(hist)]) == 0
    with open(os.path.join(_GOLDEN, name + ".txt"), "rb") as expected:
        assert capsys.readouterr().out.encode() == expected.read()
    with open(os.path.join(_GOLDEN, name + ".csv"), "rb") as expected:
        assert hist.read_bytes() == expected.read()


@pytest.mark.parametrize("name", ["p1_noiseless", "p2_qber0.03_eve", "p1_qber0.1_eve",
                                  "p2_qber0.2"])
def test_golden_histograms_fit_their_expected_counts(name):
    # Each frozen histogram is a fair draw: it fits its exact expected
    # counts (conftest.assert_fits).
    with open(os.path.join(_GOLDEN, name + ".csv")) as f:
        rows = [line.split(",") for line in f.read().splitlines() if line[0] != "#"][1:]
    expected = [float(row[5]) for row in rows]
    observed = [int(row[6]) for row in rows]
    assert sum(observed) == round(sum(expected))
    assert_fits(observed, expected)


@pytest.mark.parametrize("name,argv", [
    ("curves_upper.csv", ["curves", "--kind", "upper"]),
    ("curves_lower.csv", ["curves", "--kind", "lower"]),
    ("curves_upper_mu4_0.csv", ["curves", "--kind", "upper", "--mu4-override", "0"]),
    ("thresholds.txt", ["thresholds"]),
    ("thresholds_mu4_0.txt", ["thresholds", "--mu4-override", "0.0"]),
    ("pns_pns_mu0.1.txt", ["pns", "--attack", "pns", "--mu", "0.1",
                           "--step-km", "0.5", "--out", "-"]),
    ("pns_irud_mu0.2.txt", ["pns", "--attack", "irud", "--mu", "0.2",
                            "--step-km", "0.5", "--out", "-"]),
])
def test_bound_outputs_match_golden_files(capsys, name, argv):
    # The bound surfaces on the default grid, the thresholds table and two
    # 1001-row attack scans with their summaries, byte for byte, manifest
    # included: the default mu4 (closed-form Holevo term) and mu4 = 0
    # (batched 4x4 eigvalsh) alike; the scans hold fixed and exponent
    # notation, from 3.6e-09 up to 4.3e+08.
    assert main(argv) == 0
    with open(os.path.join(_GOLDEN, name), "rb") as expected:
        assert capsys.readouterr().out.encode() == expected.read()


_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_commands() -> list:
    """The lines of README's "Command line" sh block as argv lists, with
    backslash continuations joined and comments dropped."""
    with open(_README, encoding="utf-8") as f:
        section = f.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Every command README shows runs as written, writing its CSVs to a
    # scratch directory, so the docs cannot drift from the parser.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands and all(argv[0] == "threepass" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_cli_import_leaves_out_fractions():
    # fractions (and decimal, which it imports) load only for `efficiency`;
    # the one walk that builds the published table at import uses neither.
    package_dir = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, threepass.cli; "
            "print('fractions' in sys.modules, 'decimal' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": package_dir}, check=True)
    assert result.stdout == "False False\n"


def test_pns_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "pns.csv"
    assert main(["pns", "--attack", "pns", "--alpha", "0.25", "--mu", "0.1",
                 "--max-km", "400", "--step-km", "50", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "l_c = 154.5" in report
    assert "delta_c = 38.63" in report
    text = _read(out)
    data = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert data[0] == "l_km,i_eve"
    assert len(data) == 1 + 9


@pytest.mark.parametrize("argv,rows", [
    (["--attack", "pns", "--mu", "0.1"],
     ["0,0.000143777", "154.555,1.00008", "500,4.3267e+08"]),
    (["--attack", "irud", "--mu", "0.2"],
     ["0,3.59555e-09", "339.48,1.00014", "500,10305.3"]),
])
def test_pns_fine_scan_rows_frozen(tmp_path, argv, rows):
    # 100001 distances, evaluated in blocks; rows frozen from the per-point scan.
    out = tmp_path / "pns.csv"
    assert main(["pns", *argv, "--step-km", "0.005", "--out", str(out)]) == 0
    data = [l for l in _read(out).splitlines() if l and not l.startswith("#")]
    assert len(data) == 1 + 100001
    assert set(rows) <= set(data)
    assert data[1] == rows[0] and data[-1] == rows[-1]


def test_pns_scan_ends_at_max_km(tmp_path):
    # 700 / 0.07 is 9999.999999999998 in floats, which once dropped the
    # 700 km row: the scan counts its rows as curves counts an axis.
    out = tmp_path / "pns.csv"
    assert main(["pns", "--attack", "pns", "--mu", "0.1", "--max-km", "700",
                 "--step-km", "0.07", "--out", str(out)]) == 0
    data = [l for l in _read(out).splitlines() if not l.startswith("#")]
    assert len(data) == 1 + 10001
    assert data[-2].startswith("699.93,") and data[-1] == "700,4.3267e+13"


def _template_scans():
    """(step, max_km) of a scan at step 1/P for every P dividing 10^4: 2*10^4
    rows, or fewer where the lengths reach 10^(6 - k) km, the last that
    1/P's k decimals keep within 6 significant digits, plus 3 rows past it."""
    scans = []
    for p in (p for p in range(1, 10**4 + 1) if 10**4 % p == 0):
        k = next(k for k in range(5) if 10**k % p == 0)
        scans.append((repr(1 / p), repr(min(2 * 10**4, p * 10 ** (6 - k) + 3) / p)))
    return scans


@pytest.mark.parametrize("step,max_km", [
    *_template_scans(),
    # A scan's end inside a unit of 10 km, on a unit's end, which is also
    # the 6-digit limit, and past that limit; the 6-digit limit at step 1.
    ("0.005", "999.995"), ("0.005", "1000"), ("0.005", "1234.5"), ("1", "1000003"),
    # A last row that length_at clips to --max-km, on a template step.
    ("1", "4999.9999999999"), ("0.07", "700"),
    # Steps that are not 1/P for a P dividing 10^4: one whose inverse rounds
    # to 200, one whose inverse overflows.
    ("0.3", "1000"), ("2.5", "10000"), ("3", "30000"), ("5e-05", "1"),
    (repr(1 / 3), "1000"), ("0.00500001", "500"), ("2.5e-312", "2.5e-307"),
])
def test_pns_scan_rows_match_per_row_format(tmp_path, step, max_km):
    # Every data row against the per-row conversion of the same lengths and
    # information, whichever writer formats it: a length template or a %g
    # per number.
    alpha = min(50 / float(max_km), 1.79e308)  # puts the crossing inside the scan
    out = tmp_path / "pns.csv"
    assert main(["pns", "--attack", "pns", "--mu", "0.1", "--alpha", repr(alpha),
                 "--step-km", step, "--max-km", max_km, "--out", str(out)]) == 0
    n, length_at = cli._axis_points("l", 0.0, float(max_km), float(step))
    lengths = length_at(np.arange(n))
    info = pns_mod.per_detection(pns_mod.numerator_pns(0.1), alpha, lengths, 0.1)
    expected = "".join(f"{x:.6g},{y:.6g}\n" for x, y in zip(lengths.tolist(), info.tolist()))
    text = _read(out)
    got = text[text.index("l_km,i_eve\n") + len("l_km,i_eve\n"):]
    if got != expected:  # name the first differing row, not a diff of the scan
        got, expected = got.splitlines(), expected.splitlines()
        at = next((i for i, pair in enumerate(zip(got, expected)) if len(set(pair)) > 1),
                  min(len(got), len(expected)))
        pytest.fail(f"row {at} of {len(got)}, {len(expected)} expected: "
                    f"{got[at:at + 1]} != {expected[at:at + 1]}")


@pytest.mark.parametrize("step,n,spans", [
    # 1/P for P dividing 10^4: unit 0, the template rows, the last row.
    (0.005, 100001, [(0, 2000, None), (2000, 100000, True), (100000, 100001, None)]),
    (1.0, 10**6 + 4, [(0, 1000, None), (1000, 10**6, True), (10**6, 10**6 + 4, None)]),
    (0.0625, 1604, [(0, 160, None), (160, 1600, True), (1600, 1604, None)]),
    (1e-4, 10003, [(0, 10000, None), (10000, 10002, True), (10002, 10003, None)]),
    (0.5, 1001, [(0, 1001, None), (1001, 1001, True), (1001, 1001, None)]),
    # Any other step is converted per row.
    (0.07, 10001, [(0, 10001, None)]), (5e-05, 20001, [(0, 20001, None)]),
    (2.5e-312, 100001, [(0, 100001, None)]),
])
def test_pns_length_spans_template_only_exact_rows(step, n, spans):
    # Unit 0 and the last row stay per row, as do lengths of 7 digits, from
    # 10^6 km at step 1 and from 100 km at 1/16, whose units are 10 km: units
    # of 100 km would leave no template row below 100 km.
    got = cli._length_spans(step, n)
    assert [(a, b, t is not None or None) for a, b, t in got] == spans


def test_pns_check_passes_for_storage_attack():
    assert main(["pns", "--attack", "pns", "--alpha", "0.25", "--mu", "0.1",
                 "--check"]) == 0


def test_pns_irud_reports_reference_and_deviation(capsys):
    assert main(["pns", "--attack", "irud", "--alpha", "0.25", "--mu", "0.2",
                 "--check"]) == 0
    report = capsys.readouterr().out
    assert "l_c = 339.4" in report
    assert "302.8" in report and "75.7" in report
    assert "deviation:" in report


_PNS_REFERENCE_STDOUT = {
    "pns": """\
attack:            pns
critical distance: l_c = 154.55 km
critical loss:     delta_c = 38.6384 dB
reference:         l_c = 154.5 km, delta_c = 38.625 dB
deviation:         +0.05 km, +0.0134 dB
""",
    "irud": """\
attack:            irud
critical distance: l_c = 339.48 km
critical loss:     delta_c = 84.8694 dB
reference:         l_c = 302.8 km, delta_c = 75.7 dB
deviation:         +36.68 km, +9.1694 dB
""",
}


@pytest.mark.parametrize("attack,mu", [("pns", "0.1"), ("irud", "0.2")])
def test_pns_reference_stdout_frozen(capsys, attack, mu):
    # The whole report of both reference runs, byte for byte.
    assert main(["pns", "--attack", attack, "--mu", mu]) == 0
    captured = capsys.readouterr()
    assert captured.out == _PNS_REFERENCE_STDOUT[attack]
    assert captured.err == ""


def test_pns_no_crossing_exits_2(capsys):
    for argv in (
        ["pns", "--attack", "pns", "--alpha", "0", "--mu", "0.1"],
        # The numerator and mu*eta both underflow: information 0, not 0/0.
        ["pns", "--attack", "pns", "--mu", "1e-320"],
        ["pns", "--attack", "irud", "--mu", "1e-300", "--max-km", "2000"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: no crossing ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["curves", "--kind", "sb1"],
    ["simulate", "--protocol", "p1", "--rounds", "1000"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # The output's directory does not exist: a clean error, not a traceback
    # with the exit code of a failed --check, and no temp file left behind.
    target = str(tmp_path / "missing" / "out.csv")
    flag = "--histogram" if argv[0] == "simulate" else "--out"
    assert main([*argv, flag, target]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # refused before any work, simulate's report included
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["curves", "--kind", "sb1", "--e-step", "1e-300"],
    ["curves", "--kind", "sifted", "--e-start=-1e308", "--e-stop", "1e308"],
    ["curves", "--kind", "lower", "--e-step", "1e-5", "--q-step", "1e-5"],
    ["pns", "--attack", "pns", "--mu", "0.1", "--step-km", "1e-300"],
])
def test_oversized_grid_exits_2_promptly(tmp_path, capsys, argv):
    # Counted before a point is built: these grids once hung or would have
    # streamed up to 1e302 rows.
    out = tmp_path / "grid.csv"
    start = time.perf_counter()
    assert main([*argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err.startswith("error: grid too large: ")
    assert not out.exists()


def test_pns_tiny_mean_finds_crossing(capsys):
    # P(n >= 2) at mu = 1e-8 is 5e-17, which 1 - p(0) - p(1) rounds to 0.
    assert main(["pns", "--attack", "pns", "--mu", "1e-8", "--max-km", "20000"]) == 0
    captured = capsys.readouterr()
    assert "l_c = 992.25 km" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_pns_invalid_step_exits_2_without_csv(tmp_path, capsys, step):
    out = tmp_path / "pns.csv"
    assert main(["pns", "--attack", "pns", "--mu", "0.1", "--step-km", step,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: step_km must lie in (0, inf), got {float(step)}\n"
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--mu", "nan"], ["--mu", "inf"], ["--mu", "0.1", "--alpha", "nan"],
    ["--mu", "0.1", "--alpha", "inf"], ["--mu", "0.1", "--max-km", "nan"],
])
def test_pns_non_finite_input_exits_2_without_csv(tmp_path, capsys, argv):
    out = tmp_path / "pns.csv"
    assert main(["pns", "--attack", "pns", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    option, value = argv[-2:]
    assert err.startswith(f"error: {option[2:].replace('-', '_')} must lie in ")
    assert err.endswith(f", got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--max-km", "20000", "--step-km", "5000"],
                                  ["--alpha", "1e308", "--step-km", "100"]])
def test_pns_long_fiber_scan_exits_0(tmp_path, capsys, argv):
    # The transmittance underflows to 0 at the far end: the attacker then
    # knows everything, which the information column shows as inf.
    out = tmp_path / "pns.csv"
    assert main(["pns", "--attack", "pns", "--mu", "0.1", *argv, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "critical distance" in captured.out
    assert captured.err == ""
    assert _read(out).splitlines()[-1].endswith(",inf")


def test_efficiency_presets(capsys):
    assert main(["efficiency"]) == 0
    out = capsys.readouterr().out
    assert "0.206897" in out and "0.25" in out and "0.125" in out
    assert main(["efficiency", "--check"]) == 0


def test_efficiency_single_preset(capsys):
    assert main(["efficiency", "--preset", "p1"]) == 0
    out = capsys.readouterr().out
    assert "0.206897" in out and "sarg04" not in out


def test_efficiency_custom(capsys):
    assert main(["efficiency", "--bs", "1", "--qt", "1", "--bt", "1"]) == 0
    assert "eta = 0.5" in capsys.readouterr().out
    assert main(["efficiency", "--bs", "1", "--qt", "1"]) == 2
    # q_t + b_t overflows a float, the ratio does not.
    assert main(["efficiency", "--bs", "1e308", "--qt", "1e308", "--bt", "1e308"]) == 0
    assert "eta = 0.5" in capsys.readouterr().out
    # The ratio overflows a float: refused, not printed as inf.
    assert main(["efficiency", "--bs", "1e308", "--qt", "1e-10", "--bt", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: efficiency b_s/(q_t + b_t) overflows a float")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--bs", "nan", "--qt", "1", "--bt", "1"], ["--bs", "1", "--qt", "nan", "--bt", "1"],
    ["--bs", "1", "--qt", "1", "--bt", "nan"], ["--bs", "inf", "--qt", "1", "--bt", "1"],
    ["--bs", "1", "--qt", "inf", "--bt", "1"], ["--bs", "1", "--qt", "1", "--bt", "inf"],
])
def test_efficiency_non_finite_input_exits_2(capsys, argv):
    assert main(["efficiency", *argv]) == 2
    captured = capsys.readouterr()
    option = next(argv[i - 1] for i, value in enumerate(argv) if value in ("nan", "inf"))
    name = {"--bs": "b_s", "--qt": "q_t", "--bt": "b_t"}[option]
    assert captured.err.startswith(f"error: {name} must lie in ")
    assert captured.out == ""


# --- argv fuzzing ---------------------------------------------------------

#: Values drawn for every numeric option besides its valid ones.
_EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e-320", "1e308"]

# Caps on the options that set a run's time; every other value is drawn
# freely.  With them, an accepted curves grid holds at most 31 x 31 points,
# and a pns --out scan at most 11 rows (edge values give at most 2, or are
# refused before a point is built).
_MAX_ROUNDS = 2000      # simulate --rounds
_MIN_GRID_STEP = 0.05   # curves --e-step and --q-step
_MIN_STEP_KM = 50.0     # pns --step-km
_MAX_KM = 500.0         # pns --max-km


def _number(lo, hi):
    """A valid value in [lo, hi] three times in four, else an edge value."""
    return st.integers(0, 3).flatmap(
        lambda k: st.sampled_from(_EDGE_VALUES) if k == 0 else st.floats(lo, hi).map(repr))


_FLAG = st.just(None)  # a flag takes no value
#: Options that argparse requires; the fuzz test always passes them.
_REQUIRED = {"--kind", "--protocol", "--rounds", "--attack", "--mu"}
_SUBCOMMANDS = {
    "thresholds": {"--mu4-override": _number(0.0, 0.1),
                   "--check": _FLAG, "--out": st.just("-")},
    "curves": {"--kind": st.sampled_from(["sb1", "sifted", "lower", "upper"]),
               "--announce": _FLAG, "--e-start": _number(0.0, 0.5),
               "--e-stop": _number(0.0, 0.5), "--e-step": _number(_MIN_GRID_STEP, 0.5),
               "--q-start": _number(0.0, 1.0), "--q-stop": _number(0.0, 1.0),
               "--q-step": _number(_MIN_GRID_STEP, 1.0),
               "--mu4-override": _number(0.0, 0.1), "--out": st.just("-")},
    "simulate": {"--protocol": st.sampled_from(["p1", "p2"]),
                 "--rounds": st.integers(0, 3).flatmap(
                     lambda k: st.sampled_from(_EDGE_VALUES) if k == 0
                     else st.integers(1, _MAX_ROUNDS).map(str)),
                 "--qber": _number(0.0, 0.5),
                 "--eve": st.sampled_from(["none", "intercept-resend"]),
                 "--seed": st.one_of(st.integers(0, 2**64).map(str),
                                     st.sampled_from(_EDGE_VALUES)),
                 "--sb1-tolerance": _number(0.0, 0.25), "--histogram": st.just("-")},
    "pns": {"--attack": st.sampled_from(["pns", "irud"]), "--alpha": _number(0.0, 1.0),
            "--mu": _number(1e-3, 2.0), "--chi": _number(0.0, 1.0),
            "--max-km": _number(1.0, _MAX_KM), "--step-km": _number(_MIN_STEP_KM, _MAX_KM),
            "--out": st.just("-"), "--check": _FLAG},
    "efficiency": {"--preset": st.sampled_from(["p1", "p2", "sarg04"]),
                   "--bs": _number(0.0, 2.0), "--qt": _number(0.1, 5.0),
                   "--bt": _number(0.0, 2.0), "--check": _FLAG},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    # The required options and any subset of the others, in a drawn order.
    for option, values in draw(st.permutations(sorted(_SUBCOMMANDS[command].items()))):
        if option in _REQUIRED or draw(st.booleans()):
            value = draw(values)
            # --opt=value, so that argparse reads "-inf" as a value.
            argv.append(option if value is None else f"{option}={value}")
    return argv


#: The one form of a range error: name, interval with its ends, value.
_RANGE_ERROR = re.compile(r"error: \w+ must lie in [\[(]-?\w+, [\w.]+[\])], got \S+\n")


@given(argv=_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    parsed = True
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code, parsed = exc.code, False
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        data = [line for line in out.getvalue().splitlines()
                if line and not line.startswith("#")]
        assert data == [], (argv, err.getvalue())
    if code == 2 and parsed:
        # One line; a range error in the one form.
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, (argv, message)
        assert " must lie in " not in message or _RANGE_ERROR.fullmatch(message), (argv, message)


#: (argv, option, its name in the error, the interval, a value outside it) for
#: every float option the fuzz test draws.
_RANGES = [
    (["thresholds"], "--mu4-override", "mu4_override", "[0, inf]", "-0.05"),
    (["curves", "--kind", "lower"], "--mu4-override", "mu4_override", "[0, inf]", "-1"),
    (["curves", "--kind", "sb1"], "--e-start", "e_start", "(-inf, inf)", "-inf"),
    (["curves", "--kind", "sb1"], "--e-stop", "e_stop", "(-inf, inf)", "inf"),
    (["curves", "--kind", "sb1"], "--e-step", "e_step", "(0, inf)", "0"),
    (["curves", "--kind", "upper"], "--q-start", "q_start", "(-inf, inf)", "inf"),
    (["curves", "--kind", "lower"], "--q-stop", "q_stop", "(-inf, inf)", "-inf"),
    (["curves", "--kind", "lower"], "--q-step", "q_step", "(0, inf)", "-0.5"),
    (["simulate", "--protocol", "p1", "--rounds", "10"], "--qber", "QBER", "[0, 0.5]", "0.6"),
    (["simulate", "--protocol", "p2", "--rounds", "10"], "--sb1-tolerance", "sb1_tolerance",
     "[0, inf]", "-1"),
    (["pns", "--attack", "pns", "--mu", "0.1"], "--alpha", "alpha", "[0, inf)", "inf"),
    (["pns", "--attack", "irud"], "--mu", "mu", "(0, inf)", "0"),
    (["pns", "--attack", "irud", "--mu", "0.2"], "--chi", "chi", "[0, 1]", "1.5"),
    (["pns", "--attack", "pns", "--mu", "0.1"], "--max-km", "max_km", "[0, inf)", "-5"),
    (["pns", "--attack", "pns", "--mu", "0.1"], "--step-km", "step_km", "(0, inf)", "0"),
    (["efficiency", "--qt", "1", "--bt", "1"], "--bs", "b_s", "[0, inf)", "-1"),
    (["efficiency", "--bs", "1", "--bt", "1"], "--qt", "q_t", "(0, inf)", "0"),
    (["efficiency", "--bs", "1", "--qt", "1"], "--bt", "b_t", "[0, inf)", "inf"),
]


@pytest.mark.parametrize("bad", ["nan", "outside"])
@pytest.mark.parametrize("argv,option,name,interval,outside", _RANGES,
                         ids=[f"{argv[0]}{option}" for argv, option, *_ in _RANGES])
def test_range_error_has_one_form(capsys, argv, option, name, interval, outside, bad):
    value = outside if bad == "outside" else bad
    assert main([*argv, f"{option}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must lie in {interval}, got {float(value)}\n"
    assert _RANGE_ERROR.fullmatch(captured.err)


def test_range_table_covers_every_float_option():
    not_float = {"--kind", "--protocol", "--eve", "--attack", "--preset", "--out",
                 "--histogram", "--rounds", "--seed"}
    fuzzed = {(command, option) for command, options in _SUBCOMMANDS.items()
              for option, values in options.items()
              if values is not _FLAG and option not in not_float}
    assert {(argv[0], option) for argv, option, *_ in _RANGES} == fuzzed

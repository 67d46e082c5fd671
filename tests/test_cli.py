import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from threepass import cli, secrate
from threepass.cli import _SUB_BLOCK, _fmt, _write_rows, main

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
    # The roots at --tol 1e-6, correct to every printed digit.
    assert main(["thresholds"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")]
    computed = {row[0]: row[2] for row in rows[1:]}
    assert computed["sb1"] == "0.0311245"
    assert computed["sb1_announced"] == "0.0614905"
    assert computed["sifted"] == "0.0229698"
    assert computed["sifted_announced"] == "0.0485152"


def test_thresholds_check_exit_code(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--check", "--out", str(out)]) == 1


def test_thresholds_loose_tolerance_runs(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--tol", "1e-4", "--out", str(out)]) == 0
    assert "sb1," in _read(out)


def test_thresholds_manifest_records_bound_tolerance(tmp_path):
    # --tol governs the four closed-form rows; the two bound rows use their
    # own fixed tolerance, which gets its own manifest line.
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--tol", "1e-3", "--out", str(out)]) == 0
    manifest = [l for l in _read(out).splitlines() if l.startswith("#")]
    assert "# tol: 0.001" in manifest
    assert "# bound_tol: 1e-07" in manifest


@pytest.mark.parametrize("tol,message", [
    ("nan", "positive"), ("0", "positive"), ("-1e-6", "positive"), ("inf", "positive"),
    # At or above the bracket width the search would stop at once and
    # print a point of the unsearched bracket.
    ("1", "below the bracket width"),
], ids=["nan", "0", "-1e-6", "inf", "1"])
def test_thresholds_invalid_tol_exits_2(tmp_path, capsys, tol, message):
    out = tmp_path / "t.csv"
    assert main(["thresholds", f"--tol={tol}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: tol must be {message}")
    assert not out.exists()


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
        f"error: no {bound} bound threshold at q*=0.4999 with mu4_override={mu4}: "
        "rate must straddle zero on the bracket")


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
    (["--kind", "sb1", "--e-step", "inf"], "step=inf"),
    (["--kind", "lower", "--q-step", "inf"], "step=inf"),
    (["--kind", "sb1", "--e-start", "inf", "--e-stop", "inf"], "start=inf"),
    (["--kind", "sb1", "--e-stop", "inf"], "stop=inf"),
    (["--kind", "lower", "--q-start=-inf"], "start=-inf"),
    (["--kind", "upper", "--q-start", "inf", "--q-stop", "inf"], "start=inf"),
], ids=["argv0", "argv1", "e-start-stop", "e-stop", "q-start", "q-start-stop"])
def test_curves_infinite_step_exits_2_without_csv(tmp_path, capsys, argv, bad):
    # inf * 0 at the first grid point once leaked a RuntimeWarning and then
    # a NaN-QBER error; inf - inf once gave "grid too large: nan points".
    out = tmp_path / "curves.csv"
    assert main(["curves", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid grid: ") and bad in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--kind", "lower", "--mu4-override=-0.05"], "error: mu4 must lie in [0, e=0.0], got -0.05"),
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
])
def test_curves_option_of_another_kind_exits_2(capsys, argv, option):
    # An option the kind does not read is refused, not silently ignored.
    assert main(["curves", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} does not apply to --kind {argv[1]}\n"


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


@given(n=st.sampled_from([0, 1, _SUB_BLOCK, 2 * _SUB_BLOCK + 37]),
       a=_FLOAT_POOLS, b=_FLOAT_POOLS)
def test_write_rows_matches_per_row_format(n, a, b):
    # The row writer against the per-row f-string loop it replaced; the
    # single-value formatter against the same conversion.
    assert [_fmt(x) for x in a] == [f"{x:.6g}" for x in a]
    a, b = np.resize(a, n).tolist(), np.resize(b, n).tolist()
    out = io.StringIO()
    _write_rows(out, "%.6g,%.6g\n", np.array(a), np.array(b))
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


def test_parser_is_built_once():
    cli.build_parser.cache_clear()
    assert main(["efficiency"]) == 0 and main(["efficiency", "--preset", "p1"]) == 0
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_simulate_invalid_sb1_tolerance_exits_2(capsys, tol):
    assert main(["simulate", "--protocol", "p1", "--rounds", "1000",
                 "--sb1-tolerance", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sb1 tolerance must be >= 0")
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
    # A run's cost does not grow with --rounds, up to the int64 limit, and
    # at the smallest QBER, whose 1074 binary digits the flips compare.
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


@pytest.mark.parametrize("name,argv", [
    ("curves_upper.csv", ["curves", "--kind", "upper"]),
    ("curves_lower.csv", ["curves", "--kind", "lower"]),
    ("curves_upper_mu4_0.csv", ["curves", "--kind", "upper", "--mu4-override", "0"]),
    ("thresholds.txt", ["thresholds"]),
    ("thresholds_mu4_0.txt", ["thresholds", "--mu4-override", "0.0"]),
])
def test_bound_outputs_match_golden_files(capsys, name, argv):
    # The bound surfaces on the default grid and the thresholds table, byte
    # for byte, manifest included: the default mu4 (closed-form Holevo term)
    # and mu4 = 0 (batched 4x4 eigvalsh) alike.
    assert main(argv) == 0
    with open(os.path.join(_GOLDEN, name), "rb") as expected:
        assert capsys.readouterr().out.encode() == expected.read()


def test_cli_import_leaves_out_fractions():
    # fractions (and decimal, which it imports) load only for `efficiency`.
    package_dir = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, threepass.cli; print('fractions' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": package_dir}, check=True)
    assert result.stdout == "False\n"


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
    assert err.startswith("error: --step-km must be positive")
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
    assert err.startswith("error: ") and "finite" in err
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
    assert captured.err.startswith("error: efficiency inputs need 0 < q_t < inf")
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
    "thresholds": {"--tol": _number(1e-9, 1e-2), "--mu4-override": _number(0.0, 0.1),
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


@given(argv=_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        data = [line for line in out.getvalue().splitlines()
                if line and not line.startswith("#")]
        assert data == [], (argv, err.getvalue())

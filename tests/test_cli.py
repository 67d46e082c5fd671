import os
import time

import pytest

from threepass.cli import main

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


def test_thresholds_check_exit_code(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--check", "--out", str(out)]) == 1


def test_thresholds_loose_tolerance_runs(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--tol", "1e-4", "--out", str(out)]) == 0
    assert "sb1," in _read(out)


@pytest.mark.parametrize("tol,message", [
    ("nan", "positive"), ("0", "positive"), ("-1e-6", "positive"), ("inf", "positive"),
    # At or above the bracket width the bisection would stop at once and
    # print the bracket midpoint.
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
    assert "non-default mu4" in text


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
    (["--kind", "lower", "--mu4-override", "0.05"], "error: mu4 must lie in [0, e=0.0], got 0.05"),
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
    # The q = 1.025 row fails after earlier rows were written: the temp file
    # holding them is removed and the old CSV stays as it was.
    out = tmp_path / "curves.csv"
    out.write_text("old\n", encoding="utf-8")
    assert main(["curves", "--kind", "upper", "--q-stop", "1.5", "--e-step", "0.1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: q must lie in [0, 1]")
    assert _read(out) == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]


def test_csv_replaces_target_and_writes_non_regular_files_directly(tmp_path):
    out = tmp_path / "curves.csv"
    out.write_text("old\n", encoding="utf-8")
    args = ["curves", "--kind", "sb1", "--e-stop", "0.1", "--e-step", "0.05"]
    assert main(args + ["--out", str(out)]) == 0
    assert _read(out).splitlines()[-1].startswith("0.1,")
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]
    assert main(args + ["--out", os.devnull]) == 0


def test_curves_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curves", "--kind", "sifted", "--e-start", "0", "--e-stop", "0.1",
            "--e-step", "0.01"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)


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
            "--seed", "11", "--workers", "3"]
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
    assert "seed/workers:            123/1" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_simulate_invalid_sb1_tolerance_exits_2(capsys, tol):
    assert main(["simulate", "--protocol", "p1", "--rounds", "1000",
                 "--sb1-tolerance", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sb1 tolerance must be >= 0")
    assert captured.out == ""


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
    assert main(["pns", "--attack", "pns", "--alpha", "0", "--mu", "0.1"]) == 2


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

"""Acceptance suite: every release criterion, one test each, stated tolerances.

Each test prints one line ``ACCEPTANCE <id> ... PASS|FAIL``; run with
``pytest -rA`` to see the lines for passing tests too.

Three reference values are asserted exactly as published even though the
defining formulas provably do not attain them (the computed values are shown
in the failure messages).  Those tests are expected to fail and are left
failing on purpose rather than weakened:

* criterion 1c: sifted threshold, published 0.0316, formula root 0.02297
* criterion 1d: sifted threshold with the bit-parity announcement,
  published 0.15, formula root 0.04852
* criterion 2b: collective upper bound, published 0.114, information-margin
  crossing 0.12014 (the published closed form itself is a sum of two
  nonnegative terms and has no crossing at all)
"""

import numpy as np
import pytest

from threepass.cli import main as cli_main
from threepass.paper import FIGURES
from threepass.pns import (
    critical_distance,
    eve_info_irud,
    eve_info_pns,
    numerator_pns,
    unambiguous_info,
)
from threepass.protocol import (
    TABLE1_BRANCHES,
    Eavesdropper,
    ProtocolId,
    SimulationConfig,
    run_simulation,
)
from threepass.qmath import (
    bell_weights,
    binary_entropy,
    eve_state,
    reconditioned_entropy,
    spectral_entropy,
)
from threepass.secrate import (
    EFFICIENCY_PRESETS,
    cabello_efficiency,
    find_threshold,
    key_rate_sb1,
    key_rate_sifted,
    lower_bound_rate,
    lower_bound_threshold,
    upper_bound_rate,
    upper_bound_threshold,
)
from enum_oracle import oracle_stats

SEED = 2024
ROUNDS = 1_000_000


def _report(cid: str, text: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {cid:3s} {text:58s} {status}{suffix}")


def _check(cid: str, text: str, ok: bool, detail: str = "") -> None:
    _report(cid, text, ok, detail)
    assert ok, f"{cid}: {text} -- {detail}"


def _threshold(fn) -> float:
    return find_threshold(fn, 1e-4, 0.45, 1e-6)


# --- criterion 1: closed-form threshold reproduction ------------------------

def test_c1a_return_pass_threshold():
    got = _threshold(lambda e: key_rate_sb1(e, False))
    _check("1a", "return-pass threshold = 0.0314 +- 5e-4", abs(got - 0.0314) <= 5e-4,
           f"computed {got:.6f}")


def test_c1b_return_pass_threshold_announced():
    got = _threshold(lambda e: key_rate_sb1(e, True))
    _check("1b", "return-pass threshold (Y) = 0.0617 +- 5e-4",
           abs(got - 0.0617) <= 5e-4, f"computed {got:.6f}")


def test_c1c_sifted_threshold():
    got = _threshold(lambda e: key_rate_sifted(e, False))
    _check("1c", "sifted threshold = 0.0316 +- 5e-4", abs(got - 0.0316) <= 5e-4,
           f"published 0.0316 is not a root of the defining rate; computed {got:.6f}")


def test_c1d_sifted_threshold_announced():
    got = _threshold(lambda e: key_rate_sifted(e, True))
    _check("1d", "sifted threshold (X) = 0.15 +- 5e-3", abs(got - 0.15) <= 5e-3,
           f"published 0.15 is not a root of the defining rate; computed {got:.6f}")


# --- criterion 2: collective-attack bounds ----------------------------------

def test_c2a_lower_bound_threshold():
    got = lower_bound_threshold()
    _check("2a", "lower-bound threshold = 0.124 +- 2e-3", abs(got - 0.124) <= 2e-3,
           f"computed {got:.6f} as q -> 1/2")


def test_c2b_upper_bound_threshold():
    got = upper_bound_threshold()
    _check("2b", "upper-bound threshold = 0.114 +- 2e-3", abs(got - 0.114) <= 2e-3,
           f"published form has no zero; information-margin crossing {got:.6f}")


# --- criterion 3: critical distance, storage attack -------------------------

def test_c3_pns_critical_distance():
    l_c, delta_c = critical_distance(0.25, 0.1, numerator_pns(0.1), 400.0)
    ok_l = abs(l_c - 154.5) <= 1.0
    ok_d = abs(delta_c - 38.625) <= 0.1
    below = all(eve_info_pns(0.25, float(l), 0.1) < 0.01
                for l in np.linspace(0.0, 70.0, 71))
    _check("3", "storage attack: l_c=154.5+-1 km, delta_c=38.625+-0.1 dB, "
           "info<0.01 to 70 km", ok_l and ok_d and below,
           f"l_c={l_c:.2f} delta_c={delta_c:.4f}")


# --- criterion 4: discrimination attack -------------------------------------

def test_c4a_irud_monotone():
    grid = [eve_info_irud(0.25, float(l), 0.2)
            for l in np.linspace(0.0, 500.0, 101)]
    _check("4a", "discrimination-attack information increases with distance",
           all(a < b for a, b in zip(grid, grid[1:])))


def test_c4b_conclusive_information_formula():
    # 40-digit evaluation of 1 - h((1 + sqrt(1 - 2^-3))/2); the published
    # rounding 0.794231 differs from the formula by 6e-6.
    got = unambiguous_info(3, 1.0 / 2.0 ** 0.5)
    _check("4b", "I(3, 1/sqrt(2)) = 0.7942369 +- 1e-6",
           abs(got - 0.7942369457243099) <= 1e-6, f"computed {got:.9f}")


def test_c4c_both_crossings_reported(capsys):
    code = cli_main(["pns", "--attack", "irud", "--alpha", "0.25", "--mu", "0.2"])
    out = capsys.readouterr().out
    ok = (code == 0 and "339.4" in out and "302.8" in out and "75.7" in out
          and "deviation:" in out)
    with capsys.disabled():
        _check("4c", "computed and published crossings both reported", ok)


# --- criterion 5: Monte-Carlo fidelity at zero noise ------------------------

def test_c5_monte_carlo_branch_fidelity():
    ok = True
    details = []
    rep1 = run_simulation(SimulationConfig(
        protocol=ProtocolId.P1, n_rounds=ROUNDS, rng_seed=SEED))
    rep2 = run_simulation(SimulationConfig(
        protocol=ProtocolId.P2, n_rounds=ROUNDS, rng_seed=SEED))
    for rep in (rep1, rep2):
        for (_, _, _, _, prob), count in zip(TABLE1_BRANCHES, rep.branch_counts):
            p = float(prob)
            sigma = (ROUNDS * p * (1.0 - p)) ** 0.5
            if abs(count - ROUNDS * p) > 3.0 * sigma:
                ok = False
                details.append(f"branch off by {abs(count - ROUNDS * p) / sigma:.2f} sigma")
        if rep.other_count != 0:
            ok = False
            details.append("off-table rounds at zero noise")
    sigma_sift = (0.75 * 0.25 / ROUNDS) ** 0.5
    if abs(rep1.sift_fraction - 0.75) > 3.0 * sigma_sift:
        ok = False
        details.append(f"p1 sift {rep1.sift_fraction}")
    if rep1.sifted_qber != 0.0:
        ok = False
        details.append(f"p1 qber {rep1.sifted_qber}")
    if rep2.sift_fraction != 1.0:
        ok = False
        details.append(f"p2 sift {rep2.sift_fraction}")
    sigma_q = ((1 / 16) * (15 / 16) / ROUNDS) ** 0.5
    if abs(rep2.sifted_qber - 1 / 16) > 3.0 * sigma_q:
        ok = False
        details.append(f"p2 qber {rep2.sifted_qber}")
    _check("5", "10^6 rounds: 28 branch frequencies, sift fractions, QBERs",
           ok, "; ".join(details) or f"seed {SEED}")


# --- criterion 6: entropy identities ----------------------------------------

def test_c6_entropy_identities():
    ok = True
    worst = 0.0
    for e in np.linspace(0.005, 0.495, 100):
        e = float(e)
        for frac in np.linspace(0.01, 0.99, 100):
            mu4 = float(frac) * e
            lhs = reconditioned_entropy(e, mu4)
            rhs = spectral_entropy(bell_weights(e, mu4)) - binary_entropy(e)
            worst = max(worst, abs(lhs - rhs))
    if worst > 1e-9:
        ok = False
    # grid-search maximizer of the mixture entropy sits at e^2
    for e in (0.05, 0.15, 0.3):
        grid = np.linspace(0.0, e, 3001)
        vals = [spectral_entropy(bell_weights(e, float(m))) for m in grid]
        best = float(grid[int(np.argmax(vals))])
        step = float(grid[1] - grid[0])
        if abs(best - e * e) > step:
            ok = False
        if abs(spectral_entropy(bell_weights(e, e * e))
               - 2.0 * binary_entropy(e)) > 1e-9:
            ok = False
    _check("6", "conditioning identity on 100x100 grid; maximizer at e^2",
           ok, f"worst identity residual {worst:.2e}")


# --- criterion 7: eavesdropper state structure -------------------------------

def test_c7_eve_state_structure():
    ok = True
    for e in (0.05, 0.15, 0.3, 0.45):
        for frac in (0.0, 0.3, 1.0):
            mu4 = frac * e
            mu = bell_weights(e, mu4)
            for k in (0, 1):
                s = (-1.0) ** k
                expected = np.zeros((4, 4))
                expected[0, 0], expected[1, 1] = mu[0], mu[1]
                expected[2, 2], expected[3, 3] = mu[2], mu[3]
                expected[0, 1] = expected[1, 0] = s * np.sqrt(mu[0] * mu[1])
                expected[2, 3] = expected[3, 2] = s * np.sqrt(mu[2] * mu[3])
                got = eve_state(mu, k).matrix
                if not np.allclose(got, expected, atol=1e-12, rtol=0.0):
                    ok = False
            e0 = np.linalg.eigvalsh(eve_state(mu, 0).matrix)
            e1 = np.linalg.eigvalsh(eve_state(mu, 1).matrix)
            if not np.allclose(e0, e1, atol=1e-12):
                ok = False
    for e in (0.05, 0.2):
        for q in np.linspace(0.0, 1.0, 11):
            q = float(q)
            if abs(lower_bound_rate(e, q) - lower_bound_rate(e, 1 - q)) > 1e-9:
                ok = False
            if abs(upper_bound_rate(e, q) - upper_bound_rate(e, 1 - q)) > 1e-9:
                ok = False
    _check("7", "conditional-state blocks exact; isospectral; q<->1-q symmetric", ok)


# --- criterion 8: efficiency -------------------------------------------------

def test_c8_efficiency_presets():
    values = {name: round(cabello_efficiency(inp), 4)
              for name, inp in EFFICIENCY_PRESETS.items()}
    ok = values == {"p1": 0.2069, "p2": 0.25, "sarg04": 0.125}
    _check("8", "efficiency presets 0.2069 / 0.25 / 0.125 to four decimals",
           ok, str(values))


# --- criterion 9: eavesdropping detectability --------------------------------

def test_c9_intercept_resend_detectable():
    oracle = oracle_stats(eve=True)
    ok = True
    details = []
    for pid, sift_exp, qber_exp in (
        (ProtocolId.P1, oracle.p1_sift, oracle.p1_qber),
        (ProtocolId.P2, oracle.p2_sift, oracle.p2_qber),
    ):
        rep = run_simulation(SimulationConfig(
            protocol=pid, n_rounds=ROUNDS, rng_seed=SEED,
            eve=Eavesdropper.INTERCEPT_RESEND))
        deviation = abs(rep.sb1_orthogonal_fraction - 0.25)
        if not (deviation > 0.0617 and rep.sifted_qber > 0.15):
            ok = False
            details.append(f"{pid.value} below detection thresholds")
        if rep.sb1_check_passed:
            ok = False
            details.append(f"{pid.value} passed the abort test under attack")
        for got, exp, m in (
            (rep.sift_fraction, float(sift_exp), ROUNDS),
            (rep.sifted_qber, float(qber_exp), rep.sifted_count),
            (rep.sb1_orthogonal_fraction, float(oracle.orth_fraction), ROUNDS),
        ):
            sigma = (exp * (1.0 - exp) / m) ** 0.5
            if abs(got - exp) > 3.0 * sigma:
                ok = False
                details.append(f"{pid.value} off oracle by {abs(got - exp) / sigma:.2f} sigma")
    expect = (f"oracle: orth 7/16, qber {float(oracle.p1_qber):.4f}"
              f"/{float(oracle.p2_qber):.4f}")
    _check("9", "intercept-resend exceeds 6.17%/15% thresholds, matches oracle",
           ok, "; ".join(details) or expect)


# --- criterion 10: determinism ------------------------------------------------

def test_c10_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=100_000,
                                 channel_qber=0.02, rng_seed=SEED)
    rep_a = run_simulation(config)
    rep_b = run_simulation(config)
    ok = rep_a == rep_b and rep_a.to_text() == rep_b.to_text()

    files = []
    for name in ("a.csv", "b.csv"):
        hist = tmp_path / name
        code = cli_main(["simulate", "--protocol", "p2", "--rounds", "50000",
                         "--qber", "0.01", "--seed", str(SEED),
                         "--histogram", str(hist)])
        files.append(capsys.readouterr().out + hist.read_text(encoding="utf-8"))
        ok = ok and code == 0
    ok = ok and files[0] == files[1]
    with capsys.disabled():
        _check("10", "same seed gives byte-identical outputs", ok)


# --- the table that every --check reads --------------------------------------

def test_paper_table_holds_each_criterion_literal():
    # (criterion, value, band) as the tests above assert them, so the table
    # cannot loosen a criterion; criterion 8's four decimals are a 5e-5 band,
    # and 4c's published crossing is reported, not checked.
    assert {key: fig[:3] for key, fig in FIGURES.items()} == {
        "sb1": ("1a", 0.0314, 5e-4),
        "sb1_announced": ("1b", 0.0617, 5e-4),
        "sifted": ("1c", 0.0316, 5e-4),
        "sifted_announced": ("1d", 0.15, 5e-3),
        "lower_bound": ("2a", 0.124, 2e-3),
        "upper_bound": ("2b", 0.114, 2e-3),
        "pns_l_c": ("3", 154.5, 1.0),
        "pns_delta_c": ("3", 38.625, 0.1),
        "irud_l_c": ("4c", 302.8, None),
        "irud_delta_c": ("4c", 75.7, None),
        "i3": ("4b", 0.7942369457243099, 1e-6),
        "p1": ("8", 0.2069, 5e-5),
        "p2": ("8", 0.25, 5e-5),
        "sarg04": ("8", 0.125, 5e-5),
    }


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-rA"]))

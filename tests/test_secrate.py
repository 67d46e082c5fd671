import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import at_harvested_literals
from hypothesis import given, strategies as st

from threepass.qmath import (
    bell_weights,
    binary_entropy,
    eve_state,
    maximizing_mu4,
    von_neumann_entropy,
)
from threepass.secrate import (
    EFFICIENCY_PRESETS,
    THRESHOLD_BRACKET,
    THRESHOLD_TOL,
    BracketError,
    EfficiencyInputs,
    _log2_slope,
    bound_threshold,
    cabello_efficiency,
    find_threshold,
    golden_section_max,
    holevo_chi,
    holevo_chi_limit,
    key_rate_sb1,
    key_rate_sifted,
    lower_bound_limit,
    lower_bound_rate,
    lower_bound_threshold,
    upper_bound_crossing,
    upper_bound_limit,
    upper_bound_rate,
    upper_bound_threshold,
)
from threepass import paper, protocol
from threepass.cli import main

# 40-digit evaluations of the defining expressions, frozen.
ROOT_SB1 = 0.0311244603047894
ROOT_SB1_ANNOUNCED = 0.0614904700787242
ROOT_SIFTED = 0.0229698402967669
ROOT_SIFTED_ANNOUNCED = 0.0485152401087486
RATE_SIFTED_AT_ZERO = 0.34997757835164578
LOWER_AT_0P05_Q0 = 0.42720608576808774
LOWER_AT_0P1_Q0P1 = 0.06269436857898337
CHI_AT_0P1_Q0P1 = 0.26934859765218252
UPPER_AT_0P1_Q0P1 = 0.58927155192390268
CROSSING_AT_0P1_Q0P1 = 0.050574356619537638
# Roots of the bound rates at q = Q_NEAR_HALF, where the bound thresholds
# were taken before they became the q -> 1/2 limit: the e values
# find_threshold returns at THRESHOLD_TOL, frozen bit for bit.  Each lies within
# 2e-9 of the root of its rate; near q = 1/2 the rate is O((1 - 2q)**2), so
# the last digits of a root are rounding noise of the rate's arithmetic.
Q_NEAR_HALF = 0.4999
LOWER_THRESHOLD = 0.12412024926202601
UPPER_THRESHOLD = 0.1201374780908984
LOWER_THRESHOLD_MU4_0 = 0.1298174783786918
UPPER_THRESHOLD_MU4_0 = 0.11552932223839439
# The upper root of the batched 4x4 eigvalsh path at mu4 = e**2.
UPPER_THRESHOLD_4X4 = 0.12013747888227343
# The same roots to 40 digits: the defining matrices (the 4x4 rho_q, the 2x2
# blocks of Eve's states) in 60-digit arithmetic, solved to 1e-60.
ROOTS_40 = {
    "lower": 0.1241202479891166711595988976685597544124,
    "upper": 0.1201374780498586161961997395933908602534,
    "lower_mu4_0": 0.1298174785419772992548484479677304475314,
    "upper_mu4_0": 0.1155293227357352898487183783334683235970,
}
# The bound thresholds: as q -> 1/2, rate(e, q) = (1 - 2q)**2 R(e) + O((1 - 2q)**4),
# and these are the roots of R, from 50-digit evaluations of the
# perturbation series, frozen.  Each lies 1.9-2.6e-10 above its ROOTS_40 value.
LIMIT_ROOTS = {
    "lower": 0.12412024820044399,
    "upper": 0.12013747825433194,
    "lower_mu4_0": 0.12981747879941774,
    "upper_mu4_0": 0.11552932292825196,
}
LIMITS = {lower_bound_rate: lower_bound_limit, upper_bound_crossing: upper_bound_limit}


def _bound_name(rate, mu4):
    """The key of a bound rate at mu4 (None or 0) in ROOTS_40 and LIMIT_ROOTS."""
    return ("lower" if rate is lower_bound_rate else "upper") + ("" if mu4 is None else "_mu4_0")


def _root_near_half(rate, mu4=None):
    """find_threshold's root of rate(., Q_NEAR_HALF, mu4) at THRESHOLD_TOL."""
    return find_threshold(lambda e: rate(e, Q_NEAR_HALF, mu4), 1e-4, 0.45, THRESHOLD_TOL)


def test_key_rate_sb1_limit_at_zero():
    assert key_rate_sb1(0.0, False) == pytest.approx(0.5, abs=1e-12)
    assert key_rate_sb1(0.0, True) == pytest.approx(0.5, abs=1e-12)


def test_key_rate_sb1_roots():
    assert find_threshold(lambda e: key_rate_sb1(e, False), 1e-4, 0.45, 1e-9) == \
        pytest.approx(ROOT_SB1, abs=1e-7)
    assert find_threshold(lambda e: key_rate_sb1(e, True), 1e-4, 0.45, 1e-9) == \
        pytest.approx(ROOT_SB1_ANNOUNCED, abs=1e-7)


def test_key_rate_sifted_value_at_zero():
    assert key_rate_sifted(0.0, False) == pytest.approx(RATE_SIFTED_AT_ZERO, abs=1e-9)
    assert key_rate_sifted(0.0, False) == pytest.approx(
        1 - binary_entropy(1 / 6), abs=1e-12)


def test_key_rate_sifted_roots():
    assert find_threshold(lambda e: key_rate_sifted(e, False), 1e-4, 0.45, 1e-9) == \
        pytest.approx(ROOT_SIFTED, abs=1e-7)
    assert find_threshold(lambda e: key_rate_sifted(e, True), 1e-4, 0.45, 1e-9) == \
        pytest.approx(ROOT_SIFTED_ANNOUNCED, abs=1e-7)


def test_key_rates_monotone_decreasing():
    for fn, root in ((lambda e: key_rate_sb1(e, False), ROOT_SB1),
                     (lambda e: key_rate_sb1(e, True), ROOT_SB1_ANNOUNCED),
                     (lambda e: key_rate_sifted(e, False), ROOT_SIFTED),
                     (lambda e: key_rate_sifted(e, True), ROOT_SIFTED_ANNOUNCED)):
        grid = np.linspace(1e-3, root + 0.1, 60)
        vals = [fn(float(e)) for e in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_announcement_never_lowers_rate():
    for e in np.linspace(0.0, 0.5, 26):
        e = float(e)
        assert key_rate_sb1(e, True) >= key_rate_sb1(e, False) - 1e-12
        assert key_rate_sifted(e, True) >= key_rate_sifted(e, False) - 1e-12
        # the gap is exactly h(e)
        assert key_rate_sb1(e, True) - key_rate_sb1(e, False) == pytest.approx(
            binary_entropy(e), abs=1e-12)


def test_both_sifted_rates_negative_above_15_percent():
    for e in np.linspace(0.15, 0.45, 13):
        assert key_rate_sifted(float(e), False) < 0
        assert key_rate_sifted(float(e), True) < 0


@pytest.mark.parametrize("announce", [False, True])
@pytest.mark.parametrize("fn", [key_rate_sb1, key_rate_sifted])
def test_key_rates_take_arrays(fn, announce):
    # A float takes the scalar route: the same bits as the array route, at
    # the ends, subnormal and tiny e, 1/2 less one ulp and on dense grids.
    e = np.concatenate([[0.0, 5e-324, 1e-300, 0.25, 0.5 - 2.0**-54, 0.5],
                        np.linspace(0.0, 0.5, 20001), np.geomspace(1e-320, 0.5, 2001),
                        0.5 - np.geomspace(1e-17, 0.5, 2001)])
    scalar = [fn(x, announce) for x in e.tolist()]
    assert [x.hex() for x in fn(e, announce).tolist()] == [x.hex() for x in scalar]
    assert {type(x) for x in scalar} == {float}
    assert type(fn(np.float64(0.1), announce)) is float
    assert fn(np.float64(0.1), announce) == fn(0.1, announce)
    with pytest.raises(ValueError, match=r"QBER must lie in \[0, 0.5\], got 0.6"):
        fn(np.array([0.1, 0.6]), announce)


def test_find_threshold_linear():
    assert find_threshold(lambda e: 0.1 - e, 0.0, 0.4, 1e-9) == \
        pytest.approx(0.1, abs=1e-8)


def test_find_threshold_stops_at_float_spacing():
    root = find_threshold(lambda e: 0.1 - e, 0.0, 0.4, tol=1e-300)
    assert root == pytest.approx(0.1, abs=1e-16)


def test_find_threshold_bracket_error():
    with pytest.raises(BracketError):
        find_threshold(lambda e: 1.0, 0.0, 0.4)
    with pytest.raises(BracketError):
        find_threshold(lambda e: -1.0, 0.0, 0.4)


@pytest.mark.parametrize("tol,message", [
    (math.nan, "lie in (0, inf), got nan"), (0.0, "lie in (0, inf), got 0.0"),
    (-1e-6, "lie in (0, inf), got -1e-06"), (math.inf, "lie in (0, inf), got inf"),
    # At or above the bracket width the search would stop at once and
    # return a point of the unsearched bracket.
    (1.0, "be below the bracket width"),
], ids=["nan", "0", "-1e-6", "inf", "1"])
def test_find_threshold_refuses_invalid_tol(tol, message):
    with pytest.raises(ValueError) as exc:
        find_threshold(lambda e: key_rate_sb1(e, False), *THRESHOLD_BRACKET, tol)
    assert type(exc.value) is ValueError
    assert str(exc.value).startswith(f"tol must {message}")


@pytest.mark.parametrize("lo,hi,err", [
    (-math.inf, 1.0, "lo must lie in (-inf, inf), got -inf"),
    (-math.inf, math.inf, "lo must lie in (-inf, inf), got -inf"),
    (0.0, math.inf, "hi must lie in (-inf, inf), got inf"),
    (math.nan, 1.0, "lo must lie in (-inf, inf), got nan"),
    (0.0, math.nan, "hi must lie in (-inf, inf), got nan"),
])
def test_find_threshold_refuses_a_bracket_end_that_is_not_finite(lo, hi, err):
    calls = []
    with pytest.raises(ValueError) as exc:
        find_threshold(lambda e: calls.append(e) or -e, lo, hi)
    assert str(exc.value) == err and calls == []


def test_lower_bound_rate_zero_at_half():
    for e in (0.01, 0.1, 0.3):
        assert lower_bound_rate(e, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_rate_no_preprocessing_identity():
    # With q = 0 the conditional states are pure-block rank-2 and the rate
    # collapses to 1 - 2 h(e): an independent closed form.
    for e in (0.02, 0.05, 0.11, 0.2):
        assert lower_bound_rate(e, 0.0) == pytest.approx(
            1 - 2 * binary_entropy(e), abs=1e-9)
    assert lower_bound_rate(0.05, 0.0) == pytest.approx(LOWER_AT_0P05_Q0, abs=1e-9)


def test_lower_bound_rate_frozen_value():
    assert lower_bound_rate(0.1, 0.1) == pytest.approx(LOWER_AT_0P1_Q0P1, abs=1e-9)


@given(
    st.floats(min_value=1e-3, max_value=0.45, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_bound_rates_q_symmetry(e, q):
    assert lower_bound_rate(e, q) == pytest.approx(
        lower_bound_rate(e, 1.0 - q), abs=1e-9)
    assert upper_bound_rate(e, q) == pytest.approx(
        upper_bound_rate(e, 1.0 - q), abs=1e-9)


def test_holevo_chi_vanishes_at_zero_error():
    for q in (0.0, 0.2, 0.5):
        assert holevo_chi(0.0, q, 0.0) == pytest.approx(0.0, abs=1e-12)
    # The closed form at the default mu4 gives exactly 0.
    assert holevo_chi(0.0, np.linspace(0.0, 1.0, 101)).tolist() == [0.0] * 101


def test_holevo_chi_vanishes_at_balanced_flip():
    # rho_(1/2) is the average state: exactly 0, no rounding noise in the
    # q = 1/2 rows of a curve.
    for mu4 in (None, 0.0):
        for e in (0.0, 1e-4, 0.03, 0.05, 0.1, 0.15, 0.3, 0.5):
            assert holevo_chi(e, 0.5, mu4) == 0.0
            assert upper_bound_crossing(e, 0.5, mu4) == 0.0
    assert holevo_chi(np.linspace(0.0, 0.5, 101), 0.5).tolist() == [0.0] * 101


def test_holevo_chi_exactly_zero_without_block_coupling():
    # mu4 = e leaves w1 = 0, and e = 1/2 with mu4 = 0 leaves w0 = w3 = 0:
    # either way rho_q has no entries coupling the blocks and is the average.
    for q in (0.0, 0.1, 0.325, 0.4, 0.9):
        assert holevo_chi(0.5, q, 0.0) == 0.0
        assert holevo_chi(0.2, q, 0.2) == 0.0


def test_holevo_chi_nonnegative():
    for e in np.linspace(0.0, 0.45, 10):
        for q in np.linspace(0.0, 1.0, 9):
            assert holevo_chi(float(e), float(q)) >= -1e-12


def test_holevo_chi_closed_form_matches_4x4_path():
    # The default mu4 takes the closed form; mu4 = e**2 given explicitly
    # takes the batched 4x4 eigvalsh path.  Their eigenvalue floors differ,
    # which moves chi by at most a few 1e-13.
    rng = np.random.default_rng(20051)
    e = rng.uniform(0.0, 0.5, 10**4)
    q = rng.uniform(0.0, 1.0, 10**4)
    assert np.max(np.abs(holevo_chi(e, q) - holevo_chi(e, q, e * e))) <= 1e-12
    # Edges, q = 1/6 at e = 1/2, and the degenerate point P+ = P- at e = 1/2
    # (u = 4/9, where rho_q has a double eigenvalue 1/9).
    e = np.array([0.0, 1e-12, 0.5])[:, None]
    q = np.array([0.0, 0.5, 1.0, 1.0 / 6.0, (1.0 - np.sqrt(5.0) / 3.0) / 2.0])[None, :]
    assert np.max(np.abs(holevo_chi(e, q) - holevo_chi(e, q, e * e))) <= 1e-12
    assert type(holevo_chi(np.array(0.1), np.array(0.3))) is float


class _Eigensolve(Exception):
    """Raised by a patched np.linalg.eigvalsh."""


def test_default_mu4_upper_bound_makes_no_eigensolve(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise _Eigensolve

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    e = np.linspace(0.0, 0.5, 51)[:, None]
    q = np.linspace(0.0, 1.0, 21)[None, :]
    assert holevo_chi(e, q).shape == (51, 21)
    assert _root_near_half(upper_bound_crossing) == UPPER_THRESHOLD
    assert main(["curves", "--kind", "upper"]) == 0
    assert capsys.readouterr().out.count("\n") == 1294
    # A given mu4 still takes the 4x4 path; its q -> 1/2 limit does not.
    with pytest.raises(_Eigensolve):
        holevo_chi(e, q, mu4=0.0)
    assert abs(upper_bound_threshold() - LIMIT_ROOTS["upper"]) <= THRESHOLD_TOL
    assert abs(upper_bound_threshold(0.0) - LIMIT_ROOTS["upper_mu4_0"]) <= THRESHOLD_TOL


def test_holevo_chi_frozen_value():
    assert holevo_chi(0.1, 0.1) == pytest.approx(CHI_AT_0P1_Q0P1, abs=1e-9)


def test_upper_bound_rate_decomposition():
    assert upper_bound_rate(0.1, 0.1) == pytest.approx(UPPER_AT_0P1_Q0P1, abs=1e-9)
    assert upper_bound_crossing(0.1, 0.1) == pytest.approx(
        CROSSING_AT_0P1_Q0P1, abs=1e-9)
    # Published form = chi + (1 - h); crossing = (1 - h) - chi.
    e, q = 0.17, 0.23
    h = binary_entropy(q * (1 - e) + (1 - q) * e)
    assert upper_bound_rate(e, q) == pytest.approx(
        holevo_chi(e, q) + 1 - h, abs=1e-12)
    assert upper_bound_crossing(e, q) == pytest.approx(
        (1 - h) - holevo_chi(e, q), abs=1e-12)


def test_upper_bound_rate_is_nonnegative_everywhere():
    # Sum of a Holevo quantity and a mutual information: no zero crossing
    # in e exists, which is why thresholds use upper_bound_crossing.
    for e in np.linspace(0.0, 0.45, 10):
        for q in np.linspace(0.0, 0.5, 6):
            assert upper_bound_rate(float(e), float(q)) >= -1e-12


def test_upper_bound_rate_at_balanced_flip_equals_chi():
    for e in (0.05, 0.2):
        assert upper_bound_rate(e, 0.5) == pytest.approx(
            holevo_chi(e, 0.5), abs=1e-12)


def test_bound_thresholds():
    # No ordering between the two is asserted: the published pair is already
    # inverted (0.114 < 0.124) relative to the usual upper/lower reading.
    e_low = lower_bound_threshold()
    assert type(e_low) is float
    assert e_low == pytest.approx(0.124120, abs=2e-4)
    e_up = upper_bound_threshold()
    assert e_up == pytest.approx(0.120137, abs=2e-4)


def test_bound_threshold_mu4_override_changes_result():
    e_default = lower_bound_threshold()
    e_zero = lower_bound_threshold(mu4=0.0)
    assert e_zero != pytest.approx(e_default, abs=1e-3)


# The pre-processing flip probability q is optimized over [0, 1/2] by golden
# section: the q <-> 1-q symmetry of both bound rates makes the upper half
# redundant.
def test_optimize_preprocessing_positive_below_threshold():
    q_star, r_star = golden_section_max(lambda q: lower_bound_rate(0.05, q), 0.0, 0.5)
    assert r_star > 0
    # golden-section result beats or matches a dense grid
    grid_best = max(lower_bound_rate(0.05, float(q)) for q in np.linspace(0, 0.5, 501))
    assert r_star >= grid_best - 1e-6
    # still positive anywhere below the published upper figure
    for e in (0.1, 0.11, 0.113):
        assert golden_section_max(lambda q: lower_bound_rate(e, q), 0.0, 0.5)[1] > 0


def test_optimize_preprocessing_negative_above_threshold():
    _, r_star = golden_section_max(lambda q: lower_bound_rate(0.2, q), 0.0, 0.5)
    assert r_star < 0
    grid = [lower_bound_rate(0.2, float(q)) for q in np.linspace(0, 0.4999, 501)]
    assert max(grid) < 0


def test_optimize_preprocessing_constant_function():
    q_star, r_star = golden_section_max(lambda q: 0.375, 0.0, 0.5)
    assert r_star == 0.375
    assert 0.0 <= q_star <= 0.5


def test_golden_section_max_quadratic():
    x, fx = golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-8)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-10)


def test_rate_domain_errors():
    with pytest.raises(ValueError):
        key_rate_sb1(0.6)
    with pytest.raises(ValueError):
        key_rate_sifted(-0.1)
    with pytest.raises(ValueError):
        lower_bound_rate(0.1, 1.5)
    with pytest.raises(ValueError):
        holevo_chi(0.1, -0.2)


def test_cabello_efficiency_presets():
    assert cabello_efficiency(EFFICIENCY_PRESETS["p1"]) == pytest.approx(
        0.75 / 3.625, abs=1e-12)
    assert round(cabello_efficiency(EFFICIENCY_PRESETS["p1"]), 4) == 0.2069
    assert cabello_efficiency(EFFICIENCY_PRESETS["p2"]) == pytest.approx(0.25, abs=1e-12)
    assert cabello_efficiency(EFFICIENCY_PRESETS["sarg04"]) == pytest.approx(
        0.125, abs=1e-12)


def test_efficiency_presets_match_the_noiseless_sift_tables():
    # P1's and P2's b_s are the noiseless fractions of rounds kept without
    # error, 3/4 and 15/16, read from the sift tables and the exact law.
    law = np.asarray(protocol.code_distribution(0.0, False), dtype=np.float64)
    patterns = law[list(protocol._PATTERN_CODES)]
    for pid in protocol.ProtocolId:
        kept_right = np.asarray(protocol._KEPT[pid]) & ~np.asarray(protocol._ERR[pid])
        assert EFFICIENCY_PRESETS[pid.value].b_s == patterns @ kept_right


def test_cabello_efficiency_custom():
    assert cabello_efficiency(EfficiencyInputs(1.0, 1.0, 1.0)) == pytest.approx(0.5)
    assert cabello_efficiency(EfficiencyInputs(0.25, 1.0, 1.0)) == pytest.approx(0.125)


def test_efficiency_inputs_validation():
    with pytest.raises(ValueError):
        EfficiencyInputs(b_s=0.5, q_t=0.0, b_t=1.0)
    with pytest.raises(ValueError):
        EfficiencyInputs(b_s=-0.5, q_t=1.0, b_t=1.0)
    for bad in ({"b_s": float("nan")}, {"q_t": float("nan")}, {"b_t": float("nan")},
                {"b_s": float("inf")}, {"q_t": float("inf")}, {"b_t": float("inf")}):
        with pytest.raises(ValueError):
            EfficiencyInputs(**{"b_s": 1.0, "q_t": 1.0, "b_t": 1.0, **bad})


def _reference_mixture(e, mu4):
    return bell_weights(e, maximizing_mu4(e) if mu4 is None else mu4)


def _reference_lower(e, q, mu4):
    """Lower bound from the explicit 4x4 conditional states, one point at a time."""
    w = _reference_mixture(e, mu4)
    s0, s1 = eve_state(w, 0).matrix, eve_state(w, 1).matrix
    cond = (0.5 * von_neumann_entropy((1.0 - q) * s0 + q * s1)
            + 0.5 * von_neumann_entropy(q * s0 + (1.0 - q) * s1))
    unc = von_neumann_entropy(0.5 * (s0 + s1))
    return (cond - unc) - (binary_entropy(q * (1.0 - e) + (1.0 - q) * e) - 1.0)


def _reference_chi(e, q, mu4):
    """Holevo quantity from four explicit projectors and three unbatched eigvalsh."""
    r = np.sqrt(_reference_mixture(e, mu4))
    projectors = []
    for v in ((r[0], r[1], 0.0, 0.0), (r[0], -r[1], 0.0, 0.0),
              (r[0], r[1], r[2], r[3]), (-r[0], r[1], r[2], -r[3])):
        v = np.array(v) / np.linalg.norm(v)
        projectors.append(np.outer(v, v))
    p00, p11, p0p, p1m = projectors
    given_0, given_1 = (2.0 * p00 + p0p) / 3.0, (2.0 * p11 + p1m) / 3.0

    def entropy(m):
        lam = np.linalg.eigvalsh(m)
        return -sum(x * np.log2(x) for x in lam if x > 0.0)

    return (entropy((p00 + p11) / 3.0 + (p0p + p1m) / 6.0)
            - 0.5 * entropy((1.0 - q) * given_0 + q * given_1)
            - 0.5 * entropy(q * given_0 + (1.0 - q) * given_1))


_MU4_CHOICES = st.sampled_from([None, 0.0, 1 / 3, 1.0])  # None, or a fraction of e


@given(
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    _MU4_CHOICES,
)
@at_harvested_literals(e=0.1, q=0.3, mu4_frac=0.5)
def test_bound_rates_match_4x4_reference(e, q, mu4_frac):
    mu4 = None if mu4_frac is None else mu4_frac * e
    assert lower_bound_rate(e, q, mu4) == pytest.approx(_reference_lower(e, q, mu4), abs=1e-12)
    assert holevo_chi(e, q, mu4) == pytest.approx(_reference_chi(e, q, mu4), abs=1e-12)


# Ancilla vectors for the outcome pairs (0,0), (1,1), (0,+), (1,-): the sign
# pattern (0 drops a component) applied to sqrt(mu).
_OUTCOME_SIGNS = np.array([[1.0, 1.0, 0.0, 0.0],
                           [1.0, -1.0, 0.0, 0.0],
                           [1.0, 1.0, 1.0, 1.0],
                           [-1.0, 1.0, 1.0, -1.0]])


def _batched_reference_chi(e, q, mu4):
    """Holevo quantity from normalised ancilla vectors: the average state and
    rho_q built by einsum and solved by one stacked eigvalsh."""
    e, q = np.broadcast_arrays(np.asarray(e, dtype=float), np.asarray(q, dtype=float))
    weights = bell_weights(e, maximizing_mu4(e) if mu4 is None else mu4)
    vectors = _OUTCOME_SIGNS * np.sqrt(weights)[..., None, :]
    vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    p = 1.0 - q
    mix = np.stack([np.broadcast_to([1 / 3, 1 / 3, 1 / 6, 1 / 6], weights.shape),
                    np.stack([2.0 * p, 2.0 * q, p, q], axis=-1) / 3.0], axis=-2)
    states = np.einsum("...sk,...ki,...kj->...sij", mix, vectors, vectors)
    entropies = von_neumann_entropy(states)
    return entropies[..., 0] - entropies[..., 1]


@pytest.mark.parametrize("mu4_of_e", [lambda e: 0.0, lambda e: e * e, lambda e: e],
                         ids=["mu4=0", "mu4=e^2", "mu4=e"])
def test_holevo_chi_matches_batched_reference(mu4_of_e):
    e = np.array([0.0, 1e-4, 0.03, 0.1, 0.3, 0.5])[:, None]
    q = np.array([0.0, 0.1, 0.4999, 0.5, 0.9, 1.0])[None, :]
    mu4 = mu4_of_e(e)
    assert np.max(np.abs(holevo_chi(e, q, mu4) - _batched_reference_chi(e, q, mu4))) <= 1e-13


@pytest.mark.parametrize("fn", [lower_bound_rate, holevo_chi, upper_bound_rate,
                                upper_bound_crossing])
@pytest.mark.parametrize("mu4", [None, 0.0])
def test_bound_rates_take_arrays(fn, mu4):
    e = np.linspace(0.0, 0.3, 13)
    q = np.linspace(0.0, 1.0, 9)
    surface = fn(e[:, None], q[None, :], mu4)
    assert surface.shape == (13, 9)
    for i, ei in enumerate(e):
        for j, qj in enumerate(q):
            scalar = fn(float(ei), float(qj), mu4)
            assert type(scalar) is float
            assert surface[i, j] == pytest.approx(scalar, abs=1e-14)
    row = fn(e, 0.3, mu4)
    assert row.shape == (13,)
    assert row == pytest.approx([fn(float(ei), 0.3, mu4) for ei in e], abs=1e-14)


def test_bound_rates_validate_elementwise():
    e = np.array([0.1, 0.2])
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1\], got 1.5"):
        lower_bound_rate(e, np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match=r"QBER must lie in \[0, 0.5\], got 0.6"):
        holevo_chi(np.array([0.1, 0.6]), 0.3)
    with pytest.raises(ValueError, match=r"mu4 must lie in \[0, e=0.1\], got -0.05"):
        upper_bound_crossing(np.array([0.1, 0.01]), 0.3, -0.05)
    with pytest.raises(ValueError, match=r"mu4 must lie in \[0, e=0.1\], got nan"):
        lower_bound_rate(np.array([0.1, 0.01]), 0.3, float("nan"))


@pytest.mark.parametrize("fn", [lower_bound_rate, holevo_chi, upper_bound_crossing])
def test_bound_rates_read_mu4_above_e_as_e(fn):
    e = np.array([0.0, 0.01, 0.05, 0.2])
    assert fn(e, 0.3, 0.05).tolist() == fn(e, 0.3, np.array([0.0, 0.01, 0.05, 0.05])).tolist()


def _counted(rate_fn):
    """rate_fn and a one-element list that counts its calls."""
    calls = [0]

    def counted(e):
        calls[0] += 1
        return rate_fn(e)
    return counted, calls


@pytest.mark.parametrize("rate_fn,root", [
    (lambda e: key_rate_sb1(e, False), ROOT_SB1),
    (lambda e: key_rate_sb1(e, True), ROOT_SB1_ANNOUNCED),
    (lambda e: key_rate_sifted(e, False), ROOT_SIFTED),
    (lambda e: key_rate_sifted(e, True), ROOT_SIFTED_ANNOUNCED),
], ids=["sb1", "sb1_announced", "sifted", "sifted_announced"])
def test_find_threshold_closed_form_budget(rate_fn, root):
    # The count includes the two bracket ends.
    counted, calls = _counted(rate_fn)
    assert find_threshold(counted, 1e-4, 0.45, 1e-6) == pytest.approx(root, abs=1e-8)
    assert calls[0] <= 10


@pytest.mark.parametrize("rate", [lower_bound_rate, upper_bound_crossing])
@pytest.mark.parametrize("mu4", [None, 0.0])
def test_find_threshold_bound_budget(rate, mu4):
    counted, calls = _counted(lambda e: rate(e, Q_NEAR_HALF, mu4))
    find_threshold(counted, 1e-4, 0.45, THRESHOLD_TOL)
    assert calls[0] <= 10


@pytest.mark.parametrize("rate", [lower_bound_rate, upper_bound_crossing])
@pytest.mark.parametrize("mu4", [None, 0.0])
def test_bound_threshold_budget(rate, mu4):
    counted, calls = _counted(lambda e: LIMITS[rate](e, mu4))
    bound_threshold(counted)
    assert calls[0] <= 10


@pytest.mark.parametrize("level", [1.0, np.inf])
def test_find_threshold_sign_step_bisects(level):
    # Interpolation through a jump is NaN, inf or untrusted: every step must
    # fall back to bisection, still converge within tol, and warn nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = find_threshold(lambda e: np.where(e < 0.1, level, -level), 0.0, 0.4, 1e-6)
    assert abs(root - 0.1) <= 1e-6


# float.hex() of threshold roots, frozen bit for bit: the four closed-form
# roots at tol 1e-7 (THRESHOLD_TOL, which `thresholds` prints), 1e-6 and
# 1e-12, and both bounds at the default mu4 and at mu4 = 0.
THRESHOLD_ROOTS_HEX = {
    ("sb1", 1e-7): "0x1.fdf172c757ba5p-6",
    ("sb1_announced", 1e-7): "0x1.f7badcc01f149p-5",
    ("sifted", 1e-7): "0x1.78567e379d3a4p-6",
    ("sifted_announced", 1e-7): "0x1.8d6fd533fd471p-5",
    ("sb1", 1e-6): "0x1.fdf172c75db3ep-6",
    ("sb1_announced", 1e-6): "0x1.f7badcc01fd70p-5",
    ("sifted", 1e-6): "0x1.78567e37a1642p-6",
    ("sifted_announced", 1e-6): "0x1.8d6fd533fdb96p-5",
    ("sb1", 1e-12): "0x1.fdf172c757950p-6",
    ("sb1_announced", 1e-12): "0x1.f7badcc01f059p-5",
    ("sifted", 1e-12): "0x1.78567e379cfd7p-6",
    ("sifted_announced", 1e-12): "0x1.8d6fd533fd3cdp-5",
    ("lower_bound", None): "0x1.fc65836cad4d3p-4",
    ("upper_bound", None): "0x1.ec1546c205306p-4",
    ("lower_bound", 0.0): "0x1.09ddbf0f24345p-3",
    ("upper_bound", 0.0): "0x1.d935467b4b393p-4",
}
# Both ends, then bisection: a jump gives the interpolation a zero
# difference fc - fb (finite levels) or inf - inf (infinite ones).
_STEP_ITERATES = [
    "0x0.0p+0", "0x1.999999999999ap-2", "0x1.999999999999ap-3", "0x1.999999999999ap-4",
    "0x1.999999999999ap-5", "0x1.3333333333334p-4", "0x1.6666666666667p-4",
    "0x1.8000000000000p-4", "0x1.8cccccccccccdp-4", "0x1.9333333333334p-4",
    "0x1.9666666666667p-4", "0x1.9800000000000p-4", "0x1.98ccccccccccdp-4",
    "0x1.9933333333334p-4", "0x1.9966666666667p-4", "0x1.9980000000000p-4",
    "0x1.998cccccccccdp-4", "0x1.9993333333334p-4", "0x1.9996666666667p-4",
    "0x1.9998000000000p-4", "0x1.9998ccccccccdp-4",
]
# (rate, lo, hi, tol, root, every point evaluated), all hex, frozen bit for bit.
AWKWARD_ROOTS = {
    "step": (lambda e: 1.0 if e < 0.1 else -1.0, 0.0, 0.4, 1e-6,
             "0x1.9999333333334p-4", _STEP_ITERATES),
    # The last secant point is NaN, so the end with the smaller |rate| is returned.
    "step_inf": (lambda e: math.inf if e < 0.1 else -math.inf, 0.0, 0.4, 1e-6,
                 "0x1.9998ccccccccdp-4", _STEP_ITERATES),
    # A bisection point and an interpolated point that are exact zeros.
    "line_zero_at_bisection": (lambda e: 0.5 - e, 0.0, 1.0, 1e-9, "0x1.0000000000000p-1",
                               ["0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1"]),
    "line_zero_at_interpolation": (
        lambda e: 0.1 - e, 0.0, 0.4, 1e-12, "0x1.999999999999ap-4",
        ["0x0.0p+0", "0x1.999999999999ap-2", "0x1.999999999999ap-3", "0x1.999999999999ap-4"]),
    # Two equal rates on the flat part: a zero difference fc - fa.
    "flat_then_falls": (
        lambda e: 1.0 if e < 0.3 else 1.0 - 10.0 * (e - 0.3), 0.0, 0.4, 1e-9,
        "0x1.9999999999999p-2",
        ["0x0.0p+0", "0x1.999999999999ap-2", "0x1.999999999999ap-3", "0x1.3333333333334p-2",
         "0x1.6666666666667p-2", "0x1.999999910293bp-2"]),
}


CLOSED_FORM_RATES = {
    "sb1": lambda e: key_rate_sb1(e, False),
    "sb1_announced": lambda e: key_rate_sb1(e, True),
    "sifted": lambda e: key_rate_sifted(e, False),
    "sifted_announced": lambda e: key_rate_sifted(e, True),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_closed_form_threshold_roots_frozen_bit_for_bit(tol):
    for key, rate_fn in CLOSED_FORM_RATES.items():
        root = find_threshold(rate_fn, 1e-4, 0.45, tol)
        assert type(root) is float
        assert root.hex() == THRESHOLD_ROOTS_HEX[key, tol], key


@pytest.mark.parametrize("mu4", [None, 0.0])
def test_thresholds_table_roots_frozen_bit_for_bit(mu4):
    # The roots `thresholds` prints, from its own table: each closed-form
    # root ignores mu4 and is found at tol 1e-7.
    from threepass.cli import _THRESHOLDS

    # Its rows are the published thresholds, criteria 1 and 2, in order.
    assert [key for key, *_ in _THRESHOLDS] == [
        key for key, fig in paper.FIGURES.items() if fig.criterion[0] in "12"]
    for key, _, root_of_mu4 in _THRESHOLDS:
        root = root_of_mu4(mu4)
        assert type(root) is float
        frozen = THRESHOLD_ROOTS_HEX[key, mu4 if key in ("lower_bound", "upper_bound") else 1e-7]
        assert root.hex() == frozen, key


def test_default_sb1_tolerance_is_the_published_announced_threshold():
    # The step-3 abort test's default tolerance is the return pass's
    # tolerable error with Y announced, as published.
    assert protocol.DEFAULT_SB1_TOLERANCE == paper.FIGURES["sb1_announced"].value == 0.0617


@pytest.mark.parametrize("mu4", [None, 0.0])
def test_bound_threshold_roots_frozen_bit_for_bit(mu4):
    assert lower_bound_threshold(mu4).hex() == THRESHOLD_ROOTS_HEX["lower_bound", mu4]
    assert upper_bound_threshold(mu4).hex() == THRESHOLD_ROOTS_HEX["upper_bound", mu4]


@pytest.mark.parametrize("name", sorted(AWKWARD_ROOTS))
def test_find_threshold_awkward_iterates_frozen_bit_for_bit(name):
    rate_fn, lo, hi, tol, root, iterates = AWKWARD_ROOTS[name]
    seen = []

    def recorded(e):
        seen.append(e.hex())
        return rate_fn(e)

    assert find_threshold(recorded, lo, hi, tol).hex() == root
    assert seen == iterates


def test_bound_thresholds_frozen_bit_for_bit():
    assert _root_near_half(lower_bound_rate) == LOWER_THRESHOLD
    assert _root_near_half(upper_bound_crossing) == UPPER_THRESHOLD
    assert _root_near_half(lower_bound_rate, 0.0) == LOWER_THRESHOLD_MU4_0
    assert _root_near_half(upper_bound_crossing, 0.0) == UPPER_THRESHOLD_MU4_0
    # mu4 = e**2 given explicitly takes the batched 4x4 eigvalsh path.
    assert find_threshold(lambda e: upper_bound_crossing(e, Q_NEAR_HALF, e * e),
                          1e-4, 0.45, THRESHOLD_TOL) == UPPER_THRESHOLD_4X4


@pytest.mark.parametrize("name,frozen", [
    ("lower", LOWER_THRESHOLD),
    ("upper", UPPER_THRESHOLD),
    ("upper", UPPER_THRESHOLD_4X4),
    ("lower_mu4_0", LOWER_THRESHOLD_MU4_0),
    ("upper_mu4_0", UPPER_THRESHOLD_MU4_0),
], ids=["lower", "upper", "upper_4x4", "lower_mu4_0", "upper_mu4_0"])
def test_frozen_bound_thresholds_lie_within_2e_9_of_40_digit_roots(name, frozen):
    assert abs(frozen - ROOTS_40[name]) <= 2e-9


@pytest.mark.parametrize("rate,mu4,frozen", [
    (lower_bound_rate, None, LOWER_THRESHOLD),
    (upper_bound_crossing, None, UPPER_THRESHOLD),
    (lower_bound_rate, 0.0, LOWER_THRESHOLD_MU4_0),
    (upper_bound_crossing, 0.0, UPPER_THRESHOLD_MU4_0),
], ids=["lower", "upper", "lower_mu4_0", "upper_mu4_0"])
def test_frozen_bound_roots_lie_within_bound_tol(rate, mu4, frozen):
    root = find_threshold(lambda x: rate(x, Q_NEAR_HALF, mu4), 1e-4, 0.45, 1e-12)
    assert abs(frozen - root) <= THRESHOLD_TOL


@pytest.mark.parametrize("rate", [lower_bound_rate, upper_bound_crossing])
@pytest.mark.parametrize("mu4", [None, 0.0])
def test_bound_root_increases_toward_half(rate, mu4):
    # Why the bound thresholds need no search over q: the root in e increases
    # strictly with q, so its supremum over [0, 1/2) is the q -> 1/2 limit,
    # the root of R.  At the grid's last point, q = Q_NEAR_HALF, the float
    # rate's rounding moves its root by more than the 2e-10 by which that
    # root misses the limit, so the exact root (ROOTS_40) stands in for it.
    roots = [find_threshold(lambda e: rate(e, q, mu4), 1e-4, 0.45, 1e-7)
             for q in np.linspace(0.0, Q_NEAR_HALF, 101).tolist()]
    assert np.all(np.diff(roots) > 0)
    roots[-1] = ROOTS_40[_bound_name(rate, mu4)]
    assert bound_threshold(lambda e: LIMITS[rate](e, mu4)) > max(roots)


@pytest.mark.parametrize("rate,threshold", [(lower_bound_rate, lower_bound_threshold),
                                            (upper_bound_crossing, upper_bound_threshold)],
                         ids=["lower", "upper"])
@pytest.mark.parametrize("mu4", [None, 0.0])
def test_bound_limit_roots_match_50_digit_references(rate, threshold, mu4):
    reference = LIMIT_ROOTS[_bound_name(rate, mu4)]
    root = find_threshold(lambda e: LIMITS[rate](e, mu4), 1e-4, 0.45, 1e-15)
    assert abs(root - reference) <= 1e-15
    assert abs(threshold(mu4) - reference) <= THRESHOLD_TOL


@pytest.mark.parametrize("rate", [lower_bound_rate, upper_bound_crossing])
@pytest.mark.parametrize("mu4", [None, 0.0, 0.003])
@pytest.mark.parametrize("e", [0.05, 0.12, 0.3])
def test_rate_over_d_squared_tends_to_limit(rate, mu4, e):
    # rate(e, q) = d**2 R(e) + O(d**4) with d = 1 - 2q, so rate/d**2 - R is
    # O(d**2): a tenth of d, a hundredth of the error.  At d = 1e-3 the
    # rate's own rounding adds about 1e-10, far below the 1e-8 left.
    err = [abs(rate(e, (1.0 - d) / 2.0, mu4) / d**2 - LIMITS[rate](e, mu4)) for d in (1e-2, 1e-3)]
    assert err[0] <= 2e-5
    assert err[1] <= err[0] / 50.0


def test_given_mu4_chi_limit_at_e_squared_matches_closed_form(monkeypatch):
    # The Daleckii-Krein sum over the two 2x2 blocks against the chain rule
    # through the product spectrum; neither solves an eigenproblem.
    def refuse(*args, **kwargs):
        raise _Eigensolve

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for e in np.linspace(1e-4, 0.5, 101).tolist():
        assert holevo_chi_limit(e, e * e) == pytest.approx(holevo_chi_limit(e),
                                                           rel=1e-14, abs=1e-17)
    assert holevo_chi_limit(0.0) == holevo_chi_limit(0.0, 0.0) == 0.0


@pytest.mark.parametrize("e", [0.05, 0.12, 0.3, 0.45])
def test_limits_at_mu4_0_null_space(e):
    # At mu4 = 0 the average state's block {0, 3} has a zero eigenvalue and
    # the lower bound's block (mu3, mu4) a zero weight.  Neither contributes:
    # C does not couple into that eigenvector (r13 = sqrt(w1 w3)/3 = 0), and
    # both limits are the mu4 -> 0+ limits, with gaps of order mu4 log(mu4).
    for limit in (lower_bound_limit, upper_bound_limit):
        at_zero = limit(e, 0.0)
        gaps = [abs(limit(e, mu4) - at_zero) for mu4 in (1e-9, 1e-12, 1e-15)]
        assert gaps[0] < 1e-7 and gaps[1] < gaps[0] / 100.0 and gaps[2] < gaps[1] / 100.0
    d = 1e-3
    assert holevo_chi_limit(e, 0.0) == pytest.approx(
        holevo_chi(e, (1.0 - d) / 2.0, 0.0) / d**2, abs=1e-6)


@pytest.mark.parametrize("limit", [lower_bound_limit, upper_bound_limit])
@pytest.mark.parametrize("e,mu4,message", [
    (0.6, None, "QBER must lie in [0, 0.5], got 0.6"),
    (float("nan"), None, "QBER must lie in [0, 0.5], got nan"),
    (0.1, -1.0, "mu4 must lie in [0, e=0.1], got -1.0"),
    (0.1, float("nan"), "mu4 must lie in [0, e=0.1], got nan"),
])
def test_limits_refuse_out_of_range_inputs(limit, e, mu4, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        limit(e, mu4)


@pytest.mark.parametrize("limit", [lower_bound_limit, upper_bound_limit])
@pytest.mark.parametrize("mu4", [None, 0.0, 1e-300, 5e-324, 0.001, float("inf")])
def test_limits_are_finite_over_the_whole_range(limit, mu4):
    # The ends e = 0 and 1/2, subnormal e and mu4, a coupled eigenvalue that
    # underflows, and P- = PQ/P+ = 0 where only PQ underflows (e = 2e-162)
    # all give a number, not a math error.
    for e in [0.0, 5e-324, 2e-162, 1e-300, *np.linspace(1e-4, 0.5, 51).tolist(), 0.5]:
        assert math.isfinite(limit(e, mu4))


@pytest.mark.parametrize("x,y", [(0.3, 0.2), (2.0, 1.0), (1.0 + 2.0**-40, 1.0),
                                 (7e-4, 6.9e-4), (1.0, 1e-300), (1.0, 5e-324)])
def test_log2_slope_matches_its_definition(x, y):
    # (log2 x - log2 y)/(x - y) in 50-digit decimal, for close and far x, y.
    with localcontext() as ctx:
        ctx.prec = 50
        dx, dy = Decimal(x), Decimal(y)
        exact = float((dx.ln() - dy.ln()) / ((dx - dy) * Decimal(2).ln()))
    assert _log2_slope(x, y) == _log2_slope(y, x) == pytest.approx(exact, rel=4e-16)
    assert _log2_slope(x, x) == 1.0 / (x * math.log(2.0))

import numpy as np
import pytest
from hypothesis import given, strategies as st

from threepass.qmath import (
    binary_entropy,
    eve_state,
    maximizing_mu4,
    mixture_from_qber,
    von_neumann_entropy,
)
from threepass.secrate import (
    EFFICIENCY_PRESETS,
    BracketError,
    EfficiencyInputs,
    _Q_MAX,
    bound_threshold,
    cabello_efficiency,
    find_threshold,
    golden_section_max,
    holevo_chi,
    key_rate_sb1,
    key_rate_sifted,
    lower_bound_rate,
    lower_bound_threshold,
    upper_bound_crossing,
    upper_bound_rate,
    upper_bound_threshold,
)

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
# Bound thresholds (e, q*): the e values as computed by the per-point 4x4
# implementation, which the closed-form and batched rates must reproduce bit
# for bit, at q* = _Q_MAX.
LOWER_THRESHOLD = (0.12412022876143455, 0.4999)
UPPER_THRESHOLD = (0.1201374971807003, 0.4999)
LOWER_THRESHOLD_MU4_0 = (0.12981747640967373, 0.4999)
UPPER_THRESHOLD_MU4_0 = (0.115529306191206, 0.4999)


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
    e = np.linspace(0.0, 0.5, 101)
    assert fn(e, announce).tolist() == [fn(x, announce) for x in e.tolist()]
    assert type(fn(0.1, announce)) is float
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
    with pytest.raises(ValueError):
        find_threshold(lambda e: 0.1 - e, 0.0, 0.4, tol=0.0)


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
        assert holevo_chi(0.0, q) == pytest.approx(0.0, abs=1e-12)


def test_holevo_chi_vanishes_at_balanced_flip():
    for e in (0.05, 0.15, 0.3):
        assert holevo_chi(e, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_holevo_chi_nonnegative():
    for e in np.linspace(0.0, 0.45, 10):
        for q in np.linspace(0.0, 1.0, 9):
            assert holevo_chi(float(e), float(q)) >= -1e-12


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
    e_low, q_low = lower_bound_threshold()
    assert e_low == pytest.approx(0.124120, abs=2e-4)
    assert q_low > 0.45  # supremum approached toward q = 1/2
    e_up, _ = upper_bound_threshold()
    assert e_up == pytest.approx(0.120137, abs=2e-4)


def test_bound_threshold_mu4_override_changes_result():
    e_default, _ = lower_bound_threshold()
    e_zero, _ = lower_bound_threshold(mu4=0.0)
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
    return mixture_from_qber(e, maximizing_mu4(e) if mu4 is None else mu4)


def _reference_lower(e, q, mu4):
    """Lower bound from the explicit 4x4 conditional states, one point at a time."""
    mix = _reference_mixture(e, mu4)
    s0, s1 = eve_state(mix, 0).matrix, eve_state(mix, 1).matrix
    cond = (0.5 * von_neumann_entropy((1.0 - q) * s0 + q * s1)
            + 0.5 * von_neumann_entropy(q * s0 + (1.0 - q) * s1))
    unc = von_neumann_entropy(0.5 * (s0 + s1))
    return (cond - unc) - (binary_entropy(q * (1.0 - e) + (1.0 - q) * e) - 1.0)


def _reference_chi(e, q, mu4):
    """Holevo quantity from four explicit projectors and three unbatched eigvalsh."""
    r = np.sqrt(_reference_mixture(e, mu4).as_array())
    projectors = []
    for v in ((r[0], r[1], 0.0, 0.0), (r[0], -r[1], 0.0, 0.0),
              (r[0], r[1], r[2], r[3]), (-r[0], r[1], r[2], -r[3])):
        v = np.array(v) / np.linalg.norm(v)
        projectors.append(np.outer(v, v))
    p00, p11, p0p, p1m = projectors
    given_0, given_1 = (2.0 * p00 + p0p) / 3.0, (2.0 * p11 + p1m) / 3.0

    def entropy(m):
        lam = np.linalg.eigvalsh(m)
        return -sum(x * np.log2(x) for x in lam if x > 1e-12)

    return (entropy((p00 + p11) / 3.0 + (p0p + p1m) / 6.0)
            - 0.5 * entropy((1.0 - q) * given_0 + q * given_1)
            - 0.5 * entropy(q * given_0 + (1.0 - q) * given_1))


_MU4_CHOICES = st.sampled_from([None, 0.0, 1 / 3, 1.0])  # None, or a fraction of e


@given(
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    _MU4_CHOICES,
)
def test_bound_rates_match_4x4_reference(e, q, mu4_frac):
    mu4 = None if mu4_frac is None else mu4_frac * e
    assert lower_bound_rate(e, q, mu4) == pytest.approx(_reference_lower(e, q, mu4), abs=1e-12)
    assert holevo_chi(e, q, mu4) == pytest.approx(_reference_chi(e, q, mu4), abs=1e-12)


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
    with pytest.raises(ValueError, match=r"mu4 must lie in \[0, e=0.01\], got 0.05"):
        upper_bound_crossing(np.array([0.1, 0.01]), 0.3, 0.05)


def test_find_threshold_bisects_arrays_elementwise():
    roots = np.array([0.05, 0.1, 0.2, 0.3])
    found = find_threshold(lambda e: roots - e, 0.0, 0.4, 1e-9)
    assert found == pytest.approx(roots, abs=1e-9)
    for root, value in zip(roots, found):
        assert find_threshold(lambda e: root - e, 0.0, 0.4, 1e-9) == value
    # A point without a sign change on its bracket gives NaN; none at all raises.
    partial = find_threshold(lambda e: np.array([0.1, 0.5]) - e, 0.0, 0.4, 1e-9)
    assert partial[0] == pytest.approx(0.1, abs=1e-9) and np.isnan(partial[1])
    with pytest.raises(BracketError):
        find_threshold(lambda e: np.array([0.5, 0.6]) - e, 0.0, 0.4)


def test_bound_thresholds_frozen_bit_for_bit():
    assert lower_bound_threshold() == LOWER_THRESHOLD
    assert upper_bound_threshold() == UPPER_THRESHOLD
    assert lower_bound_threshold(mu4=0.0) == LOWER_THRESHOLD_MU4_0
    assert upper_bound_threshold(mu4=0.0) == UPPER_THRESHOLD_MU4_0


@pytest.mark.parametrize("rate", [lower_bound_rate, upper_bound_crossing])
@pytest.mark.parametrize("mu4", [None, 0.0])
def test_bound_root_increases_toward_half(rate, mu4):
    # Why bound_threshold needs no search over q: the root in e increases
    # strictly with q, so its supremum over [0, 1/2) is the root at _Q_MAX.
    q = np.linspace(0.0, _Q_MAX, 101)
    roots = find_threshold(lambda e: rate(e, q, mu4), 1e-4, 0.45, 1e-7)
    assert np.all(np.diff(roots) > 0)
    assert bound_threshold(lambda e, q: rate(e, q, mu4)) == (roots[-1], _Q_MAX)

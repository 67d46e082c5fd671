import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from threepass.qmath import (
    bell_weights,
    binary_entropy,
    eve_state,
    maximizing_mu4,
    von_neumann_entropy,
)
from threepass.secrate import (
    BOUND_TOL,
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
from threepass import protocol
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
# Bound thresholds (e, q*) at q* = _Q_MAX: the e values find_threshold
# returns at BOUND_TOL, frozen bit for bit.  Each lies within 2e-9 of the
# root of its rate; near q = 1/2 the rate is O((1 - 2q)**2), so the last
# digits of a root are rounding noise of the rate's arithmetic.
LOWER_THRESHOLD = (0.12412024926202601, 0.4999)
UPPER_THRESHOLD = (0.1201374780908984, 0.4999)
LOWER_THRESHOLD_MU4_0 = (0.1298174783786918, 0.4999)
UPPER_THRESHOLD_MU4_0 = (0.11552932223839439, 0.4999)
# The upper threshold of the batched 4x4 eigvalsh path at mu4 = e**2.
UPPER_THRESHOLD_4X4 = (0.12013747888227343, 0.4999)
# The same roots to 40 digits: the defining matrices (the 4x4 rho_q, the 2x2
# blocks of Eve's states) in 60-digit arithmetic, solved to 1e-60.
ROOTS_40 = {
    "lower": 0.1241202479891166711595988976685597544124,
    "upper": 0.1201374780498586161961997395933908602534,
    "lower_mu4_0": 0.1298174785419772992548484479677304475314,
    "upper_mu4_0": 0.1155293227357352898487183783334683235970,
}


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
    assert upper_bound_threshold() == UPPER_THRESHOLD
    assert main(["curves", "--kind", "upper"]) == 0
    assert capsys.readouterr().out.count("\n") == 1294
    # A given mu4 still takes the 4x4 path.
    with pytest.raises(_Eigensolve):
        holevo_chi(e, q, mu4=0.0)


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


def test_efficiency_presets_match_the_noiseless_sift_tables():
    # P1's and P2's b_s are the noiseless fractions of rounds kept without
    # error, 3/4 and 15/16, read from the sift tables and the exact law.
    patterns = protocol.code_distribution(0.0, False)[protocol._PATTERN_CODES]
    for pid in protocol.ProtocolId:
        kept_right = protocol._KEPT[pid] & ~protocol._ERR[pid]
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
    counted, calls = _counted(lambda e: rate(e, _Q_MAX, mu4))
    find_threshold(counted, 1e-4, 0.45, BOUND_TOL)
    assert calls[0] <= 10


@pytest.mark.parametrize("level", [1.0, np.inf])
def test_find_threshold_sign_step_bisects(level):
    # Interpolation through a jump is NaN, inf or untrusted: every step must
    # fall back to bisection, still converge within tol, and warn nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = find_threshold(lambda e: np.where(e < 0.1, level, -level), 0.0, 0.4, 1e-6)
    assert abs(root - 0.1) <= 1e-6


def test_bound_thresholds_frozen_bit_for_bit():
    assert lower_bound_threshold() == LOWER_THRESHOLD
    assert upper_bound_threshold() == UPPER_THRESHOLD
    assert lower_bound_threshold(mu4=0.0) == LOWER_THRESHOLD_MU4_0
    assert upper_bound_threshold(mu4=0.0) == UPPER_THRESHOLD_MU4_0
    # mu4 = e**2 given explicitly takes the batched 4x4 eigvalsh path.
    assert bound_threshold(lambda e, q: upper_bound_crossing(e, q, e * e)) == UPPER_THRESHOLD_4X4


@pytest.mark.parametrize("name,frozen", [
    ("lower", LOWER_THRESHOLD),
    ("upper", UPPER_THRESHOLD),
    ("upper", UPPER_THRESHOLD_4X4),
    ("lower_mu4_0", LOWER_THRESHOLD_MU4_0),
    ("upper_mu4_0", UPPER_THRESHOLD_MU4_0),
], ids=["lower", "upper", "upper_4x4", "lower_mu4_0", "upper_mu4_0"])
def test_frozen_bound_thresholds_lie_within_2e_9_of_40_digit_roots(name, frozen):
    assert abs(frozen[0] - ROOTS_40[name]) <= 2e-9


@pytest.mark.parametrize("rate,mu4,frozen", [
    (lower_bound_rate, None, LOWER_THRESHOLD),
    (upper_bound_crossing, None, UPPER_THRESHOLD),
    (lower_bound_rate, 0.0, LOWER_THRESHOLD_MU4_0),
    (upper_bound_crossing, 0.0, UPPER_THRESHOLD_MU4_0),
], ids=["lower", "upper", "lower_mu4_0", "upper_mu4_0"])
def test_frozen_bound_roots_lie_within_bound_tol(rate, mu4, frozen):
    e, q = frozen
    root = find_threshold(lambda x: rate(x, q, mu4), 1e-4, 0.45, 1e-12)
    assert abs(e - root) <= BOUND_TOL


@pytest.mark.parametrize("rate", [lower_bound_rate, upper_bound_crossing])
@pytest.mark.parametrize("mu4", [None, 0.0])
def test_bound_root_increases_toward_half(rate, mu4):
    # Why bound_threshold needs no search over q: the root in e increases
    # strictly with q, so its supremum over [0, 1/2) is the root at _Q_MAX.
    roots = [find_threshold(lambda e: rate(e, q, mu4), 1e-4, 0.45, 1e-7)
             for q in np.linspace(0.0, _Q_MAX, 101).tolist()]
    assert np.all(np.diff(roots) > 0)
    assert bound_threshold(lambda e, q: rate(e, q, mu4)) == (roots[-1], _Q_MAX)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from threepass.pns import (
    DEFAULT_IRUD_OVERLAP,
    FiberLink,
    WcpSource,
    critical_distance,
    eve_info_irud,
    eve_info_pns,
    poisson_pmf,
    poisson_tail,
    transmittance,
    unambiguous_info,
)

# 40-digit evaluations of the defining formulas, frozen.
P0_AT_0P1 = 0.9048374180359595
TAIL2_AT_0P1 = 0.00467884016044447
I_EVE1_AT_ZERO = 1.4377726514963294e-4
I3_AT_DEFAULT_OVERLAP = 0.7942369457243099
P3_AT_0P2 = 0.00109164100410398
I_EVE2_AT_ZERO = 3.5955525986956491e-9
PNS_CRITICAL_KM = 154.5536
PNS_CRITICAL_DB = 38.6384
IRUD_CRITICAL_KM = 339.4776
IRUD_CRITICAL_DB = 84.8694


def test_poisson_pmf_values():
    assert poisson_pmf(0, 0.1) == pytest.approx(P0_AT_0P1, abs=1e-12)
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(3, 0.0) == 0.0
    assert poisson_pmf(3, 0.2) == pytest.approx(P3_AT_0P2, abs=1e-12)


def test_poisson_pmf_normalization():
    total = sum(poisson_pmf(n, 0.2) for n in range(41))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_poisson_pmf_domain():
    with pytest.raises(ValueError):
        poisson_pmf(-1, 0.1)
    with pytest.raises(ValueError):
        poisson_pmf(2, -0.1)


def test_poisson_tail_matches_complement():
    mu = 0.3
    for k in (0, 1, 2, 5):
        direct = sum(poisson_pmf(n, mu) for n in range(k, 80))
        assert poisson_tail(k, mu) == pytest.approx(direct, abs=1e-12)


def test_poisson_tail_precise_for_tiny_mean():
    # 1 - exp(-x) must not lose precision at long fiber lengths.
    assert poisson_tail(1, 1e-12) == pytest.approx(1e-12, rel=1e-9)


def test_transmittance_values():
    assert transmittance(FiberLink(0.25, 0.0)) == 1.0
    assert transmittance(FiberLink(0.25, 40.0)) == pytest.approx(0.1, abs=1e-15)
    link = FiberLink(0.25, 154.5)
    assert link.loss_db == pytest.approx(38.625, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
def test_transmittance_multiplicative(l1, l2):
    alpha = 0.25
    combined = transmittance(FiberLink(alpha, l1 + l2))
    split = transmittance(FiberLink(alpha, l1)) * transmittance(FiberLink(alpha, l2))
    assert combined == pytest.approx(split, rel=1e-12)


def test_source_validation():
    for mu in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            WcpSource(mu)
    for alpha, length in ((-0.1, 10.0), (float("nan"), 10.0), (float("inf"), 10.0),
                          (0.25, float("nan")), (0.25, float("inf")), (0.25, -1.0),
                          (0.25, np.array([0.0, float("nan")])),
                          (0.25, np.array([0.0, -1.0]))):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            FiberLink(alpha, length)


def test_eve_info_is_infinite_when_nothing_is_detected():
    link = FiberLink(0.25, 20_000.0)
    assert transmittance(link) == 0.0
    assert eve_info_pns(link, WcpSource(0.1)) == math.inf
    assert eve_info_irud(link, WcpSource(0.2)) == math.inf
    # Elementwise, and with a loss that overflows to inf, without warnings.
    lengths = np.array([0.0, 20_000.0])
    assert np.isinf(eve_info_pns(FiberLink(0.25, lengths), WcpSource(0.1))).tolist() == [
        False, True]
    assert eve_info_irud(FiberLink(1e308, lengths), WcpSource(0.2))[1] == math.inf


def _reference_info(attack, alpha, mu, l):
    """The module docstring's I1(l) or I2(l), one distance at a time with math."""

    def p(n):
        return math.exp(-mu) * mu ** n / math.factorial(n)

    if attack == "pns":
        # 1 - sum_{n<2} p(n): the complement sum, as poisson_tail evaluates it.
        numerator = 0.625 * (1.0 - (p(0) + p(1))) ** 2
    else:
        p_conclusive = 0.5 * (1.0 + math.sqrt(1.0 - DEFAULT_IRUD_OVERLAP ** 6))
        i3 = 1.0 + p_conclusive * math.log2(p_conclusive) \
            + (1.0 - p_conclusive) * math.log2(1.0 - p_conclusive)
        numerator = (i3 * p(3)) ** 3
    return numerator / -math.expm1(-mu * 10.0 ** (-alpha * l / 10.0))


@given(
    st.sampled_from(["pns", "irud"]),
    st.floats(min_value=0.1, max_value=0.4),
    st.floats(min_value=0.01, max_value=1.0),
    st.lists(st.floats(min_value=0.0, max_value=600.0), min_size=1, max_size=20),
)
def test_eve_info_on_length_arrays_matches_formulas(attack, alpha, mu, lengths):
    fn = eve_info_pns if attack == "pns" else eve_info_irud
    got = fn(FiberLink(alpha, np.array(lengths)), WcpSource(mu))
    assert got.shape == (len(lengths),)
    for l, value in zip(lengths, got.tolist()):
        assert value == pytest.approx(_reference_info(attack, alpha, mu, l), rel=1e-12)


def test_scalar_calls_return_floats():
    link, source = FiberLink(0.25, 10.0), WcpSource(0.1)
    for value in (transmittance(link), poisson_tail(1, 0.1), eve_info_pns(link, source),
                  eve_info_irud(link, source), unambiguous_info(3, DEFAULT_IRUD_OVERLAP),
                  eve_info_pns(FiberLink(0.25, 20_000.0), source)):
        assert type(value) is float


def test_eve_info_pns_at_zero_distance():
    value = eve_info_pns(FiberLink(0.25, 0.0), WcpSource(0.1))
    assert value == pytest.approx(I_EVE1_AT_ZERO, abs=1e-8)
    # numerator pieces
    assert poisson_tail(2, 0.1) == pytest.approx(TAIL2_AT_0P1, abs=1e-12)


def test_eve_info_pns_monotone_in_distance():
    source = WcpSource(0.1)
    grid = [eve_info_pns(FiberLink(0.25, l), source) for l in np.linspace(0, 300, 61)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_eve_info_pns_small_below_70km():
    source = WcpSource(0.1)
    for l in np.linspace(0.0, 70.0, 36):
        assert eve_info_pns(FiberLink(0.25, float(l)), source) < 0.01


def test_unambiguous_info_limits():
    assert unambiguous_info(3, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert unambiguous_info(3, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_unambiguous_info_value():
    assert unambiguous_info(3, DEFAULT_IRUD_OVERLAP) == pytest.approx(
        I3_AT_DEFAULT_OVERLAP, abs=1e-12)


def test_unambiguous_info_domain():
    with pytest.raises(ValueError):
        unambiguous_info(0, 0.5)
    with pytest.raises(ValueError):
        unambiguous_info(3, 1.5)


def test_eve_info_irud_at_zero_distance():
    value = eve_info_irud(FiberLink(0.25, 0.0), WcpSource(0.2))
    assert value == pytest.approx(I_EVE2_AT_ZERO, abs=1e-12)


def test_eve_info_irud_monotone_and_small_below_200km():
    source = WcpSource(0.2)
    grid = [eve_info_irud(FiberLink(0.25, float(l)), source)
            for l in np.linspace(0, 400, 81)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    for l in np.linspace(0.0, 200.0, 41):
        assert eve_info_irud(FiberLink(0.25, float(l)), source) < 0.01


def test_poisson_tail_takes_arrays():
    mu = np.array([0.0, 1e-12, 0.1, 2.0])
    assert poisson_tail(1, mu).tolist() == pytest.approx(
        [-math.expm1(-m) for m in mu.tolist()], rel=1e-15)


def test_critical_distance_synthetic():
    l_c, delta_c = critical_distance(lambda l: l / 100.0, 0.25, 400.0)
    assert l_c == pytest.approx(100.0, abs=0.01)
    assert delta_c == pytest.approx(25.0, abs=0.01)


def test_critical_distance_pns():
    source = WcpSource(0.1)
    l_c, delta_c = critical_distance(
        lambda l: eve_info_pns(FiberLink(0.25, l), source), 0.25, 400.0)
    assert l_c == pytest.approx(PNS_CRITICAL_KM, abs=0.02)
    assert delta_c == pytest.approx(PNS_CRITICAL_DB, abs=0.005)


def test_critical_distance_irud():
    source = WcpSource(0.2)
    l_c, delta_c = critical_distance(
        lambda l: eve_info_irud(FiberLink(0.25, l), source), 0.25, 600.0)
    assert l_c == pytest.approx(IRUD_CRITICAL_KM, abs=0.02)
    assert delta_c == pytest.approx(IRUD_CRITICAL_DB, abs=0.005)


def test_critical_distance_requires_crossing():
    with pytest.raises(ValueError):
        critical_distance(lambda l: 0.5, 0.25, 100.0)
    # lossless channel: information never reaches 1
    source = WcpSource(0.1)
    with pytest.raises(ValueError):
        critical_distance(
            lambda l: eve_info_pns(FiberLink(0.0, l), source), 0.0, 100.0)

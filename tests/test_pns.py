import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import at_harvested_literals
from hypothesis import example, given, strategies as st

from threepass.pns import (
    DEFAULT_IRUD_OVERLAP,
    critical_distance,
    eve_info_irud,
    eve_info_pns,
    numerator_irud,
    numerator_pns,
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
    for n in (2.5, math.inf, math.nan):
        # inf and NaN once escaped as OverflowError and int()'s own message.
        with pytest.raises(ValueError, match=rf"^n must be a nonnegative integer, got {n}$"):
            poisson_pmf(n, 0.1)
    with pytest.raises(ValueError):
        poisson_pmf(2, -0.1)


@pytest.mark.parametrize("fn,k", [(poisson_pmf, 3), (poisson_tail, 1), (poisson_tail, 2)])
@pytest.mark.parametrize("mu", ["nan", "inf"])
def test_poisson_mean_must_be_finite(fn, k, mu):
    # A NaN or infinite mean once gave a silent nan.
    with pytest.raises(ValueError, match=rf"^mu must lie in \[0, inf\), got {mu}$"):
        fn(k, float(mu))


def test_poisson_tail_matches_complement():
    mu = 0.3
    for k in (0, 1, 2, 5):
        direct = sum(poisson_pmf(n, mu) for n in range(k, 80))
        assert poisson_tail(k, mu) == pytest.approx(direct, abs=1e-12)


def test_poisson_tail_precise_for_tiny_mean():
    # 1 - exp(-x) must not lose precision at long fiber lengths.
    assert poisson_tail(1, 1e-12) == pytest.approx(1e-12, rel=1e-9)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("mu", [1e-8, 1e-3, 0.5, 0.999])
def test_poisson_tail_sums_small_means_directly(k, mu):
    # The complement 1 - sum_{n<k} p(n, mu) cancels: 0.0 at k = 2, mu = 1e-8.
    direct = math.exp(-mu) * math.fsum(mu ** n / math.factorial(n) for n in range(k, k + 30))
    assert poisson_tail(k, mu) == pytest.approx(direct, rel=1e-13)
    assert poisson_tail(2, 1e-8) == pytest.approx(4.9999999666666667e-17, rel=1e-12)


def test_transmittance_values():
    assert transmittance(0.25, 0.0) == 1.0
    assert transmittance(0.25, 40.0) == pytest.approx(0.1, abs=1e-15)
    assert -10.0 * math.log10(transmittance(0.25, 154.5)) == pytest.approx(38.625, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
@at_harvested_literals(l1=50.0, l2=120.0)
def test_transmittance_multiplicative(l1, l2):
    alpha = 0.25
    combined = transmittance(alpha, l1 + l2)
    split = transmittance(alpha, l1) * transmittance(alpha, l2)
    assert combined == pytest.approx(split, rel=1e-12)


def test_source_validation():
    for mu in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            eve_info_pns(0.25, 10.0, mu)
    for alpha, length in ((-0.1, 10.0), (float("nan"), 10.0), (float("inf"), 10.0),
                          (0.25, float("nan")), (0.25, float("inf")), (0.25, -1.0),
                          (0.25, np.array([0.0, float("nan")])),
                          (0.25, np.array([0.0, -1.0]))):
        with pytest.raises(ValueError, match=r"must lie in \[0, inf\), got"):
            transmittance(alpha, length)


def test_eve_info_is_infinite_when_nothing_is_detected():
    assert transmittance(0.25, 20_000.0) == 0.0
    assert eve_info_pns(0.25, 20_000.0, 0.1) == math.inf
    assert eve_info_irud(0.25, 20_000.0, 0.2) == math.inf
    # Elementwise, and with a loss that overflows to inf, without warnings.
    lengths = np.array([0.0, 20_000.0])
    assert np.isinf(eve_info_pns(0.25, lengths, 0.1)).tolist() == [False, True]
    assert eve_info_irud(1e308, lengths, 0.2)[1] == math.inf


def _reference_info(attack, alpha, mu, l):
    """The module docstring's I1(l) or I2(l), one distance at a time with math."""

    def p(n):
        return math.exp(-mu) * mu ** n / math.factorial(n)

    if attack == "pns":
        # sum_{n>=2} p(n) term by term; the complement 1 - p(0) - p(1) loses
        # about 1e-12 of relative accuracy at mu = 0.01.
        numerator = 0.625 * math.fsum(p(n) for n in range(2, 60)) ** 2
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
# Only the lengths' range holds the harvested literals (conftest.HARVESTED).
@example(attack="pns", alpha=0.25, mu=0.1, lengths=[1e-6, 1e-10, 1e-12])
@example(attack="irud", alpha=0.25, mu=0.2, lengths=[1e-6, 1e-10, 1e-12])
def test_eve_info_on_length_arrays_matches_formulas(attack, alpha, mu, lengths):
    fn = eve_info_pns if attack == "pns" else eve_info_irud
    got = fn(alpha, np.array(lengths), mu)
    assert got.shape == (len(lengths),)
    for l, value in zip(lengths, got.tolist()):
        assert value == pytest.approx(_reference_info(attack, alpha, mu, l), rel=1e-12)


def test_scalar_calls_return_floats():
    for value in (transmittance(0.25, 10.0), poisson_tail(1, 0.1),
                  eve_info_pns(0.25, 10.0, 0.1), eve_info_irud(0.25, 10.0, 0.1),
                  unambiguous_info(3, DEFAULT_IRUD_OVERLAP), eve_info_pns(0.25, 20_000.0, 0.1)):
        assert type(value) is float


def test_eve_info_pns_at_zero_distance():
    value = eve_info_pns(0.25, 0.0, 0.1)
    assert value == pytest.approx(I_EVE1_AT_ZERO, abs=1e-8)
    # numerator pieces
    assert poisson_tail(2, 0.1) == pytest.approx(TAIL2_AT_0P1, abs=1e-12)


def test_eve_info_pns_monotone_in_distance():
    grid = [eve_info_pns(0.25, l, 0.1) for l in np.linspace(0, 300, 61)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_eve_info_pns_small_below_70km():
    for l in np.linspace(0.0, 70.0, 36):
        assert eve_info_pns(0.25, float(l), 0.1) < 0.01


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
    value = eve_info_irud(0.25, 0.0, 0.2)
    assert value == pytest.approx(I_EVE2_AT_ZERO, abs=1e-12)


def test_eve_info_irud_monotone_and_small_below_200km():
    grid = [eve_info_irud(0.25, float(l), 0.2) for l in np.linspace(0, 400, 81)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    for l in np.linspace(0.0, 200.0, 41):
        assert eve_info_irud(0.25, float(l), 0.2) < 0.01


def test_poisson_tail_takes_arrays():
    mu = np.array([0.0, 1e-12, 0.1, 2.0])
    assert poisson_tail(1, mu).tolist() == pytest.approx(
        [-math.expm1(-m) for m in mu.tolist()], rel=1e-15)


def _exact_loss_db(attack, mu):
    """The crossing's loss in dB from the defining formulas, at 50 digits:
    mu is read as the exact value of its float, chi as 1/sqrt(2)."""
    with localcontext() as ctx:
        ctx.prec = 50
        mu = Decimal(mu)
        if attack == "pns":
            numerator = Decimal("0.625") * (1 - (-mu).exp() * (1 + mu)) ** 2
        else:
            p = (1 + (1 - Decimal(1) / 8).sqrt()) / 2  # chi^6 = 1/8
            i3 = 1 + (p * p.ln() + (1 - p) * (1 - p).ln()) / Decimal(2).ln()
            numerator = (i3 * (-mu).exp() * mu ** 3 / 6) ** 3
        return -10 * (-(1 - numerator).ln() / mu).log10()


def test_exact_loss_db_reference():
    assert str(_exact_loss_db("pns", 0.1)).startswith("38.638405936175441897")


def test_critical_distance_synthetic():
    # eta_c = 0.01 at mu = 1: a 20 dB crossing, 80 km at 0.25 dB/km.
    l_c, delta_c = critical_distance(0.25, 1.0, -math.expm1(-0.01), 400.0)
    assert l_c == pytest.approx(80.0, rel=1e-14)
    assert delta_c == pytest.approx(20.0, rel=1e-14)


def _assert_matches_decimal(attack, numerator, mu, max_km):
    loss_db = float(_exact_loss_db(attack, mu))
    l_c, delta_c = critical_distance(0.25, mu, numerator(mu), max_km)
    assert delta_c == pytest.approx(loss_db, rel=1e-13, abs=0.0)
    assert l_c == pytest.approx(loss_db / 0.25, rel=1e-13, abs=0.0)


def test_critical_distance_pns():
    _assert_matches_decimal("pns", numerator_pns, 0.1, 400.0)


def test_critical_distance_irud():
    _assert_matches_decimal("irud", numerator_irud, 0.2, 600.0)


@pytest.mark.parametrize("numerator,mu", [(numerator_pns, 0.1), (numerator_irud, 0.2)],
                         ids=["pns", "irud"])
def test_critical_loss_does_not_depend_on_alpha(numerator, mu):
    # The crossing is a loss: delta_c is one float at any attenuation.
    losses = {critical_distance(alpha, mu, numerator(mu), 500.0)[1]
              for alpha in (0.25, 10.0, 1000.0, 1e6, 1e308)}
    assert len(losses) == 1


def test_critical_distance_requires_crossing():
    for alpha, mu, numerator, max_km, message in (
        # N = 0, also where the numerator underflows.
        (0.25, 0.1, 0.0, 100.0, "info(0)=0, info(hi)=0"),
        (0.25, 1e-320, numerator_pns(1e-320), 100.0, "info(0)=0, info(hi)=0"),
        (0.25, 1e-300, numerator_irud(1e-300), 2000.0, "info(0)=0, info(hi)=0"),
        # info(0) >= 1: N >= 1 - exp(-mu), and N >= 1, where log1p would raise.
        (0.25, 0.1, -math.expm1(-0.1), 100.0, "info(0)=1, info(hi)=300.978"),
        (0.25, 0.1, 1.0, 100.0, "info(0)=10.5083, info(hi)=3162.78"),
        (0.25, 0.1, 2.0, 100.0, "info(0)=21.0167, info(hi)=6325.56"),
        # l_c beyond max_km, also on a lossless link and at max_km = 0.
        (0.25, 0.1, numerator_pns(0.1), 100.0, "info(0)=0.000143777, info(hi)=0.0432738"),
        (0.0, 0.1, numerator_pns(0.1), 100.0, "info(0)=0.000143777, info(hi)=0.000143777"),
        (0.25, 0.1, numerator_pns(0.1), 0.0, "info(0)=0.000143777, info(hi)=0.000143777"),
    ):
        with pytest.raises(ValueError) as refusal:
            critical_distance(alpha, mu, numerator, max_km)
        assert str(refusal.value) == f"no crossing on [0, {max_km}] km: {message}"


@pytest.mark.parametrize("args,message", [
    ((0.25, 0.1, 1e-5, math.nan), "max_km must lie in [0, inf), got nan"),
    ((0.25, 0.1, 1e-5, -1.0), "max_km must lie in [0, inf), got -1.0"),
    ((math.nan, 0.1, 1e-5, 500.0), "alpha must lie in [0, inf), got nan"),
    ((math.inf, 0.1, 1e-5, 500.0), "alpha must lie in [0, inf), got inf"),
    ((0.25, 0.0, 1e-5, 500.0), "mu must lie in (0, inf), got 0.0"),
    ((0.25, math.nan, 1e-5, 500.0), "mu must lie in (0, inf), got nan"),
])
def test_critical_distance_names_its_inputs(args, message):
    # Named as the CLI names them: a NaN max_km was once reported as a length.
    with pytest.raises(ValueError) as refusal:
        critical_distance(*args)
    assert str(refusal.value) == message

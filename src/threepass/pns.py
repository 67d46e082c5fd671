"""Photon-number statistics, fiber loss, and multi-photon attack analysis.

A weak coherent pulse of mean photon number mu emits n photons with
Poissonian probability p(n, mu) = exp(-mu) mu^n / n!.  Fiber of attenuation
alpha dB/km and length l km transmits with probability
eta = 10^(-alpha*l/10).  Detectors are taken as perfect.

Two multi-photon attacks are quantified by the fraction of the key known to
the attacker as a function of distance:

* photon-number splitting with quantum storage (basis announcement leaks
  0.625 classical bits per position)::

      I1(l) = 0.625 * [sum_{n>=2} p(n, mu)]^2 / sum_{n>=1} p(n, mu*eta)

* intercept-resend with unambiguous discrimination on >= 3 photon pulses,
  requiring a conclusive result on all three passes::

      I2(l) = [I(3, chi) * p(3, mu)]^3 / sum_{n>=1} p(n, mu*eta)

  where I(n, chi) = 1 - h((1 + sqrt(1 - chi^(2n)))/2) is the attacker's
  maximal information from an n-photon pulse and chi is the overlap of the
  announced nonorthogonal state pair (1/sqrt(2) here).

Both formulas are evaluated exactly as written; information values above 1
are meaningful only as "the attacker knows everything", and the critical
distance is the crossing I(l) = 1.  Only the denominator depends on the
length, so the crossing is closed form (:func:`critical_distance`), and its
loss does not depend on alpha.  Both attacks take alpha, the length,
mu (and chi) as plain numbers, each checked by
:func:`threepass.qmath.in_range`.  The length may be an array: both attacks
then work elementwise and compute the distance-free numerator once per call;
a scalar length gives a float.  Published reference
figures for the second attack (delta_c = 75.7 dB, l_c = 302.8 km) disagree
with the formula as written, which crosses near 84.9 dB / 339.5 km; callers
should report both (the CLI does).
"""

from __future__ import annotations

import math

import numpy as np

from .qmath import binary_entropy, float_if_0d, in_range

DEFAULT_IRUD_OVERLAP = 1.0 / math.sqrt(2.0)

#: Published reference critical distance / attenuation for each attack.
REFERENCE_CRITICAL = {
    "pns": {"l_km": 154.5, "delta_db": 38.625},
    "irud": {"l_km": 302.8, "delta_db": 75.7},
}


def poisson_pmf(n: int, mu: float) -> float:
    """p(n, mu) = exp(-mu) mu^n / n!, evaluated in log space for stability."""
    if not (n >= 0 and n % 1 == 0):  # NaN and inf fail too
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    in_range("mu", mu, 0.0, math.inf, "[)")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def poisson_tail(k: int, mu):
    """P(n >= k) for a Poisson mean ``mu`` in [0, inf).

    The k = 1 case uses expm1 so that tiny means (long fibers) keep full
    precision, and takes ``mu`` as an array.  For k >= 2 and mu < 1 the
    complement 1 - sum_{n<k} p(n, mu) would cancel (it is 0.0 at k = 2,
    mu = 1e-8), so the tail is summed directly: its terms shrink by
    mu/(n+1) <= 1/3 each, and the sum stops once a term no longer changes it.
    """
    in_range("mu", mu, 0.0, math.inf, "[)")
    if k <= 0:
        return 1.0
    if k == 1:
        return float_if_0d(-np.expm1(np.negative(mu)))
    if mu < 1.0:
        total, term, n = 0.0, poisson_pmf(k, mu), k
        while total + term != total:
            total += term
            n += 1
            term *= mu / n
        return total
    return 1.0 - sum(poisson_pmf(n, mu) for n in range(k))


def transmittance(alpha: float, length) -> float | np.ndarray:
    """eta = 10^(-alpha*length/10) for ``alpha`` dB/km over ``length`` km,
    elementwise over an array of lengths; both lie in [0, inf)."""
    in_range("alpha", alpha, 0.0, math.inf, "[)")
    in_range("length", length, 0.0, math.inf, "[)")
    return 10.0 ** (-(alpha * length) / 10.0)


def per_detection(numerator: float, alpha: float, length, mu: float) -> float | np.ndarray:
    """``numerator`` over the detection probability sum_{n>=1} p(n, mu*eta):
    the attacker's key fraction for an attack's distance-free numerator
    (:func:`numerator_pns`, :func:`numerator_irud`), which a caller computes
    once for any number of lengths.

    A link so long that no photon arrives (the loss overflows or eta
    underflows to 0) leaves the attacker knowing everything: IEEE division
    then gives inf.
    """
    with np.errstate(over="ignore", divide="ignore"):
        eta = transmittance(alpha, length)
        if numerator == 0.0:  # a tiny mu: 0 at every length, where mu*eta may underflow too
            return float_if_0d(np.zeros(np.shape(length)))
        return float_if_0d(np.divide(numerator, poisson_tail(1, mu * eta)))


def numerator_pns(mu: float) -> float:
    """N = 0.625 P(n >= 2)^2 of the storage attack, for ``mu`` in (0, inf)."""
    in_range("mu", mu, 0.0, math.inf, "()")
    return 0.625 * poisson_tail(2, mu) ** 2


def eve_info_pns(alpha: float, length, mu: float) -> float | np.ndarray:
    """Attacker's key fraction under the storage attack; raw (unclamped) value."""
    return per_detection(numerator_pns(mu), alpha, length, mu)


def unambiguous_info(n: int, chi: float) -> float:
    """I(n, chi) = 1 - h(P) with P = (1 + sqrt(1 - chi^(2n)))/2, in [0, 1]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    in_range("chi", chi, 0.0, 1.0)
    return 1.0 - binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - chi ** (2 * n))))


def numerator_irud(mu: float, chi: float = DEFAULT_IRUD_OVERLAP) -> float:
    """N = (I(3, chi) p(3, mu))^3 of unambiguous discrimination, ``mu`` in (0, inf)."""
    in_range("mu", mu, 0.0, math.inf, "()")
    return (unambiguous_info(3, chi) * poisson_pmf(3, mu)) ** 3


def eve_info_irud(alpha: float, length, mu: float,
                  chi: float = DEFAULT_IRUD_OVERLAP) -> float | np.ndarray:
    """Attacker's key fraction under unambiguous discrimination; raw value."""
    return per_detection(numerator_irud(mu, chi), alpha, length, mu)


def critical_distance(alpha: float, mu: float, numerator: float,
                      max_km: float) -> tuple[float, float]:
    """Solve N / (1 - exp(-mu eta(l))) = 1 for an attack's ``numerator`` N;
    returns (l_c in km, delta_c in dB), with max_km and alpha in [0, inf).

    eta_c = -log1p(-N)/mu gives delta_c = -10 log10(eta_c) dB at every alpha,
    taken as a difference of logs so that eta_c cannot underflow, and
    l_c = delta_c/alpha.  Only 0 < l_c < max_km is a crossing.
    """
    in_range("max_km", max_km, 0.0, math.inf, "[)")
    in_range("alpha", alpha, 0.0, math.inf, "[)")
    in_range("mu", mu, 0.0, math.inf, "()")
    if 0.0 < numerator < 1.0 and alpha > 0.0:  # log1p raises at N >= 1
        delta_c = 10.0 * (math.log10(mu) - math.log10(-math.log1p(-numerator)))
        l_c = delta_c / alpha
        if 0.0 < l_c < max_km:
            return l_c, delta_c
    info = lambda l: per_detection(numerator, alpha, l, mu)
    raise ValueError(f"no crossing on [0, {max_km}] km: info(0)={info(0.0):.6g}, "
                     f"info(hi)={info(max_km):.6g}")

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
distance is the crossing I(l) = 1.  A :class:`FiberLink` length may be an
array: both attacks then work elementwise and compute the distance-free
numerator once per call; a scalar length gives a float.  Published reference
figures for the second attack (delta_c = 75.7 dB, l_c = 302.8 km) disagree
with the formula as written, which crosses near 84.9 dB / 339.5 km; callers
should report both (the CLI does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qmath import binary_entropy, float_if_0d
from .secrate import BracketError, find_threshold

DEFAULT_IRUD_OVERLAP = 1.0 / math.sqrt(2.0)

#: Published reference critical distance / attenuation for each attack.
REFERENCE_CRITICAL = {
    "pns": {"l_km": 154.5, "delta_db": 38.625},
    "irud": {"l_km": 302.8, "delta_db": 75.7},
}

#: Largest error in dB of a critical loss: 0.01 km at 0.25 dB/km.
CRITICAL_LOSS_TOL_DB = 0.0025


def poisson_pmf(n: int, mu: float) -> float:
    """p(n, mu) = exp(-mu) mu^n / n!, evaluated in log space for stability."""
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def poisson_tail(k: int, mu):
    """P(n >= k) for a Poisson mean ``mu``.

    The k = 1 case uses expm1 so that tiny means (long fibers) keep full
    precision, and takes ``mu`` as an array.  For k >= 2 and mu < 1 the
    complement 1 - sum_{n<k} p(n, mu) would cancel (it is 0.0 at k = 2,
    mu = 1e-8), so the tail is summed directly: its terms shrink by
    mu/(n+1) <= 1/3 each, and the sum stops once a term no longer changes it.
    """
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


@dataclass(frozen=True)
class WcpSource:
    """Weak coherent pulse source of mean photon number ``mu``."""

    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mean photon number must be positive and finite, got {self.mu}")


@dataclass(frozen=True)
class FiberLink:
    """Fiber of ``alpha`` dB/km attenuation and ``length`` km (or an array of them)."""

    alpha: float
    length: float | np.ndarray

    def __post_init__(self) -> None:
        # Comparisons that NaN fails.
        if not (0.0 <= self.alpha < math.inf
                and np.all((0.0 <= self.length) & (self.length < math.inf))):
            raise ValueError("attenuation and length must be nonnegative and finite, "
                             f"got alpha={self.alpha}, length={self.length}")

    @property
    def loss_db(self) -> float | np.ndarray:
        return self.alpha * self.length


def transmittance(link: FiberLink) -> float | np.ndarray:
    """eta = 10^(-alpha*length/10), elementwise over the link's lengths."""
    return 10.0 ** (-link.loss_db / 10.0)


def _per_detection(numerator: float, link: FiberLink, source: WcpSource) -> float | np.ndarray:
    """``numerator`` over the detection probability sum_{n>=1} p(n, mu*eta).

    A link so long that no photon arrives (the loss overflows or eta
    underflows to 0) leaves the attacker knowing everything: IEEE division
    then gives inf.
    """
    if numerator == 0.0:  # a tiny mu: 0 at every length, where mu*eta may underflow too
        return float_if_0d(np.zeros(np.shape(link.length)))
    with np.errstate(over="ignore", divide="ignore"):
        detected = poisson_tail(1, source.mu * transmittance(link))
        return float_if_0d(np.divide(numerator, detected))


def eve_info_pns(link: FiberLink, source: WcpSource) -> float | np.ndarray:
    """Attacker's key fraction under the storage attack; raw (unclamped) value."""
    return _per_detection(0.625 * poisson_tail(2, source.mu) ** 2, link, source)


def unambiguous_info(n: int, chi: float) -> float:
    """I(n, chi) = 1 - h(P) with P = (1 + sqrt(1 - chi^(2n)))/2, in [0, 1]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= chi <= 1.0:
        raise ValueError(f"chi must lie in [0, 1], got {chi}")
    return 1.0 - binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - chi ** (2 * n))))


def eve_info_irud(link: FiberLink, source: WcpSource,
                  chi: float = DEFAULT_IRUD_OVERLAP) -> float | np.ndarray:
    """Attacker's key fraction under unambiguous discrimination; raw value.

    The cube applies to the product I(3, chi) * p(3, mu): a conclusive
    result is needed on each of the three passes.
    """
    return _per_detection((unambiguous_info(3, chi) * poisson_pmf(3, source.mu)) ** 3,
                          link, source)


def critical_distance(info_fn: Callable[[float], float], alpha: float,
                      hi_km: float, tol_km: float = 0.01) -> tuple[float, float]:
    """Solve info_fn(l) = 1; returns (l_c in km, delta_c in dB).

    Requires info_fn(0) < 1 < info_fn(hi_km); the information functions here
    increase monotonically with distance because only the expected-detection
    denominator depends on it.  The root is Chandrupatla's method,
    :func:`threepass.secrate.find_threshold`, on the margin 1 - info_fn(l).
    It is solved to min(tol_km, CRITICAL_LOSS_TOL_DB / alpha) km, so l_c is
    within tol_km and delta_c = alpha l_c within 0.0025 dB whatever alpha
    (at 0.25 dB/km the two bounds agree).  A lossless link (alpha = 0), or
    an alpha the link refuses, keeps tol_km.
    """
    if 0.0 < alpha < math.inf:
        tol_km = min(tol_km, CRITICAL_LOSS_TOL_DB / alpha)
    try:
        l_c = find_threshold(lambda l: 1.0 - info_fn(l), 0.0, hi_km, tol_km)
    except BracketError:
        raise ValueError(
            f"no crossing on [0, {hi_km}] km: info(0)={info_fn(0.0):.6g}, "
            f"info(hi)={info_fn(hi_km):.6g}"
        ) from None
    return l_c, alpha * l_c

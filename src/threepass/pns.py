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
    """P(n >= k), computed as 1 - sum_{n<k} p(n, mu) for accuracy.

    For mu*k small this is dominated by the complement sum; the k = 1 case
    uses expm1 so that tiny means (long fibers) keep full precision, and
    takes ``mu`` as an array.
    """
    if k <= 0:
        return 1.0
    if k == 1:
        return float_if_0d(-np.expm1(np.negative(mu)))
    return 1.0 - sum(poisson_pmf(n, mu) for n in range(k))


@dataclass(frozen=True)
class WcpSource:
    """Weak coherent pulse source of mean photon number ``mu``."""

    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mean photon number must be positive and finite, got {self.mu}")

    def pmf(self, n: int) -> float:
        return poisson_pmf(n, self.mu)

    def tail(self, k: int) -> float:
        return poisson_tail(k, self.mu)


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
    with np.errstate(over="ignore", divide="ignore"):
        detected = poisson_tail(1, source.mu * transmittance(link))
        return float_if_0d(np.divide(numerator, detected))


def eve_info_pns(link: FiberLink, source: WcpSource) -> float | np.ndarray:
    """Attacker's key fraction under the storage attack; raw (unclamped) value."""
    return _per_detection(0.625 * source.tail(2) ** 2, link, source)


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
    return _per_detection((unambiguous_info(3, chi) * source.pmf(3)) ** 3, link, source)


def critical_distance(info_fn: Callable[[float], float], alpha: float,
                      hi_km: float, tol_km: float = 0.01) -> tuple[float, float]:
    """Solve info_fn(l) = 1 by bisection; returns (l_c in km, delta_c in dB).

    Requires info_fn(0) < 1 < info_fn(hi_km); the information functions here
    increase monotonically with distance because only the expected-detection
    denominator depends on it.  The bisection is
    :func:`threepass.secrate.find_threshold` on the margin 1 - info_fn(l).
    """
    try:
        l_c = find_threshold(lambda l: 1.0 - info_fn(l), 0.0, hi_km, tol_km)
    except BracketError:
        raise ValueError(
            f"no crossing on [0, {hi_km}] km: info(0)={info_fn(0.0):.6g}, "
            f"info(hi)={info_fn(hi_km):.6g}"
        ) from None
    return l_c, alpha * l_c

"""Closed-form key rates, collective-attack bounds, and protocol efficiency.

Two families of tolerable-error thresholds are computed.

Return-pass (step 3) rates compare the mutual information of the four-state
measurement record against the eavesdropper entropy ceiling 2h(e), or h(e)
once the basis parity Y = j_A xor j_B is announced::

    r = 1 + (1-e)/2 log2((1-e)/2) + e/2 log2(e/2) - c_Y h(e)

Sifted-key rates use the post-sifting conditional entropy h(1/6 + 2e/3),
subtracting 2h(e), or h(e) once the bit parity X = a xor b is announced::

    r = 1 - h(1/6 + 2e/3) - c_X h(e)

Collective-attack bounds evaluate spectral entropies of the eavesdropper's
conditional states (see :func:`threepass.qmath.eve_state`) under a bit-flip
pre-processing channel of probability q applied by Alice.  Both bound rates
satisfy rate(e, q) == rate(e, 1-q) and vanish identically at q = 1/2, so
thresholds are reported as the supremum over q in [0, 1/2) of the zero
crossing in e.

A note on the upper bound: the published closed form chi(E) - [H(b|c) - H(b)]
is the sum of a Holevo quantity and the mutual information 1 - h(...), both
nonnegative, so it has no zero crossing in e and cannot define a threshold.
:func:`upper_bound_rate` returns that expression as documented;
:func:`upper_bound_crossing` returns the information margin
chi(E) - [H(b) - H(b|c)] whose sign change (Eve's ceiling overtaking the
Alice-Bob mutual information) is what a threshold can be extracted from.

Reference threshold values as published: 0.0314 and 0.0617 for the
return pass, 0.0316 and 0.15 for the sifted key, 0.124 and 0.114 for the
lower/upper collective-attack bounds.  Three of these (0.0316, 0.15, 0.114)
are not reproducible from the defining formulas above; the computed values
are 0.0230, 0.0485, and 0.1201.  The CLI prints both sides with deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .qmath import (
    binary_entropy,
    eve_state,
    maximizing_mu4,
    mixture_from_qber,
    validate_qber,
    von_neumann_entropy,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Published reference values for the six section-III thresholds.
REFERENCE_THRESHOLDS = {
    "sb1": 0.0314,
    "sb1_announced": 0.0617,
    "sifted": 0.0316,
    "sifted_announced": 0.15,
    "lower_bound": 0.124,
    "upper_bound": 0.114,
}


class BracketError(ValueError):
    """Raised when a root bracket does not straddle zero."""


def key_rate_sb1(e: float, announce_y: bool = False) -> float:
    """Return-pass key rate; subtracts 2h(e), or h(e) with Y announced.

    Endpoint values at e = 0 and e = 1/2 are the continuity limits
    (x log x -> 0), giving 0.5 and -c_Y respectively.
    """
    e = validate_qber(e)
    c_y = 1.0 if announce_y else 2.0
    mutual = 1.0
    if e > 0.0:
        mutual += (e / 2.0) * math.log2(e / 2.0)
    if e < 1.0:
        mutual += ((1.0 - e) / 2.0) * math.log2((1.0 - e) / 2.0)
    return mutual - c_y * binary_entropy(e)


def key_rate_sifted(e: float, announce_x: bool = False) -> float:
    """Sifted-key rate 1 - h(1/6 + 2e/3) - c_X h(e); c_X = 1 with X announced."""
    e = validate_qber(e)
    c_x = 1.0 if announce_x else 2.0
    return 1.0 - binary_entropy(1.0 / 6.0 + 2.0 * e / 3.0) - c_x * binary_entropy(e)


def find_threshold(rate_fn: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-6) -> float:
    """Bisection root of a decreasing rate function on [lo, hi].

    Requires rate_fn(lo) > 0 > rate_fn(hi); raises :class:`BracketError`
    otherwise.  The returned point has bracket width <= tol.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    f_lo, f_hi = rate_fn(lo), rate_fn(hi)
    if not (f_lo > 0.0 > f_hi):
        raise BracketError(
            f"rate must straddle zero on the bracket: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rate_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _flip_error(e: float, q: float) -> float:
    return q * (1.0 - e) + (1.0 - q) * e


def lower_bound_rate(e: float, q: float, mu4: Optional[float] = None) -> float:
    """Lower collective-attack bound S(E|c) - S(E) - [H(b|c) - H(b)].

    ``q`` is Alice's pre-processing bit-flip probability; ``mu4`` defaults to
    the entropy-maximizing value e**2.
    """
    e = validate_qber(e)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    mix = mixture_from_qber(e, maximizing_mu4(e) if mu4 is None else mu4)
    s0 = eve_state(mix, 0).matrix
    s1 = eve_state(mix, 1).matrix
    cond = (0.5 * von_neumann_entropy((1.0 - q) * s0 + q * s1)
            + 0.5 * von_neumann_entropy(q * s0 + (1.0 - q) * s1))
    unc = von_neumann_entropy(0.5 * (s0 + s1))
    return (cond - unc) - (binary_entropy(_flip_error(e, q)) - 1.0)


def _eve_projectors(mix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projectors onto the normalized ancilla states for the outcome pairs
    (0,0), (1,1), (0,+), (1,-), in the ancilla basis."""
    r = np.sqrt(np.maximum(mix.as_array(), 0.0))
    v00 = np.array([r[0], r[1], 0.0, 0.0])
    v11 = np.array([r[0], -r[1], 0.0, 0.0])
    v0p = np.array([r[0], r[1], r[2], r[3]])
    v1m = np.array([-r[0], r[1], r[2], -r[3]])
    out = []
    for v in (v00, v11, v0p, v1m):
        norm = np.linalg.norm(v)
        v = v / norm if norm > 0.0 else v
        out.append(np.outer(v, v))
    return tuple(out)


def holevo_chi(e: float, q: float, mu4: Optional[float] = None) -> float:
    """Holevo quantity of Eve's measured four-state ensemble under bit flip q."""
    e = validate_qber(e)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    mix = mixture_from_qber(e, maximizing_mu4(e) if mu4 is None else mu4)
    p00, p11, p0p, p1m = _eve_projectors(mix)
    avg = (p00 + p11) / 3.0 + (p0p + p1m) / 6.0
    given_0 = (2.0 * p00 + p0p) / 3.0
    given_1 = (2.0 * p11 + p1m) / 3.0
    return (
        von_neumann_entropy(avg)
        - 0.5 * von_neumann_entropy((1.0 - q) * given_0 + q * given_1)
        - 0.5 * von_neumann_entropy(q * given_0 + (1.0 - q) * given_1)
    )


def upper_bound_rate(e: float, q: float, mu4: Optional[float] = None) -> float:
    """The published upper-bound expression chi(E) - [H(b|c) - H(b)].

    Both chi(E) and -[H(b|c) - H(b)] = 1 - h(...) are nonnegative, so this
    quantity is nonnegative everywhere and vanishes only on the line q = 1/2;
    it has no zero crossing in e.  See :func:`upper_bound_crossing` for the
    sign-definite margin used to extract a threshold.
    """
    return holevo_chi(e, q, mu4) - (binary_entropy(_flip_error(e, q)) - 1.0)


def upper_bound_crossing(e: float, q: float, mu4: Optional[float] = None) -> float:
    """Information margin [H(b) - H(b|c)] - chi(E).

    Positive while the Alice-Bob mutual information exceeds Eve's Holevo
    ceiling; its zero in e is the upper-bound threshold.
    """
    return (1.0 - binary_entropy(_flip_error(e, q))) - holevo_chi(e, q, mu4)


def golden_section_max(fn: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc > fd else (d, fd)


def optimize_preprocessing(bound_fn: Callable[[float, float], float],
                           e: float, tol: float = 1e-6) -> tuple[float, float]:
    """Maximize a bound rate over the bit-flip probability q on [0, 1/2].

    The q <-> 1-q symmetry of both bound rates makes the upper half of the
    unit interval redundant.  Returns (q*, rate at q*).
    """
    return golden_section_max(lambda q: bound_fn(e, q), 0.0, 0.5, tol)


# q = 1/2 zeroes both bound rates identically, so the threshold supremum is
# taken on a grid up to just below it, then refined by golden section.
_Q_MAX = 0.4999


def bound_threshold(rate_fn: Callable[[float, float], float],
                    q_grid: int = 26, tol: float = 1e-7) -> tuple[float, float]:
    """Supremum over q in [0, 1/2) of the zero crossing of rate_fn(., q).

    Returns (threshold e, maximizing q).  ``rate_fn(e, q)`` must be
    decreasing in e with a sign change on (0, 0.45) for the relevant q.
    """

    def root_at(q: float) -> float:
        try:
            return find_threshold(lambda e: rate_fn(e, q), 1e-4, 0.45, tol)
        except BracketError:
            return -1.0

    grid = np.linspace(0.0, _Q_MAX, q_grid)
    roots = [root_at(q) for q in grid]
    i = int(np.argmax(roots))
    if roots[i] < 0.0:
        raise BracketError("no zero crossing in e for any q in [0, 1/2)")
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    q_star, best = golden_section_max(root_at, lo, hi, tol=1e-4)
    if roots[i] > best:
        q_star, best = grid[i], roots[i]
    return float(best), float(q_star)


def lower_bound_threshold(mu4: Optional[float] = None) -> tuple[float, float]:
    """Largest e with a positive lower bound for some q; returns (e, q*)."""
    return bound_threshold(lambda e, q: lower_bound_rate(e, q, mu4))


def upper_bound_threshold(mu4: Optional[float] = None) -> tuple[float, float]:
    """Largest e with positive information margin for some q; returns (e, q*)."""
    return bound_threshold(lambda e, q: upper_bound_crossing(e, q, mu4))


@dataclass(frozen=True)
class EfficiencyInputs:
    """Secret bits, transmitted qubits, and classical bits per position."""

    b_s: float
    q_t: float
    b_t: float

    def __post_init__(self) -> None:
        if self.q_t <= 0.0:
            raise ValueError("q_t must be positive")
        if self.b_s < 0.0 or self.b_t < 0.0:
            raise ValueError("b_s and b_t must be nonnegative")


#: Per-protocol resource accounting used in the efficiency comparison.
EFFICIENCY_PRESETS = {
    "p1": EfficiencyInputs(b_s=0.75, q_t=3.0, b_t=0.625),
    "p2": EfficiencyInputs(b_s=0.9375, q_t=3.0, b_t=0.75),
    "sarg04": EfficiencyInputs(b_s=0.25, q_t=1.0, b_t=1.0),
}


def cabello_efficiency(inputs: EfficiencyInputs) -> float:
    """Secret bits per transmitted qubit plus classical bit: b_s/(q_t + b_t)."""
    total = inputs.q_t + inputs.b_t
    if total <= 0.0:
        raise ValueError("q_t + b_t must be positive")
    return inputs.b_s / total

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
satisfy rate(e, q) == rate(e, 1-q) and vanish identically at q = 1/2.  Their
zero crossing in e increases strictly with q on [0, 1/2), as Kraus, Gisin
and Renner found for BB84 (PRL 95, 080502, 2005), so the threshold is the
q -> 1/2 limit of that crossing, evaluated at q = 0.4999.

The two closed-form rates take an array of e, the bound functions
broadcastable arrays of (e, q) and a scalar mu4; a scalar call is the same
code on 0-d arrays returning a float.  The lower bound is closed form: Eve's
states have rank-one 2x2 blocks, so every q-mixture has the 2x2 spectrum of
:func:`threepass.qmath.eve_mixture_spectrum`.  The Holevo term of the upper
bound is a genuine 4x4 and costs one batched ``eigvalsh`` per call.
:func:`bound_threshold` is one :func:`find_threshold` root at that q.

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

# eve_state (imported) and golden_section_max (below) have no caller in the
# package; both stay in this namespace because perfbench/tracing.py patches
# them there and fails on a missing name.
from .qmath import (  # noqa: F401
    bell_weights,
    binary_entropy,
    eve_mixture_spectrum,
    eve_state,
    float_if_0d,
    in_range,
    maximizing_mu4,
    spectral_entropy,
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


def key_rate_sb1(e, announce_y: bool = False):
    """Return-pass key rate; subtracts 2h(e), or h(e) with Y announced.

    Endpoint values at e = 0 and e = 1/2 are the continuity limits
    (x log x -> 0), giving 0.5 and -c_Y respectively.
    """
    e = in_range("QBER must lie", e, 0.0, 0.5)
    c_y = 1.0 if announce_y else 2.0
    mutual = 1.0 - spectral_entropy(np.stack([e / 2.0, (1.0 - e) / 2.0], axis=-1))
    return float_if_0d(mutual - c_y * binary_entropy(e))


def key_rate_sifted(e, announce_x: bool = False):
    """Sifted-key rate 1 - h(1/6 + 2e/3) - c_X h(e); c_X = 1 with X announced."""
    e = in_range("QBER must lie", e, 0.0, 0.5)
    c_x = 1.0 if announce_x else 2.0
    return float_if_0d(1.0 - binary_entropy(1.0 / 6.0 + 2.0 * e / 3.0)
                       - c_x * binary_entropy(e))


def find_threshold(rate_fn: Callable, lo, hi, tol: float = 1e-6):
    """Bisection root of a decreasing rate function on [lo, hi], elementwise.

    ``rate_fn`` may return an array of rates, with ``lo`` and ``hi``
    broadcasting against it: every element is then bisected on its own
    bracket, in one loop, exactly as a scalar call would bisect it.  An
    element needs rate_fn(lo) > 0 > rate_fn(hi); one that does not gives NaN,
    and :class:`BracketError` is raised when no element does (so a scalar
    call either brackets or raises).  Each returned point has bracket width
    <= tol, or the float spacing when tol is smaller.  A scalar call returns
    a float.  A tol that is not below the width of a bracketed element
    raises ValueError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    f_lo, f_hi = rate_fn(lo), rate_fn(hi)
    bracketed = np.greater(f_lo, 0.0) & np.less(f_hi, 0.0)
    if not bracketed.any():
        raise BracketError(
            f"rate must straddle zero on the bracket: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    # Such a tol would return the bracket midpoint unbisected.
    if np.any(bracketed & (hi - lo <= tol)):
        raise ValueError(f"tol must be below the bracket width, got tol={tol} "
                         f"on [{lo}, {hi}]")
    active = bracketed.copy()  # narrowed in place below
    while active.any():
        mid = 0.5 * (lo + hi)
        # Below the float spacing the midpoint no longer splits the bracket.
        active &= (lo < mid) & (mid < hi)
        positive = np.greater(rate_fn(mid), 0.0)
        lo = np.where(active & positive, mid, lo)
        hi = np.where(active & ~positive, mid, hi)
        active &= hi - lo > tol
    return float_if_0d(np.where(bracketed, 0.5 * (lo + hi), np.nan))


def _bound_inputs(e, q, mu4: Optional[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (e, q) broadcast to one shape, and the Bell weights (..., 4)
    of (e, mu4) with mu4 defaulting to the maximizer e**2."""
    e, q = np.broadcast_arrays(np.asarray(e, dtype=float), in_range("q must lie", q, 0.0, 1.0))
    return e, q, bell_weights(e, maximizing_mu4(e) if mu4 is None else mu4)


def _mutual_information(e, q):
    """H(b) - H(b|c) = 1 - h(q(1-e) + (1-q)e): bit flip q on top of QBER e."""
    e, q = np.asarray(e, dtype=float), np.asarray(q, dtype=float)
    return 1.0 - binary_entropy(q * (1.0 - e) + (1.0 - q) * e)


def lower_bound_rate(e, q, mu4: Optional[float] = None):
    """Lower collective-attack bound S(E|c) - S(E) - [H(b|c) - H(b)].

    ``q`` is Alice's pre-processing bit-flip probability; ``mu4`` defaults to
    the entropy-maximizing value e**2.  The two q-mixtures of Eve's states
    are isospectral, so S(E|c) is the entropy of one closed-form spectrum and
    S(E) that of the q = 1/2 mixture, which makes the rate exactly 0 at
    q = 1/2.  ``e`` and ``q`` broadcast; a scalar call returns a float.
    """
    e, q, weights = _bound_inputs(e, q, mu4)
    cond = spectral_entropy(eve_mixture_spectrum(weights, q))
    unc = spectral_entropy(eve_mixture_spectrum(weights, 0.5))
    return (cond - unc) + _mutual_information(e, q)


# Ancilla vectors for the outcome pairs (0,0), (1,1), (0,+), (1,-): the sign
# pattern (0 drops a component) applied to sqrt(mu).
_OUTCOME_SIGNS = np.array([[1.0, 1.0, 0.0, 0.0],
                           [1.0, -1.0, 0.0, 0.0],
                           [1.0, 1.0, 1.0, 1.0],
                           [-1.0, 1.0, 1.0, -1.0]])


def holevo_chi(e, q, mu4: Optional[float] = None):
    """Holevo quantity of Eve's measured four-state ensemble under bit flip q.

    chi = S(avg) - [S(rho_q) + S(rho_(1-q))]/2 with rho_q the q-mixture of
    Eve's states given b = 0 and b = 1.  diag(1, -1, 1, -1) maps rho_q to
    rho_(1-q), so the two are isospectral and both entropies come from one
    batched ``eigvalsh`` over the stacked (avg, rho_q) pairs.  ``e`` and
    ``q`` broadcast; a scalar call returns a float.
    """
    _, q, weights = _bound_inputs(e, q, mu4)
    vectors = _OUTCOME_SIGNS * np.sqrt(weights)[..., None, :]
    # Squared norms are 1 - e >= 1/2 or 1, so the division is always defined.
    vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    # Outcome weights of the average state and of rho_q: (2 p00 + p0p)/3
    # given b = 0 and (2 p11 + p1m)/3 given b = 1.
    p = 1.0 - q
    mix = np.stack([np.broadcast_to([1 / 3, 1 / 3, 1 / 6, 1 / 6], weights.shape),
                    np.stack([2.0 * p, 2.0 * q, p, q], axis=-1) / 3.0], axis=-2)
    states = np.einsum("...sk,...ki,...kj->...sij", mix, vectors, vectors)
    entropies = von_neumann_entropy(states)
    return float_if_0d(entropies[..., 0] - entropies[..., 1])


def upper_bound_rate(e, q, mu4: Optional[float] = None):
    """The published upper-bound expression chi(E) - [H(b|c) - H(b)].

    Both chi(E) and -[H(b|c) - H(b)] = 1 - h(...) are nonnegative, so this
    quantity is nonnegative everywhere and vanishes only on the line q = 1/2;
    it has no zero crossing in e.  See :func:`upper_bound_crossing` for the
    sign-definite margin used to extract a threshold.  Takes arrays like
    :func:`holevo_chi`.
    """
    chi = holevo_chi(e, q, mu4)
    return chi + _mutual_information(e, q)


def upper_bound_crossing(e, q, mu4: Optional[float] = None):
    """Information margin [H(b) - H(b|c)] - chi(E).

    Positive while the Alice-Bob mutual information exceeds Eve's Holevo
    ceiling; its zero in e is the upper-bound threshold.  Takes arrays like
    :func:`holevo_chi`.
    """
    chi = holevo_chi(e, q, mu4)
    return _mutual_information(e, q) - chi


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


# Both bound rates vanish identically at q = 1/2, so the supremum of their
# roots over q in [0, 1/2) is evaluated just below it.
_Q_MAX = 0.4999
_BOUND_TOL = 1e-7


def bound_threshold(rate_fn: Callable[[float, float], float]) -> tuple[float, float]:
    """Supremum over q in [0, 1/2) of the zero crossing of rate_fn(., q).

    Returns (threshold e, q*).  ``rate_fn(e, q)`` must be decreasing in e
    and change sign on (1e-4, 0.45) near q = 1/2.  For both bound rates the
    root in e increases strictly with q, so the supremum is the q -> 1/2
    limit; q = 1/2 itself zeroes the rates, so the root is taken at
    q* = 0.4999 with a 1e-7 tolerance.  Raises :class:`BracketError` when
    there is no crossing there.
    """
    return find_threshold(lambda e: rate_fn(e, _Q_MAX), 1e-4, 0.45, _BOUND_TOL), _Q_MAX


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
        if not (0.0 < self.q_t < math.inf and 0.0 <= self.b_s < math.inf
                and 0.0 <= self.b_t < math.inf):
            raise ValueError("efficiency inputs need 0 < q_t < inf, 0 <= b_s < inf and "
                             f"0 <= b_t < inf, got b_s={self.b_s}, q_t={self.q_t}, "
                             f"b_t={self.b_t}")


#: Per-protocol resource accounting used in the efficiency comparison.
EFFICIENCY_PRESETS = {
    "p1": EfficiencyInputs(b_s=0.75, q_t=3.0, b_t=0.625),
    "p2": EfficiencyInputs(b_s=0.9375, q_t=3.0, b_t=0.75),
    "sarg04": EfficiencyInputs(b_s=0.25, q_t=1.0, b_t=1.0),
}


def cabello_efficiency(inputs: EfficiencyInputs) -> float:
    """Secret bits per transmitted qubit plus classical bit: b_s/(q_t + b_t)."""
    return inputs.b_s / (inputs.q_t + inputs.b_t)

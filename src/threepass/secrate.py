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
:func:`threepass.qmath.eve_mixture_spectrum`.  The Holevo term of the
upper bound is closed form at the default mu4 = e**2, where rho_q has a
product spectrum and S(rho_q) = h(p+) + h(p-) (see :func:`holevo_chi`).
Under a given mu4 the average state still has a closed-form 2x2 block
spectrum, and rho_q is a genuine 4x4, one per point in one batched
``eigvalsh`` per call.
:func:`bound_threshold` is one :func:`find_threshold` root at that q.
Every threshold is a scalar root in e, found by Chandrupatla's bracketing
method, which interpolates where it can and bisects where it must.

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

# Three names have no caller in the package and stay only because
# perfbench/tracing.py looks each one up by name and fails on a missing one:
# eve_state (imported here; SPANS "qmath.eve_state" patches it in qmath and
# in this namespace), golden_section_max (below; SPANS
# "secrate.golden_section_max") and qmath.DensityMatrix4.__post_init__
# (COUNTERS "qmath.density_checks").
from .qmath import (  # noqa: F401
    bell_weights,
    binary_entropy,
    eve_mixture_spectrum,
    eve_state,
    float_if_0d,
    in_range,
    maximizing_mu4,
    spectral_entropy,
    symmetric_2x2_eigenvalues,
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


def find_threshold(rate_fn: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-6) -> float:
    """Root of a decreasing rate function on [lo, hi] by Chandrupatla's
    method (Adv. Eng. Software 28(3):145-149, 1997).

    Each step is inverse quadratic interpolation through the three latest
    points where Chandrupatla's test trusts it, and bisection otherwise; it
    lands at least tol/2 inside the bracket, so the bracket always holds the
    root.  Once the bracket is at most tol wide (or two float spacings, when
    tol is smaller), the secant point of its ends is returned, or the end
    with the smaller |rate| should that point leave the bracket.

    ``rate_fn`` takes a float and returns a scalar rate; the root is a
    float.  It needs rate_fn(lo) > 0 > rate_fn(hi), else
    :class:`BracketError` is raised; a tol that is not below hi - lo
    raises ValueError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = rate_fn(lo), rate_fn(hi)
    if not (f_lo > 0.0 and f_hi < 0.0):
        raise BracketError(
            f"rate must straddle zero on the bracket: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    # Such a tol would return the secant point of the unsearched bracket.
    if hi - lo <= tol:
        raise ValueError(f"tol must be below the bracket width, got tol={tol} "
                         f"on [{lo}, {hi}]")
    # a is the newest point, b the other end of the bracket, c the end that
    # the newest point replaced; t places the next point at a + t (b - a).
    # They are float64 scalars, so a zero or infinite difference in the
    # interpolation gives inf or NaN under errstate rather than raising.
    a, b, fa, fb = np.float64(lo), np.float64(hi), np.float64(f_lo), np.float64(f_hi)
    t = 0.5
    while True:
        width = abs(b - a)
        tol_x = max(tol, 2.0 * np.spacing(max(abs(a), abs(b))))
        if not (width > tol_x and fa != 0.0):
            break
        t_min = 0.5 * tol_x / width
        x = a + min(max(t, t_min), 1.0 - t_min) * (b - a)
        fx = np.float64(rate_fn(float(x)))
        # Keep b on the far side of the root from the new point.
        if (fx > 0.0) != (fa > 0.0):
            c, fc, b, fb = b, fb, a, fa
        else:
            c, fc = a, fa
        a, fa = x, fx
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            t_iqi = (fa / (fb - fa) * fc / (fb - fc)
                     + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
            # NaN anywhere fails the test, so bisection takes over.
            trusted = 1.0 - np.sqrt(1.0 - xi) < phi < np.sqrt(xi) and np.isfinite(t_iqi)
        t = t_iqi if trusted else 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = a - fa * (b - a) / (fb - fa)
    if not min(a, b) <= root <= max(a, b):
        root = a if abs(fa) <= abs(fb) else b
    return float(root)


def _bound_inputs(e, q, mu4: Optional[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (e, q) broadcast to one shape, and the Bell weights (..., 4)
    of (e, mu4) with mu4 defaulting to the maximizer e**2; a given mu4 is read
    as min(mu4, e) at each point, and a negative or NaN one is refused."""
    e, q = np.broadcast_arrays(np.asarray(e, dtype=float), in_range("q must lie", q, 0.0, 1.0))
    return e, q, bell_weights(e, maximizing_mu4(e) if mu4 is None else np.minimum(mu4, e))


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


def holevo_chi(e, q, mu4: Optional[float] = None):
    """Holevo quantity of Eve's measured four-state ensemble under bit flip q.

    chi = S(avg) - [S(rho_q) + S(rho_(1-q))]/2 with rho_q the q-mixture of
    Eve's states given b = 0 and b = 1.  diag(1, -1, 1, -1) maps rho_q to
    rho_(1-q), so the two are isospectral, and the average state is rho_q at
    q = 1/2, so chi = S(rho_(1/2)) - S(rho_q).

    At the default mu4 = e**2 the Bell weights factor as (1-e, e) x (1-e, e)
    and rho_q has the product spectrum {ab, a(1-b), (1-a)b, (1-a)(1-b)}, so
    S(rho_q) = h(a) + h(b).  With P = a(1-a) and Q = b(1-b) the invariants of
    rho_q are e2 = P + Q - 2PQ, e3 = PQ and e4 = (PQ)**2, and in terms of
    u = 4q(1-q) they are

        PQ    = (2/9) e**2 (1-e) u
        P + Q = (2e/9) [1 + u (5 - 7e + 4e**2 - 2e**3)]

    P+ is the larger root of z**2 - (P+Q) z + PQ and P- = PQ / P+ (no
    cancellation); p = 2P / (1 + sqrt(1 - 4P)) is the smaller root of
    p(1-p) = P, and S(rho_q) = h(p+) + h(p-).  Both u = 1 (the average
    state) and u = 4q(1-q) go through one entropy call, so chi is exactly 0
    at q = 1/2 and at e = 0.  No 4x4 matrix is built on this path.

    A given mu4 breaks the factorisation.  Then both states are closed form
    in the Bell weights w = (w0, w1, w1, w3), with k = (2/(1-e) + 1)/3 and
    d = 1 - 2q: the average state is block diagonal on the index pairs
    {0, 3} and {1, 2}, so its spectrum is two 2x2s; rho_q adds d times the
    entries that couple the blocks, and its entropy is one batched
    ``eigvalsh`` of one 4x4 per point.  Where those entries vanish (at
    q = 1/2, for one), rho_q is the average state and chi is exactly 0.
    ``e`` and ``q`` broadcast; a scalar call returns a float.
    """
    e, q, w = _bound_inputs(e, q, mu4)
    if mu4 is None:
        # u = 1 (the average state) and u = 4q(1-q) (rho_q) on a last axis.
        u = np.stack(np.broadcast_arrays(1.0, 4.0 * q * (1.0 - q)), axis=-1)
        e = e[..., None]
        pq = (2.0 / 9.0) * e * e * (1.0 - e) * u
        p_sum = (2.0 / 9.0) * e * (1.0 + u * (5.0 + e * (-7.0 + e * (4.0 - 2.0 * e))))
        # (P+ - P-)**2 and, below, 1 - 4P = (1 - 2p)**2 are squares that
        # rounding can take just below 0 (P+ = P- at e = 1/2, u = 4/9).
        p_plus = 0.5 * (p_sum + np.sqrt(np.maximum(p_sum * p_sum - 4.0 * pq, 0.0)))
        # (P+, P-), then (p+, p-); P+ = 0 only at e = 0, where PQ = 0 too.
        p = np.stack([p_plus, np.divide(pq, p_plus, out=np.zeros_like(pq),
                                        where=p_plus > 0.0)], axis=-1)
        p = 2.0 * p / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * p, 0.0)))
        s = spectral_entropy(np.concatenate([p, 1.0 - p], axis=-1))
        return float_if_0d(s[..., 0] - s[..., 1])
    # 1 - e >= 1/2, so k is always defined.
    k = (2.0 / (1.0 - e) + 1.0) / 3.0
    d = 1.0 - 2.0 * q
    w0, w1, w3 = w[..., 0], w[..., 1], w[..., 3]
    rho = np.zeros(e.shape + (4, 4))
    # The average state, blocks {0, 3} and {1, 2}.
    rho[..., 0, 0], rho[..., 3, 3] = k * w0, w3 / 3.0
    rho[..., 1, 1], rho[..., 2, 2] = k * w1, w1 / 3.0
    rho[..., 0, 3] = rho[..., 3, 0] = np.sqrt(w0 * w3) / 3.0
    rho[..., 1, 2] = rho[..., 2, 1] = w1 / 3.0
    # Block {i, j} for (i, j) = (0, 3), (1, 2): diagonal (rho_ii, rho_jj),
    # coupling rho_ij.
    s_avg = spectral_entropy(np.concatenate(symmetric_2x2_eigenvalues(
        rho[..., [0, 1], [0, 1]], rho[..., [3, 2], [3, 2]],
        rho[..., [0, 1], [3, 2]] ** 2), axis=-1))
    # rho_q adds d times the entries that couple the two blocks.
    r01 = np.sqrt(w0 * w1) * d
    r13 = np.sqrt(w1 * w3) * d / 3.0
    rho[..., 0, 1] = rho[..., 1, 0] = k * r01
    rho[..., 0, 2] = rho[..., 2, 0] = r01 / 3.0
    rho[..., 1, 3] = rho[..., 3, 1] = rho[..., 2, 3] = rho[..., 3, 2] = r13
    chi = s_avg - von_neumann_entropy(rho)
    # Without those entries rho_q is the average state, so chi is exactly 0.
    return float_if_0d(np.where((r01 == 0.0) & (r13 == 0.0), 0.0, chi))


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
#: Root-finder tolerance of both bound thresholds, whatever the caller's --tol.
BOUND_TOL = 1e-7


def bound_threshold(rate_fn: Callable[[float, float], float]) -> tuple[float, float]:
    """Supremum over q in [0, 1/2) of the zero crossing of rate_fn(., q).

    Returns (threshold e, q*).  ``rate_fn(e, q)`` must be decreasing in e
    and change sign on (1e-4, 0.45) near q = 1/2.  For both bound rates the
    root in e increases strictly with q, so the supremum is the q -> 1/2
    limit; q = 1/2 itself zeroes the rates, so the root is taken at
    q* = 0.4999 with a 1e-7 tolerance.  Raises :class:`BracketError` when
    there is no crossing there.
    """
    return find_threshold(lambda e: rate_fn(e, _Q_MAX), 1e-4, 0.45, BOUND_TOL), _Q_MAX


def _named_bound_threshold(name: str, rate_fn: Callable[..., float],
                           mu4: Optional[float]) -> tuple[float, float]:
    """:func:`bound_threshold` of ``rate_fn(e, q, mu4)``, its
    :class:`BracketError` naming the bound, q* and a given mu4."""
    try:
        return bound_threshold(lambda e, q: rate_fn(e, q, mu4))
    except BracketError as exc:
        given = "" if mu4 is None else f" with mu4_override={mu4:g}"
        raise BracketError(f"no {name} bound threshold at q*={_Q_MAX:g}{given}: {exc}") from None


def lower_bound_threshold(mu4: Optional[float] = None) -> tuple[float, float]:
    """Largest e with a positive lower bound for some q; returns (e, q*)."""
    return _named_bound_threshold("lower", lower_bound_rate, mu4)


def upper_bound_threshold(mu4: Optional[float] = None) -> tuple[float, float]:
    """Largest e with positive information margin for some q; returns (e, q*)."""
    return _named_bound_threshold("upper", upper_bound_crossing, mu4)


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
    """Secret bits per transmitted qubit plus classical bit: b_s/(q_t + b_t),
    rounded once from the exact ratio; ValueError if it overflows a float."""
    from fractions import Fraction  # only here: fractions and decimal cost import time

    eta = Fraction(inputs.b_s) / (Fraction(inputs.q_t) + Fraction(inputs.b_t))
    if eta > np.finfo(float).max:
        raise ValueError(f"efficiency b_s/(q_t + b_t) overflows a float: {inputs}")
    return float(eta)

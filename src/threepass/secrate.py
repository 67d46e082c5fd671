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
q -> 1/2 limit of that crossing.  With d = 1 - 2q each rate is
d**2 R(e) + O(d**4), and the threshold is the root of R.

The two closed-form rates take an array of e, or a float e, Python's or
numpy's, which the same function evaluates on Python floats with numpy's own
log2 per entropy term: the bits of the array route, returned as a float.
The bound functions take broadcastable arrays of (e, q) and a scalar mu4; a
scalar call is the same code on 0-d arrays returning a float.  The lower
bound is closed form: Eve's states have rank-one 2x2 blocks, so every
q-mixture has the 2x2 spectrum of :func:`threepass.qmath.eve_mixture_spectrum`.  The Holevo term of the
upper bound is closed form at the default mu4 = e**2, where rho_q has a
product spectrum and S(rho_q) = h(p+) + h(p-) (see :func:`holevo_chi`).
Under a given mu4 the average state still has a closed-form 2x2 block
spectrum, and rho_q is a genuine 4x4, one per point in one batched
``eigvalsh`` per call.

Each R(e) is a ``*_limit(e, mu4)`` function beside its rate, a scalar in
:mod:`math` with no arrays and no eigensolve: a sum over the 2x2 blocks for
the lower bound, dS/du at u = 1 for the default-mu4 Holevo term, and the
Daleckii-Krein second-order term of the 4x4 under a given mu4 (see
:func:`holevo_chi_limit`).  :func:`bound_threshold` is one
:func:`find_threshold` root of R.  Every threshold is a scalar root in e on
:data:`THRESHOLD_BRACKET` at :data:`THRESHOLD_TOL`, found by Chandrupatla's
bracketing method, which interpolates where it can and bisects where it
must, on Python floats.

A note on the upper bound: the published closed form chi(E) - [H(b|c) - H(b)]
is the sum of a Holevo quantity and the mutual information 1 - h(...), both
nonnegative, so it has no zero crossing in e and cannot define a threshold.
:func:`upper_bound_rate` returns that expression as documented;
:func:`upper_bound_crossing` returns the information margin
[H(b) - H(b|c)] - chi(E) whose sign change (Eve's ceiling overtaking the
Alice-Bob mutual information) is what a threshold can be extracted from.

Reference threshold values as published: 0.0314 and 0.0617 for the
return pass, 0.0316 and 0.15 for the sifted key, 0.124 and 0.114 for the
lower/upper collective-attack bounds.  Three of these (0.0316, 0.15, 0.114)
are not reproducible from the defining formulas above; the computed values
are 0.0230, 0.0485, and 0.1201.  The CLI prints both sides with deviations.
"""

from __future__ import annotations

import math
import sys
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
    pair_entropy,
    spectral_entropy,
    symmetric_2x2_eigenvalues,
    von_neumann_entropy,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)

#: The e bracket and root tolerance of every section-III threshold.
THRESHOLD_BRACKET = (1e-4, 0.45)
THRESHOLD_TOL = 1e-7

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
    e = in_range("QBER", e, 0.0, 0.5)
    c_y = 1.0 if announce_y else 2.0
    if isinstance(e, float):
        mutual = 1.0 - pair_entropy(e / 2.0, (1.0 - e) / 2.0)
    else:
        mutual = 1.0 - spectral_entropy(np.stack([e / 2.0, (1.0 - e) / 2.0], axis=-1))
    return mutual - c_y * binary_entropy(e)


def key_rate_sifted(e, announce_x: bool = False):
    """Sifted-key rate 1 - h(1/6 + 2e/3) - c_X h(e); c_X = 1 with X announced."""
    e = in_range("QBER", e, 0.0, 0.5)
    c_x = 1.0 if announce_x else 2.0
    return 1.0 - binary_entropy(1.0 / 6.0 + 2.0 * e / 3.0) - c_x * binary_entropy(e)


def find_threshold(rate_fn: Callable[[float], float], lo: float, hi: float,
                   tol: float = THRESHOLD_TOL) -> float:
    """Root of a decreasing rate function on [lo, hi] by Chandrupatla's
    method (Adv. Eng. Software 28(3):145-149, 1997).

    Each step is inverse quadratic interpolation through the three latest
    points where Chandrupatla's test trusts it, and bisection otherwise; it
    lands at least tol/2 inside the bracket, so the bracket always holds the
    root.  Once the bracket is at most tol wide (or two float spacings, when
    tol is smaller), the secant point of its ends is returned, or the end
    with the smaller |rate| should that point leave the bracket.

    The iteration runs on Python floats.  ``rate_fn`` takes a float and
    returns a scalar rate; the root is a float.  It needs rate_fn(lo) > 0 >
    rate_fn(hi), else :class:`BracketError` is raised; an end that is not
    finite, or a tol that is not below hi - lo, raises ValueError.
    """
    in_range("tol", tol, 0.0, math.inf, "()")
    lo = in_range("lo", float(lo), -math.inf, math.inf, "()")
    hi = in_range("hi", float(hi), -math.inf, math.inf, "()")
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
    a, b, fa, fb = lo, hi, float(f_lo), float(f_hi)
    t = 0.5
    while True:
        width = abs(b - a)
        tol_x = max(tol, 2.0 * math.ulp(max(abs(a), abs(b))))
        if not (width > tol_x and fa != 0.0):
            break
        t_min = 0.5 * tol_x / width
        x = a + min(max(t, t_min), 1.0 - t_min) * (b - a)
        fx = float(rate_fn(x))
        # Keep b on the far side of the root from the new point.
        if (fx > 0.0) != (fa > 0.0):
            c, fc, b, fb = b, fb, a, fa
        else:
            c, fc = a, fa
        a, fa = x, fx
        t = _interpolation_step(a, b, c, fa, fb, fc)
    root = a - fa * (b - a) / (fb - fa)
    if not min(a, b) <= root <= max(a, b):  # NaN too
        root = a if abs(fa) <= abs(fb) else b
    return root


def _interpolation_step(a: float, b: float, c: float,
                        fa: float, fb: float, fc: float) -> float:
    """Chandrupatla's next t: inverse quadratic interpolation through the
    three points where his test trusts it, else 0.5 (bisection).

    a lies strictly between b and c, so 0 <= xi <= 1, and b lies across
    the root from a and c, whose rates share a sign (or fa is 0): of the
    differences below only fc - fa can be 0, on a flat rate.  That, and NaN
    or inf anywhere, makes the step bisect."""
    if fc == fa:
        return 0.5
    xi = (a - b) / (c - b)
    phi = (fa - fb) / (fc - fb)
    if not 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
        return 0.5
    t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
    return t if math.isfinite(t) else 0.5


def _bound_inputs(e, q, mu4: Optional[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, q) as arrays, not broadcast, with q checked, and the Bell weights
    (..., 4) of (e, mu4) on e's shape, which check e; mu4 defaults to the
    maximizer e**2, a given mu4 is read as min(mu4, e) at each point, and a
    negative or NaN one is refused."""
    q = np.asarray(in_range("q", q, 0.0, 1.0))
    e = np.asarray(e, dtype=float)
    return e, q, bell_weights(e, maximizing_mu4(e) if mu4 is None else np.minimum(mu4, e))


def _limit_weights(e: float, mu4: Optional[float]) -> tuple[float, float, float]:
    """Bell weights (w0, w1, w3) of a scalar e, with mu4 read as the bound
    rates read it (default e**2, else min(mu4, e)); refused as by
    :func:`bell_weights`."""
    m = e * e if mu4 is None else min(mu4, e)
    if not (0.0 <= e <= 0.5 and 0.0 <= m):
        bell_weights(e, m)  # raises the package's message for e or mu4
    return 1.0 - 2.0 * e + m, e - m, m


def _log2_slope(x: float, y: float) -> float:
    """(log2 x - log2 y)/(x - y) for x, y > 0, and 1/(x ln 2) at x = y;
    log1p of the ratio less 1 keeps it accurate for close x and y."""
    x, y = max(x, y), min(x, y)
    if x > 2.0 * y:  # far apart: the logarithms do not cancel
        return (math.log2(x) - math.log2(y)) / (x - y)
    if x == y:
        return 1.0 / (x * _LN2)
    return math.log1p((x - y) / y) / ((x - y) * _LN2)


def _mutual_information_limit(e: float) -> float:
    """lim (1 - 2q)**-2 [H(b) - H(b|c)] as q -> 1/2: (1-2e)**2/(2 ln 2)."""
    return (1.0 - 2.0 * e) ** 2 / (2.0 * _LN2)


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
    q = 1/2.  S(E) depends on e alone, so it is evaluated on e's own shape
    before the broadcast.  ``e`` and ``q`` broadcast; a scalar call returns a
    float.
    """
    e, q, weights = _bound_inputs(e, q, mu4)
    cond = spectral_entropy(eve_mixture_spectrum(weights, q))
    unc = spectral_entropy(eve_mixture_spectrum(weights, 0.5))
    return (cond - unc) + _mutual_information(e, q)


def lower_bound_limit(e: float, mu4: Optional[float] = None) -> float:
    """R(e) = lim lower_bound_rate(e, q, mu4) / (1 - 2q)**2 as q -> 1/2.

    A 2x2 block (a, b) of :func:`eve_mixture_spectrum` moves its eigenvalues
    by -+(1-2q)**2 ab/(a - b), so its entropy falls by (1-2q)**2 times
    ab (log2 a - log2 b)/(a - b): 0 if a or b is 0, a/ln 2 at a = b.  The
    blocks are (mu1, mu2) and (mu3, mu4).  A scalar e in math, no arrays.
    """
    w0, w1, w3 = _limit_weights(e, mu4)
    return _mutual_information_limit(e) - sum(
        a * b * _log2_slope(a, b) for a, b in ((w0, w1), (w1, w3)) if a and b)


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
    rho = np.zeros(np.broadcast_shapes(e.shape, q.shape) + (4, 4))
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


def holevo_chi_limit(e: float, mu4: Optional[float] = None) -> float:
    """lim holevo_chi(e, q, mu4) / (1 - 2q)**2 as q -> 1/2, a scalar in math.

    At the default mu4, chi = S(u = 1) - S(u) with u = 4q(1-q) = 1 - d**2
    (see :func:`holevo_chi`), so the limit is dS/du at u = 1, by the chain
    rule through P+-, whose sum and product are linear in u, into
    h(p+-), with dh/dP = log2((1-p)/p)/(1 - 2p).

    Under a given mu4, rho_q = A + dC with A the average state and C the
    entries that couple its blocks {0, 3} and {1, 2}.  The first-order term
    tr(C log A) is 0, and the Daleckii-Krein formula (Bhatia, *Matrix
    Analysis*, ch. V) gives chi = d**2 sum |C'_ij|**2 (log2 l_i - log2 l_j)
    /(l_i - l_j) + O(d**4), over eigenpairs i of one block and j of the
    other, with C' the coupling in A's eigenbasis.  At mu4 = 0 block {0, 3}
    has a zero eigenvalue, and C does not couple into it (r13 = 0).
    """
    w0, w1, w3 = _limit_weights(e, mu4)  # which also checks e and mu4 for either path
    if mu4 is None:
        beta = 5.0 + e * (-7.0 + e * (4.0 - 2.0 * e))
        pq = (2.0 / 9.0) * e * e * (1.0 - e)  # PQ at u = 1, and d(PQ)/du
        p_sum, dp_sum = (2.0 / 9.0) * e * (1.0 + beta), (2.0 / 9.0) * e * beta
        gap = math.sqrt(p_sum * p_sum - 4.0 * pq)  # P+ - P-
        if gap == 0.0:  # e = 0: no Holevo term at any q
            return 0.0
        p_plus = 0.5 * (p_sum + gap)
        p_minus = pq / p_plus
        chi = 0.0
        for big_p, d_big_p in ((p_plus, (p_plus * dp_sum - pq) / gap),
                               (p_minus, (pq - p_minus * dp_sum) / gap)):
            if big_p:  # P = 0 only where PQ underflows, and then dP/du = 0
                p = 2.0 * big_p / (1.0 + math.sqrt(max(1.0 - 4.0 * big_p, 0.0)))
                # dh(p)/dP = log2((1-p)/p) / (1 - 2p)
                chi += d_big_p * _log2_slope(1.0 - p, p)
        return chi
    k = (2.0 / (1.0 - e) + 1.0) / 3.0
    # C couples index 0 to indices (1, 2) by (k r, r/3), and index 3 by (t, t).
    r, t = math.sqrt(w0 * w1), math.sqrt(w1 * w3) / 3.0
    chi = 0.0
    for lam, (u0, u3) in _eigh_2x2(k * w0, w3 / 3.0, math.sqrt(w0 * w3) / 3.0):
        row = (u0 * k * r + u3 * t, u0 * r / 3.0 + u3 * t)
        for mu, (v1, v2) in _eigh_2x2(k * w1, w1 / 3.0, w1 / 3.0):
            c = row[0] * v1 + row[1] * v2
            if c and lam > 0.0 and mu > 0.0:  # no coupling into a null eigenvector
                chi += c * c * _log2_slope(lam, mu)
    return chi


def _eigh_2x2(a: float, b: float, c: float):
    """Eigenpairs (l, (x, y)) of the PSD [[a, c], [c, b]], larger first, with
    unit eigenvectors.  The smaller eigenvalue is the determinant over the
    larger, which keeps it accurate where it is tiny; ab - c**2 is itself
    accurate for the blocks of :func:`holevo_chi_limit`, where ab >= 3c**2."""
    large = 0.5 * (a + b) + math.hypot(0.5 * (a - b), c)
    small = (a * b - c * c) / large if large else 0.0
    angle = 0.5 * math.atan2(2.0 * c, a - b)
    cos, sin = math.cos(angle), math.sin(angle)
    return (large, (cos, sin)), (small, (-sin, cos))


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


def upper_bound_limit(e: float, mu4: Optional[float] = None) -> float:
    """R(e) = lim upper_bound_crossing(e, q, mu4) / (1 - 2q)**2 as q -> 1/2:
    (1-2e)**2/(2 ln 2) less :func:`holevo_chi_limit`."""
    return _mutual_information_limit(e) - holevo_chi_limit(e, mu4)


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


def bound_threshold(limit_fn: Callable[[float], float]) -> float:
    """Supremum over q in [0, 1/2) of a bound rate's zero crossing in e.

    ``limit_fn(e)`` is the rate's leading coefficient R(e) near q = 1/2:
    rate(e, q) = (1 - 2q)**2 R(e) + O((1 - 2q)**4).  For both bound rates the
    root in e increases strictly with q, so the supremum is the q -> 1/2
    limit, which is the root of R; R must be decreasing and change sign on
    :data:`THRESHOLD_BRACKET`.  One root at :data:`THRESHOLD_TOL`; raises
    :class:`BracketError` when there is no crossing.
    """
    return find_threshold(limit_fn, *THRESHOLD_BRACKET)


def _named_bound_threshold(name: str, limit_fn: Callable[..., float],
                           mu4: Optional[float]) -> float:
    """:func:`bound_threshold` of ``limit_fn(e, mu4)``, its
    :class:`BracketError` naming the bound and a given mu4."""
    try:
        return bound_threshold(lambda e: limit_fn(e, mu4))
    except BracketError as exc:
        given = "" if mu4 is None else f" with mu4_override={mu4:g}"
        raise BracketError(f"no {name} bound threshold at q->1/2{given}: {exc}") from None


def lower_bound_threshold(mu4: Optional[float] = None) -> float:
    """Largest e with a positive lower bound for some q: the root of
    :func:`lower_bound_limit`."""
    return _named_bound_threshold("lower", lower_bound_limit, mu4)


def upper_bound_threshold(mu4: Optional[float] = None) -> float:
    """Largest e with a positive information margin for some q: the root of
    :func:`upper_bound_limit`."""
    return _named_bound_threshold("upper", upper_bound_limit, mu4)


@dataclass(frozen=True)
class EfficiencyInputs:
    """Secret bits, transmitted qubits, and classical bits per position."""

    b_s: float
    q_t: float
    b_t: float

    def __post_init__(self) -> None:
        in_range("b_s", self.b_s, 0.0, math.inf, "[)")
        in_range("q_t", self.q_t, 0.0, math.inf, "()")
        in_range("b_t", self.b_t, 0.0, math.inf, "[)")


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
    if eta > sys.float_info.max:
        raise ValueError(f"efficiency b_s/(q_t + b_t) overflows a float: {inputs}")
    return float(eta)

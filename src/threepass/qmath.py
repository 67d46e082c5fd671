"""Entropy functions and Bell-weight algebra shared by the analysis modules.

Channel noise is parameterized by a symmetric QBER ``e`` acting identically in
both mutually unbiased bases.  A two-qubit state subjected to that noise is
Bell diagonal with weights (mu1, mu2, mu3, mu4); the linear constraints

    mu3 + mu4 = e,   mu2 + mu4 = e,   mu1 + mu2 = 1 - e,   mu1 + mu3 = 1 - e

leave one free parameter, conventionally mu4 in [0, e].  The mixture is
always held as its (..., 4) array of weights from :func:`bell_weights`.  The
eavesdropper's conditional states sigma_E^k derived from a purification of
that mixture are 4x4 and block diagonal in the ancilla basis with rank-one
2x2 blocks, so the spectra of their mixtures are closed form
(:func:`eve_mixture_spectrum`); :func:`eve_state` builds the explicit
matrices from the same weights as the validated reference.  Their
spectral entropies drive the collective-attack bounds in
:mod:`threepass.secrate`.  Every closed-form 2x2 block spectrum, here and in
the average state of the Holevo term, is :func:`symmetric_2x2_eigenvalues`.

:func:`bell_weights`, :func:`binary_entropy`, :func:`spectral_entropy`,
:func:`von_neumann_entropy` and :func:`eve_mixture_spectrum` work elementwise
on arrays; a scalar input gives a Python float.  :func:`in_range` returns a
float input, Python's or numpy's, as a Python float, and
:func:`binary_entropy` takes it down a scalar route, :func:`pair_entropy`,
with the bits of the array route and no array built.

All entropies are in bits (base-2 logarithms) and 0*log(0) is taken to be 0.
Every function here is pure; concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Eigenvalues of a density matrix may drift slightly negative under finite
# precision.  Values in [-PSD_DRIFT, 0) are clamped to 0; anything more
# negative is treated as a genuine invariant violation.
PSD_DRIFT = 1e-10


def in_range(name: str, x, lo: float, hi: float, ends: str = "[]") -> float | np.ndarray:
    """``x`` after checking that each element lies between ``lo`` and ``hi``:
    the package's one range check on float inputs.  A float, Python's or
    numpy's, comes back as a Python float; anything else as a float array.

    ``ends`` holds the interval's brackets, "[" or "(" then "]" or ")"; with
    infinite ends, "()" means finite.  NaN fails.  The error names ``name``,
    the interval and the first offending value: ``q must lie in [0, 1], got 1.5``.
    """
    if isinstance(x, float):
        x = v = float(x)
    else:
        x = np.asarray(x, dtype=float)
        v = x if x.ndim else float(x)  # 0-d: a Python float compares several times faster
    ok = (lo <= v if ends[0] == "[" else lo < v) & (v <= hi if ends[1] == "]" else v < hi)
    if not (ok if isinstance(v, float) else ok.all()):
        bad = v if isinstance(v, float) else float(x[~ok][0])
        raise ValueError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {bad}")
    return x


def float_if_0d(x):
    """A Python float for a 0-d result, else the array itself."""
    return float(x) if np.ndim(x) == 0 else x


def spectral_entropy(eigenvalues) -> float | np.ndarray:
    """-sum(lam * log2(lam)) over the last axis, in bits.

    Every positive eigenvalue counts, however small, so the sum is continuous
    (a cutoff at c would jump by c log2(1/c)); eigenvalues in [-1e-10, 0] are
    exact zeros.  An eigenvalue below -1e-10 violates the PSD invariant and
    raises ValueError.  A 1-d input gives a float.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size and lam.min() < -PSD_DRIFT:
        raise ValueError(f"matrix is not PSD: min eigenvalue {lam.min()}")
    kept = np.where(lam > 0.0, lam, 1.0)
    terms = np.log2(kept)
    terms *= kept
    # 0.0 - sum keeps an all-zero sum at +0.0 rather than -0.0.
    return float_if_0d(0.0 - terms.sum(axis=-1))


def pair_entropy(x: float, y: float) -> float:
    """:func:`spectral_entropy` of the two Python floats x, y >= 0 with the
    same bits and no array: numpy's own log2 of each positive one, 0 log 0
    taken as 0, and the two terms summed as the array route sums them."""
    t0 = x * float(np.log2(x)) if x > 0.0 else 0.0
    t1 = y * float(np.log2(y)) if y > 0.0 else 0.0
    return 0.0 - (t0 + t1)


def binary_entropy(p) -> float | np.ndarray:
    """Shannon entropy, in bits, of a {p, 1-p} distribution; elementwise on
    arrays, and by :func:`pair_entropy` for a float."""
    p = in_range("p", p, 0.0, 1.0)
    if isinstance(p, float):
        return pair_entropy(p, 1.0 - p)
    dist = np.empty(p.shape + (2,))
    dist[..., 0] = p
    dist[..., 1] = 1.0 - p
    return spectral_entropy(dist)


def bell_weights(e, mu4) -> np.ndarray:
    """Bell weights (1-2e+mu4, e-mu4, e-mu4, mu4) as an (..., 4) array.

    ``e`` and ``mu4`` broadcast against each other; ``e`` must lie in
    [0, 1/2] and ``mu4`` in [0, e], elementwise.
    """
    e = in_range("QBER", e, 0.0, 0.5)
    mu4 = np.asarray(mu4, dtype=float)
    ok = (0.0 <= mu4) & (mu4 <= e)
    if not ok.all():
        e_bad, mu4_bad = (np.broadcast_to(x, ok.shape)[~ok][0] for x in (e, mu4))
        raise ValueError(f"mu4 must lie in [0, e={float(e_bad)}], got {float(mu4_bad)}")
    weights = np.empty(ok.shape + (4,))
    weights[..., 0] = 1.0 - 2.0 * e + mu4
    weights[..., 1] = weights[..., 2] = e - mu4
    weights[..., 3] = mu4
    return weights


@dataclass(frozen=True)
class DensityMatrix4:
    """A 4x4 Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0):
            raise ValueError("density matrix must be Hermitian within 1e-12")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace must be 1 within 1e-12, got {tr!r}")
        if np.linalg.eigvalsh(m).min() < -PSD_DRIFT:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", m)


def maximizing_mu4(e) -> float | np.ndarray:
    """The mu4 in [0, e] that maximizes the mixture entropy, namely e**2.

    The mixture entropy is ``spectral_entropy(bell_weights(e, mu4))``; at
    this choice it equals ``2 * binary_entropy(e)``.
    Elementwise on arrays.
    """
    e = in_range("QBER", e, 0.0, 0.5)
    return float_if_0d(e * e)


def von_neumann_entropy(rho) -> float | np.ndarray:
    """Spectral entropy -sum(lam * log2(lam)) of a density matrix, in bits.

    ``rho`` is a Hermitian matrix or a stack of shape (..., 4, 4), solved by
    one batched ``eigvalsh``; a single matrix gives a float.  Zero and
    negative eigenvalues are read as in :func:`spectral_entropy`.
    """
    return spectral_entropy(np.linalg.eigvalsh(rho))


def symmetric_2x2_eigenvalues(a, b, coupling_sq) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (larger, smaller) of the real symmetric [[a, c], [c, b]].

    Elementwise on broadcast arrays, with ``coupling_sq`` = c**2: they are
    (a+b)/2 +- sqrt(((a-b)/2)**2 + c**2).
    """
    mean = 0.5 * (a + b)
    half_gap = np.sqrt((0.5 * (a - b)) ** 2 + coupling_sq)
    return mean + half_gap, mean - half_gap


def eve_mixture_spectrum(weights, q) -> np.ndarray:
    """Eigenvalues of (1-q) eve_state(w, 0) + q eve_state(w, 1), as (..., 4).

    ``weights`` are Bell weights (..., 4), e.g. from :func:`bell_weights`, and
    ``q`` broadcasts against their leading axes.  Each 2x2 block
    [[a, s*sqrt(ab)], [s*sqrt(ab), b]] with s = |1-2q| has eigenvalues
    (a+b)/2 +- sqrt(((a-b)/2)**2 + s**2 ab).
    """
    w = np.asarray(weights, dtype=float)
    a, b = w[..., 0::2], w[..., 1::2]  # blocks (mu1, mu2) and (mu3, mu4)
    s2 = ((1.0 - 2.0 * np.asarray(q, dtype=float)) ** 2)[..., None]
    return np.concatenate(symmetric_2x2_eigenvalues(a, b, s2 * a * b), axis=-1)


def eve_state(weights, k: int) -> DensityMatrix4:
    """Eavesdropper's conditional 4x4 state for sifted-key bit ``k``.

    ``weights`` are one mixture's Bell weights (mu1, mu2, mu3, mu4), e.g.
    from :func:`bell_weights`; the state's trace is their sum after negative
    weights are clamped to zero, so weights off the probability simplex fail
    the trace check of :class:`DensityMatrix4`.

    Constructed from the subnormalized ancilla-register states accepted by
    the sifting rule, mixed with weights 1/3, 1/3, 1/6, 1/6 and renormalized
    to unit trace.  The result is block diagonal in the ancilla basis:

        [[mu1, s*sqrt(mu1*mu2)], [s*sqrt(mu1*mu2), mu2]]  (upper block)
        [[mu3, s*sqrt(mu3*mu4)], [s*sqrt(mu3*mu4), mu4]]  (lower block)

    with s = (-1)**k.  Note the lower block couples mu3 and mu4; the two
    conditional states are isospectral and related by diag(1, -1, 1, -1).
    Each block is rank one, the outer product of (sqrt(a), s*sqrt(b)), so the
    spectrum of this state, and of any q-mixture of the two, is closed form:
    :func:`eve_mixture_spectrum` computes it without building the matrix,
    which remains as the validated reference.
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    mu = np.maximum(np.asarray(weights, dtype=float), 0.0)
    r = np.sqrt(mu)
    s = -1.0 if k else 1.0
    # Subnormalized register states conditioned on bit k; squared norms are
    # the branch probabilities, so the weighted mixture has trace 1/4.
    v_same = np.array([r[0], s * r[1], 0.0, 0.0]) / math.sqrt(2.0)
    v_flip = np.array([0.0, 0.0, r[2], s * r[3]]) / math.sqrt(2.0)
    v_plus = np.array([r[0], s * r[1], r[2], s * r[3]]) / 2.0
    v_minus = np.array([r[0], s * r[1], -r[2], -s * r[3]]) / 2.0
    m = (np.outer(v_same, v_same) + np.outer(v_flip, v_flip)) / 3.0
    m += (np.outer(v_plus, v_plus) + np.outer(v_minus, v_minus)) / 6.0
    m *= 4.0
    return DensityMatrix4(m.astype(complex))


def reconditioned_entropy(e: float, mu4: float) -> float:
    """Mixture entropy after conditioning on the error indicator.

    Returns ``(1-e) h((1-2e+mu4)/(1-e)) + e h((e-mu4)/e)`` which equals
    ``spectral_entropy(bell_weights(e, mu4)) - binary_entropy(e)``, the
    Bell-mixture entropy less that of the error indicator.
    Boundary values mu4 in {0, e} and e in {0} are handled by continuity.
    """
    mu1, mu2, _, _ = bell_weights(e, mu4).tolist()
    e = float(e)
    out = 0.0
    if e < 1.0:
        out += (1.0 - e) * binary_entropy(mu1 / (1.0 - e))
    if e > 0.0:
        out += e * binary_entropy(mu2 / e)
    return out

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from threepass.qmath import (
    DensityMatrix4,
    bell_weights,
    binary_entropy,
    eve_mixture_spectrum,
    eve_state,
    maximizing_mu4,
    reconditioned_entropy,
    spectral_entropy,
    von_neumann_entropy,
)

# 40-digit evaluations of the defining formulas, frozen.
H_OF_0P1 = 0.46899559358928122
TWO_H_OF_0P1 = 0.93799118717856244


def test_binary_entropy_endpoints():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_value():
    assert binary_entropy(0.1) == pytest.approx(H_OF_0P1, abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetry(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def test_mixture_from_qber_noiseless():
    w = bell_weights(0.0, 0.0)
    assert (w[0], w[1], w[2], w[3]) == (1.0, 0.0, 0.0, 0.0)


def test_mixture_from_qber_values():
    w = bell_weights(0.1, 0.01)
    assert w == pytest.approx([0.81, 0.09, 0.09, 0.01], abs=1e-15)
    w = bell_weights(0.25, 0.0625)
    assert w == pytest.approx([0.5625, 0.1875, 0.1875, 0.0625], abs=1e-15)


def test_mixture_linear_constraints():
    for e in (0.05, 0.2, 0.4):
        for mu4 in (0.0, e / 3, e):
            w = bell_weights(e, mu4)
            assert w[2] + w[3] == pytest.approx(e, abs=1e-12)
            assert w[1] + w[3] == pytest.approx(e, abs=1e-12)
            assert w[0] + w[1] == pytest.approx(1 - e, abs=1e-12)
            assert w[0] + w[2] == pytest.approx(1 - e, abs=1e-12)


def test_mixture_from_qber_domain():
    with pytest.raises(ValueError):
        bell_weights(0.1, 0.2)  # mu4 > e
    with pytest.raises(ValueError):
        bell_weights(0.6, 0.0)  # e > 1/2
    with pytest.raises(ValueError):
        bell_weights(0.1, -0.01)


def test_hv_entropy_endpoints():
    assert spectral_entropy(bell_weights(0.0, 0.0)) == 0.0
    assert spectral_entropy(bell_weights(0.5, 0.25)) == 2.0


def test_hv_entropy_at_maximizer():
    # mu4 = e^2 makes the mixture entropy equal 2 h(e).
    assert spectral_entropy(bell_weights(0.1, 0.01)) == pytest.approx(
        TWO_H_OF_0P1, abs=1e-9)


def test_maximizing_mu4_values():
    assert maximizing_mu4(0.0) == 0.0
    assert maximizing_mu4(0.2) == pytest.approx(0.04, abs=1e-15)


def test_maximizing_mu4_grid_search():
    e = 0.15
    grid = np.linspace(0.0, e, round(e / 1e-5) + 1)
    values = [spectral_entropy(bell_weights(e, float(m))) for m in grid]
    best = grid[int(np.argmax(values))]
    assert abs(best - maximizing_mu4(e)) <= 1e-5
    assert spectral_entropy(bell_weights(e, maximizing_mu4(e))) == pytest.approx(
        2 * binary_entropy(e), abs=1e-9)


def test_von_neumann_entropy_maximally_mixed():
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)


def test_von_neumann_entropy_pure_state():
    v = np.array([0.5, 0.5, 0.5, 0.5])
    assert von_neumann_entropy(np.outer(v, v)) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_entropy_rejects_non_psd():
    m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        von_neumann_entropy(m)


def _analytic_block_entropy(w) -> float:
    """Independent spectral oracle: per 2x2 block [[a, sqrt(ab)], [sqrt(ab), b]],
    the eigenvalues are ((a+b) +- sqrt((a-b)^2 + 4ab))/2."""
    out = 0.0
    for a, b in ((w[0], w[1]), (w[2], w[3])):
        disc = math.sqrt((a - b) ** 2 + 4.0 * a * b)
        for lam in ((a + b + disc) / 2.0, (a + b - disc) / 2.0):
            if lam > 1e-12:
                out -= lam * math.log2(lam)
    return out


def test_eve_state_entropy_matches_analytic_blocks():
    for e, mu4 in ((0.1, 0.01), (0.3, 0.1), (0.45, 0.2)):
        w = bell_weights(e, mu4)
        for k in (0, 1):
            assert von_neumann_entropy(eve_state(w, k).matrix) == pytest.approx(
                _analytic_block_entropy(w), abs=1e-9)


def test_eve_state_entropy_equals_binary_entropy_of_e():
    # Both blocks are rank one, so the spectrum is {1-e, e, 0, 0}.
    for e in (0.05, 0.2, 0.4):
        w = bell_weights(e, maximizing_mu4(e))
        assert von_neumann_entropy(eve_state(w, 0).matrix) == pytest.approx(
            binary_entropy(e), abs=1e-9)


def test_eve_state_noiseless():
    m = eve_state(bell_weights(0.0, 0.0), 0).matrix
    assert m == pytest.approx(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), abs=1e-15)


def test_eve_state_block_values():
    m = eve_state(bell_weights(0.1, 0.01), 0).matrix.real
    expected = np.zeros((4, 4))
    expected[0, 0], expected[1, 1] = 0.81, 0.09
    expected[0, 1] = expected[1, 0] = 0.27
    expected[2, 2], expected[3, 3] = 0.09, 0.01
    expected[2, 3] = expected[3, 2] = 0.03
    assert m == pytest.approx(expected, abs=1e-12)
    # off-block entries vanish
    assert np.abs(m[:2, 2:]).max() == pytest.approx(0.0, abs=1e-15)


def test_eve_state_sign_flip():
    w = bell_weights(0.2, 0.02)
    m0 = eve_state(w, 0).matrix
    m1 = eve_state(w, 1).matrix
    u = np.diag([1.0, -1.0, 1.0, -1.0])
    assert m1 == pytest.approx(u @ m0 @ u, abs=1e-15)
    assert np.linalg.eigvalsh(m0) == pytest.approx(np.linalg.eigvalsh(m1), abs=1e-12)


def test_eve_state_rejects_bad_k():
    with pytest.raises(ValueError):
        eve_state(bell_weights(0.1, 0.01), 2)


def test_eve_state_rejects_weights_off_the_simplex():
    # The state's trace is the sum of the weights clamped at zero.
    for weights in ((0.3, 0.3, 0.3, 0.3), (0.5, 0.5, 0.1, -0.1)):
        with pytest.raises(ValueError, match="trace must be 1"):
            eve_state(np.array(weights), 0)


@given(
    st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_eve_state_is_density_matrix(e, frac):
    w = bell_weights(e, frac * e)
    for k in (0, 1):
        m = eve_state(w, k).matrix  # DensityMatrix4 validates on construction
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(m).min() >= -1e-10


@given(
    st.floats(min_value=1e-3, max_value=0.499, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False),
)
def test_reconditioned_entropy_identity(e, frac):
    mu4 = frac * e
    w = bell_weights(e, mu4)
    assert reconditioned_entropy(e, mu4) == pytest.approx(
        spectral_entropy(w) - binary_entropy(e), abs=1e-9)


def test_reconditioned_entropy_values():
    # At mu4 = e^2 the identity collapses to h(e).
    assert reconditioned_entropy(0.1, 0.01) == pytest.approx(H_OF_0P1, abs=1e-9)
    # mu4 -> e: the error branch entropy vanishes by continuity.
    e = 0.3
    expected = (1 - e) * binary_entropy((1 - 2 * e + e) / (1 - e))
    assert reconditioned_entropy(e, e) == pytest.approx(expected, abs=1e-12)
    w = bell_weights(0.3, 0.05)
    assert reconditioned_entropy(0.3, 0.05) == pytest.approx(
        spectral_entropy(w) - binary_entropy(0.3), abs=1e-9)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix4(np.eye(3))
    with pytest.raises(ValueError):
        DensityMatrix4(np.eye(4))  # trace 4
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        DensityMatrix4(bad)  # not Hermitian


def test_binary_entropy_takes_arrays():
    p = np.array([[0.0, 0.1, 0.5], [0.9, 1.0, 0.25]])
    values = binary_entropy(p)
    assert values.shape == (2, 3)
    assert values.tolist() == [[binary_entropy(float(x)) for x in row] for row in p]
    assert type(binary_entropy(0.3)) is float
    with pytest.raises(ValueError, match=r"requires p in \[0, 1\], got 1.5"):
        binary_entropy(np.array([0.2, 1.5]))
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))


def test_spectral_entropy_floor_and_drift():
    assert spectral_entropy([0.5, 0.5, 0.0, -1e-11]) == 1.0
    assert spectral_entropy([1.0, 1e-13]) == 0.0  # below the floor: an exact zero
    assert spectral_entropy([[1.0, 0.0], [0.5, 0.5]]).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        spectral_entropy([1.0, -1e-9])


def test_bell_weights_match_defining_formula():
    e = np.array([0.0, 0.1, 0.25, 0.5])
    weights = bell_weights(e[:, None], np.array([0.0, 0.5])[None, :] * e[:, None])
    assert weights.shape == (4, 2, 4)
    for i, ei in enumerate(e.tolist()):
        for j, frac in enumerate((0.0, 0.5)):
            mu4 = frac * ei
            expected = [1.0 - 2.0 * ei + mu4, ei - mu4, ei - mu4, mu4]
            assert weights[i, j].tolist() == expected


def test_bell_weights_validate_elementwise():
    with pytest.raises(ValueError, match=r"QBER must lie in \[0, 0.5\], got 0.6"):
        bell_weights(np.array([0.1, 0.6]), 0.0)
    with pytest.raises(ValueError, match=r"mu4 must lie in \[0, e=0.1\], got 0.2"):
        bell_weights(np.array([0.3, 0.1]), 0.2)
    with pytest.raises(ValueError):
        bell_weights(0.1, float("nan"))


def test_von_neumann_entropy_batched_equals_loop():
    mixes = [bell_weights(e, mu4) for e, mu4 in ((0.05, 0.0), (0.2, 0.04), (0.4, 0.3))]
    stack = np.stack([[eve_state(w, k).matrix for k in (0, 1)] for w in mixes])
    batched = von_neumann_entropy(stack)
    assert batched.shape == (3, 2)
    for i, w in enumerate(mixes):
        for k in (0, 1):
            assert batched[i, k] == pytest.approx(
                von_neumann_entropy(eve_state(w, k).matrix), abs=1e-14)


@given(
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_eve_mixture_spectrum_matches_eigvalsh(e, frac, q):
    w = bell_weights(e, frac * e)
    rho = (1.0 - q) * eve_state(w, 0).matrix + q * eve_state(w, 1).matrix
    closed = np.sort(eve_mixture_spectrum(w, q))
    assert closed == pytest.approx(np.linalg.eigvalsh(rho), abs=1e-14)

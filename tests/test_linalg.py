"""Hermitian wrappers, eigensolver contracts, norms, orthonormalization."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amu_spectra import (
    HermitianMatrix,
    NearDependence,
    NumericalError,
    eig_hermitian,
    gram_schmidt,
    ground_eigenpair,
    operator_norm,
)
from conftest import random_hermitian


def test_hermitian_matrix_symmetrizes_tiny_asymmetry():
    a = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
    h = HermitianMatrix(a)
    assert np.array_equal(h.array, h.array.conj().T)
    assert not h.array.flags.writeable


@pytest.mark.parametrize(
    "a",
    [
        random_hermitian(9, seed=4),
        random_hermitian(9, seed=4) + 1e-13 * np.triu(np.ones((9, 9)), 1),
        # Purely imaginary with signed zeros, like the shift pair's A_2.
        -(np.eye(6, k=-1, dtype=complex) - np.eye(6, k=1, dtype=complex)) / 2.0j,
    ],
)
def test_hermitian_matrix_stores_exact_symmetrization(a):
    # Bit for bit, signs of zeros included: stored tuples and every artifact
    # computed from them depend on these bytes.
    assert HermitianMatrix(a).array.tobytes() == ((a + a.conj().T) / 2.0).tobytes()


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1e308, 0.0], [0.0, 1.0]]),
        np.array([[-1e308, 1e308 - 1e308j], [1e308 + 1e308j, 0.0]]),
    ],
)
def test_hermitian_matrix_near_float_limit_stays_finite(a):
    # a + a† overflows here; the stored matrix must still be the input.
    h = HermitianMatrix(a)
    assert np.array_equal(h.array, a)


def test_hermitian_matrix_rejects_gross_asymmetry():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermitianMatrix(a)


def test_hermitian_matrix_tolerance_scales_with_entries():
    # U diag(w) U† with |w| up to 1e5 rounds to an asymmetry of a few 1e-12.
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)))
    a = (u * rng.uniform(-1e5, 1e5, size=40)) @ u.conj().T
    assert np.max(np.abs(a - a.conj().T)) > 1e-12
    assert np.array_equal(HermitianMatrix(a).array, (a + a.conj().T) / 2.0)
    # A real asymmetry at the same scale is still rejected.
    a[0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(a)
    # Entries whose modulus overflows do not widen the tolerance to infinity,
    # and the overflowing asymmetry raises without a warning first.
    with pytest.raises(ValueError, match="not Hermitian"), warnings.catch_warnings():
        warnings.simplefilter("error")
        HermitianMatrix(np.array([[0.0, 1.5e308 + 1.5e308j], [-1.5e308 - 1.5e308j, 0.0]]))


def test_hermitian_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((2, 3)))


def test_eig_reconstructs_and_sorts():
    h = HermitianMatrix(random_hermitian(12, seed=0))
    dec = eig_hermitian(h)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.linalg.norm(recon - h.array) <= 1e-10


def test_eig_known_spectrum():
    h = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    dec = eig_hermitian(h)
    assert dec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=50))
def test_ground_eigenpair_is_lowest_unit_eigenpair(dim, seed):
    h = random_hermitian(dim, seed=seed, scale=3.0)
    energy, v = ground_eigenpair(h)
    assert energy == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(h @ v - energy * v) <= 1e-12


def _patch_eigh(monkeypatch, transform):
    """Make np.linalg.eigh return transform(w, u) instead of (w, u)."""
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: transform(*real_eigh(a)))


@pytest.mark.parametrize(
    "transform",
    [
        lambda w, u: (w[::-1], u[:, ::-1]),  # columns (and values) in reverse order
        lambda w, u: (w[1:], u[:, 1:]),  # the second-lowest pair in first place
    ],
)
def test_ground_eigenpair_rejects_non_minimal_pair(monkeypatch, transform):
    # The returned pair is a true eigenpair, so the residual passes: only the
    # Cholesky certificate can tell that it is not the lowest one.
    h = random_hermitian(8, seed=3)
    _patch_eigh(monkeypatch, transform)
    with pytest.raises(NumericalError, match="not the smallest"):
        ground_eigenpair(h)


def test_ground_eigenpair_rejects_perturbed_vector(monkeypatch):
    h = random_hermitian(8, seed=3)

    def perturb(w, u):
        u = u.copy()
        u[:, 0] += 1e-3 * u[:, 1]
        return w, u

    _patch_eigh(monkeypatch, perturb)
    with pytest.raises(NumericalError, match="residual"):
        ground_eigenpair(h)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=50))
def test_operator_norm_matches_largest_eigenvalue_magnitude(dim, seed):
    h = random_hermitian(dim, seed=seed)
    expected = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    assert operator_norm(h) == pytest.approx(expected, abs=1e-10)


def test_operator_norm_nonsymmetric_input():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert operator_norm(a) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(9, 4), (4, 9), (7, 7), (1, 6), (6, 1)])
def test_operator_norm_rectangular(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert abs(operator_norm(a) - np.linalg.norm(a, ord=2)) <= 1e-12


@pytest.mark.parametrize("shape", [(5, 9, 4), (5, 4, 9), (3, 7, 7), (1, 6, 6), (4, 1, 6), (4, 6, 1)])
def test_operator_norm_stack_matches_each_matrix(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    norms = operator_norm(stack)
    assert norms.shape == (shape[0],) and norms.dtype == np.float64
    for matrix, nrm in zip(stack, norms):
        assert nrm == operator_norm(matrix)
        assert abs(nrm - np.linalg.norm(matrix, ord=2)) <= 1e-12


def test_operator_norm_scales_matrices_whose_gram_overflows():
    big = operator_norm([[1e308, 0.0], [0.0, 1.0]])
    assert abs(big - 1e308) <= 1e-15 * 1e308
    assert abs(operator_norm([[1e200]]) - 1e200) <= 1e-15 * 1e200
    # Only the overflowing member is recomputed; the other keeps its bits.
    norms = operator_norm(np.array([[[1e200]], [[2.0]]]))
    assert abs(norms[0] - 1e200) <= 1e-15 * 1e200 and norms[1] == 2.0


@pytest.mark.parametrize(
    "bad",
    [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(4), np.array([[1.0, np.nan]]),
     np.array([[np.inf], [0.0]]), np.zeros((0, 2, 2)), np.zeros((2, 0, 3)),
     np.zeros((2, 3, 0)), np.full((2, 2, 2), np.nan), np.zeros((2, 2, 2, 2))],
)
def test_operator_norm_rejects_empty_and_nonfinite(bad):
    with pytest.raises(ValueError):
        operator_norm(bad)


def test_gram_schmidt_orthonormalizes_and_preserves_span():
    rng = np.random.default_rng(3)
    vecs = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(3)]
    basis = gram_schmidt(vecs)
    g = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.linalg.norm(g - np.eye(3)) <= 1e-10
    # Same span: projectors onto both subspaces agree.
    q_old = np.linalg.qr(np.stack(vecs, axis=1))[0]
    p_old = q_old @ q_old.conj().T
    b = np.stack(basis, axis=1)
    p_new = b @ b.conj().T
    assert np.linalg.norm(p_old - p_new) <= 1e-9


def _classical_gram_schmidt(vectors) -> list[np.ndarray]:
    """Reference: two passes of classical Gram-Schmidt over the normalized inputs."""
    out: list[np.ndarray] = []
    for v in vectors:
        u = v / np.linalg.norm(v)
        for _ in range(2):
            u = u - sum(q * np.vdot(q, u) for q in out)
        out.append(u / np.linalg.norm(u))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_gram_schmidt_is_classical_gram_schmidt(seed):
    rng = np.random.default_rng(seed)
    length, count = int(rng.integers(1, 9)), int(rng.integers(1, 6))
    count = min(count, length)
    vecs = [rng.normal(size=length) + 1j * rng.normal(size=length) for _ in range(count)]
    if seed % 3 == 0:
        vecs = [v.real * 3.0 for v in vecs]  # real inputs of any scale
    basis = gram_schmidt(vecs)
    assert len(basis) == count
    for out, want, v in zip(basis, _classical_gram_schmidt(vecs), vecs):
        assert np.max(np.abs(out - want)) <= 1e-13
        # The phase is Gram-Schmidt's: <out_k, v_k> = R_kk |v_k| > 0.
        overlap = np.vdot(out, v)
        assert overlap.real > 0.0
        assert abs(overlap.imag) <= 1e-13 * np.linalg.norm(v)


def test_gram_schmidt_flags_dependent_family():
    v = np.array([1.0, 2.0, 0.0])
    with pytest.raises(NearDependence) as info:
        gram_schmidt([v, 2.0 * v])
    assert info.value.index == 1


def test_gram_schmidt_names_first_vector_beyond_the_dimension():
    # Five vectors in C^3: no residual collapses within R, and the fourth is
    # the first that cannot be independent.
    rng = np.random.default_rng(4)
    with pytest.raises(NearDependence) as info:
        gram_schmidt([rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(5)])
    assert info.value.index == 3


def test_gram_schmidt_flags_near_dependence():
    v = np.array([1.0, 0.0, 0.0])
    w = v + 1e-10 * np.array([0.0, 1.0, 0.0])
    with pytest.raises(NearDependence):
        gram_schmidt([v, w])


def test_gram_schmidt_rejects_zero_vector():
    with pytest.raises(ValueError):
        gram_schmidt([np.zeros(3)])

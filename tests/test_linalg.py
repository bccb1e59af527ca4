"""Hermitian wrappers, eigensolver contracts, norms, orthonormalization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amu_spectra import (
    HermitianMatrix,
    NearDependence,
    eig_hermitian,
    gram_schmidt,
    operator_norm,
)
from conftest import random_hermitian


def test_hermitian_matrix_symmetrizes_tiny_asymmetry():
    a = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
    h = HermitianMatrix(a)
    assert np.array_equal(h.array, h.array.conj().T)
    assert not h.array.flags.writeable


def test_hermitian_matrix_rejects_gross_asymmetry():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermitianMatrix(a)


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


@pytest.mark.parametrize(
    "bad",
    [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(4), np.array([[1.0, np.nan]]),
     np.array([[np.inf], [0.0]])],
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


def test_gram_schmidt_flags_dependent_family():
    v = np.array([1.0, 2.0, 0.0])
    with pytest.raises(NearDependence) as info:
        gram_schmidt([v, 2.0 * v])
    assert info.value.index == 1


def test_gram_schmidt_flags_near_dependence():
    v = np.array([1.0, 0.0, 0.0])
    w = v + 1e-10 * np.array([0.0, 1.0, 0.0])
    with pytest.raises(NearDependence):
        gram_schmidt([v, w])


def test_gram_schmidt_rejects_zero_vector():
    with pytest.raises(ValueError):
        gram_schmidt([np.zeros(3)])

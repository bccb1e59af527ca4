"""Dense complex linear algebra used everywhere else.

Thin, contract-checked wrappers: a Hermitian matrix type that stores an
exactly symmetrized array, an eigensolver with residual verification, the
operator norm of a square or rectangular matrix via the top eigenvalue of
its Gram matrix, and a modified Gram-Schmidt.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .errors import NearDependence, NumericalError

__all__ = [
    "HermitianMatrix",
    "EigenDecomposition",
    "as_matrix",
    "eig_hermitian",
    "operator_norm",
    "gram_schmidt",
]


def as_matrix(a, *, square: bool = True) -> np.ndarray:
    """Coerce ``a`` to a finite, non-empty complex128 2-d array, square unless told otherwise."""
    if isinstance(a, HermitianMatrix):
        return a.array
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or (square and arr.shape[0] != arr.shape[1]):
        kind = "square matrix" if square else "matrix"
        raise ValueError(f"expected a {kind}, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty matrices are not supported")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


class HermitianMatrix:
    """Square complex matrix with A == A† enforced at construction.

    The input may deviate from exact symmetry by at most
    ``TOL.hermitian_symmetry`` per entry; the stored array is the
    symmetrization (A + A†)/2 and is read-only.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        a = as_matrix(array)
        asym = float(np.max(np.abs(a - a.conj().T)))
        if asym > TOL.hermitian_symmetry:
            raise ValueError(
                f"matrix is not Hermitian: max asymmetry {asym:.3e} "
                f"exceeds {TOL.hermitian_symmetry:.1e}"
            )
        sym = (a + a.conj().T) / 2.0
        sym.setflags(write=False)
        self.array = sym

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order and matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, contract-checked.

    Raises NumericalError if the reconstruction residual exceeds
    ``TOL.eig_residual * dim * ||A||`` or the eigenvector matrix is not
    unitary within ``TOL.unitarity * dim``.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
    w, u = np.linalg.eigh(h.array)
    dim = h.dim
    scale = max(1.0, float(np.max(np.abs(w))))
    resid = float(np.linalg.norm(h.array @ u - u * w, ord="fro"))
    if resid > TOL.eig_residual * dim * scale:
        raise NumericalError(
            f"eigendecomposition residual {resid:.3e} exceeds "
            f"{TOL.eig_residual:.1e} * {dim} * {scale:.3e}"
        )
    orth = float(np.linalg.norm(u.conj().T @ u - np.eye(dim), ord="fro"))
    if orth > TOL.unitarity * dim:
        raise NumericalError(f"eigenvector matrix not unitary: {orth:.3e}")
    w.setflags(write=False)
    u.setflags(write=False)
    return EigenDecomposition(w, u)


def operator_norm(a) -> float:
    """Largest singular value of a finite, non-empty m×k matrix.

    Computed as the square root of the top eigenvalue of the Gram matrix on
    the smaller side: A†A (k×k) when m >= k, otherwise AA† (m×m).
    """
    arr = as_matrix(a, square=False)
    if arr.shape[0] >= arr.shape[1]:
        gram = arr.conj().T @ arr
    else:
        gram = arr @ arr.conj().T
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize ``vectors`` (modified Gram-Schmidt, two passes).

    The span is preserved and the output is orthonormal with pairwise inner
    products below ``TOL.orthonormal``. Inputs must be linearly independent:
    the smallest eigenvalue of the Gram matrix of the normalized inputs must
    be at least ``TOL.gram_independence``, otherwise NearDependence is raised
    naming the first vector whose orthogonal residual collapses.
    """
    vs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not vs:
        raise ValueError("need at least one vector")
    length = vs[0].shape[0]
    if any(v.shape[0] != length for v in vs):
        raise ValueError("vectors have mixed lengths")
    normed = []
    for i, v in enumerate(vs):
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise NearDependence(i, f"vector {i} is zero")
        normed.append(v / nrm)

    basis = np.stack(normed, axis=1)
    gram = basis.conj().T @ basis
    smallest = float(np.linalg.eigvalsh(gram)[0])
    dependent = smallest < TOL.gram_independence

    out: list[np.ndarray] = []
    for i, v in enumerate(normed):
        u = v.copy()
        for _ in range(2):  # reorthogonalization pass; twice is enough
            for q in out:
                u -= q * np.vdot(q, u)
        r = float(np.linalg.norm(u))
        if dependent and r < np.sqrt(TOL.gram_independence):
            raise NearDependence(
                i,
                f"vector {i} is linearly dependent on its predecessors "
                f"(residual {r:.3e}, smallest Gram eigenvalue {smallest:.3e})",
            )
        if r == 0.0:
            raise NearDependence(i, f"vector {i} collapsed during orthogonalization")
        out.append(u / r)
    if dependent:
        # Gram check failed but no residual collapsed; report the last index.
        raise NearDependence(
            len(vs) - 1,
            f"vectors are dependent within tolerance "
            f"(smallest Gram eigenvalue {smallest:.3e})",
        )
    return out

"""Dense complex linear algebra used everywhere else.

Thin, contract-checked wrappers: a Hermitian matrix type that stores an
exactly symmetrized array, a full eigensolver with residual and unitarity
verification, a lowest-eigenpair solver that verifies only the pair it
returns (its residual, and a Cholesky factorization showing that no
eigenvalue lies below it), the operator norm of a square or rectangular
matrix via the top eigenvalue of its Gram matrix (also for a stack of
equal-shaped matrices in one call, which is how the scan takes its norms),
and an orthonormalization by one Householder QR.
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
    "ground_eigenpair",
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
    return _finite_nonempty(arr)


def _finite_nonempty(arr: np.ndarray) -> np.ndarray:
    if arr.size == 0:
        raise ValueError("empty matrices are not supported")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


class HermitianMatrix:
    """Square complex matrix with A == A† enforced at construction.

    The input may deviate from exact symmetry by at most
    ``TOL.hermitian_symmetry`` times max(1, s) per entry, s the largest real
    or imaginary part of an entry, since rounding grows with the entries;
    the stored array is the symmetrization (A + A†)/2 and is read-only.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        a = as_matrix(array)
        # A† laid out row-major once, so no pass below reads a transpose.
        adj = np.conjugate(a.T, order="C")
        # One comparison settles an exactly Hermitian input (asymmetry 0).
        if not np.array_equal(a, adj):
            # Near the float limit a - adj overflows; an infinite asymmetry still fails.
            with np.errstate(over="ignore", invalid="ignore"):
                asym = float(np.max(np.abs(a - adj)))
            tol = TOL.hermitian_symmetry
            # s is only read past the plain tolerance; real and imaginary
            # parts, unlike |a_ij|, cannot overflow.
            if asym > tol and asym > tol * max(np.abs(a.real).max(), np.abs(a.imag).max()):
                raise ValueError(
                    f"matrix is not Hermitian: max asymmetry {asym:.3e} "
                    f"exceeds {tol:.1e} * max(1, largest |Re| or |Im| of an entry)"
                )
        try:
            with np.errstate(over="raise"):
                sym = a + adj
        except FloatingPointError:
            # Halving first keeps entries near the float limit finite; only
            # inputs whose sum overflows take this path, so no other bits move.
            sym = a * 0.5 + adj * 0.5
        else:
            sym /= 2.0
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


def ground_eigenpair(a) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue E of a Hermitian matrix and a unit eigenvector v.

    Only the returned pair is verified, against the bound
    delta = ``TOL.eig_residual * dim * scale`` with scale the larger of 1 and
    the spectral radius: the residual ||A v - E v|| must be at most delta,
    so some eigenvalue lies within delta of E, and A - (E - delta) I must
    have a Cholesky factorization, so every eigenvalue exceeds E - delta.
    Together they pin the smallest eigenvalue to within delta of E.
    Raises NumericalError when either check fails.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
    w, u = np.linalg.eigh(h.array)
    dim = h.dim
    energy = float(w[0])
    v = u[:, 0] / np.linalg.norm(u[:, 0])
    scale = max(1.0, float(np.max(np.abs(w))))
    bound = TOL.eig_residual * dim * scale
    resid = float(np.linalg.norm(h.array @ v - energy * v))
    if not resid <= bound:
        raise NumericalError(
            f"lowest eigenpair residual {resid:.3e} exceeds "
            f"{TOL.eig_residual:.1e} * {dim} * {scale:.3e}"
        )
    shifted = h.array.copy()
    shifted.flat[:: dim + 1] -= energy - bound
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"eigenvalue {energy:.6e} is not the smallest: A - ({energy:.6e} - "
            f"{bound:.3e}) I is not positive definite"
        ) from None
    return energy, v


def operator_norm(a):
    """Largest singular value of a finite, non-empty m×k matrix, or of each in a p×m×k stack.

    Computed as the square root of the top eigenvalue of the Gram matrix on
    the smaller side: A†A (k×k) when m >= k, otherwise AA† (m×m). A matrix
    gives a float. A stack gives a float64 array of p norms from one
    ``eigvalsh`` call; each equals bit for bit the norm of its matrix passed
    alone, so the stack size never changes an answer. A matrix whose Gram
    matrix overflows (entries above about 1e154) is scaled by a power of two.
    """
    if np.ndim(a) == 3:
        return _stack_norms(_finite_nonempty(np.asarray(a, dtype=np.complex128)))
    return float(_stack_norms(as_matrix(a, square=False)[None])[0])


def _stack_norms(stack: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        if stack.shape[1] >= stack.shape[2]:
            gram = stack.conj().swapaxes(1, 2) @ stack
        else:
            gram = stack @ stack.conj().swapaxes(1, 2)
    # |g_ij| <= sqrt(g_ii g_jj), so a finite trace means a finite Gram matrix.
    # LAPACK may fail on the others: they are zeroed and redone scaled.
    over = ~np.isfinite(np.trace(gram, axis1=1, axis2=2))
    gram[over] = 0.0
    norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    for i in np.flatnonzero(over):
        _, exp = np.frexp(max(np.abs(stack[i].real).max(), np.abs(stack[i].imag).max()))
        norms[i] = np.ldexp(_stack_norms(stack[i:i + 1] * np.ldexp(1.0, -exp))[0], exp)
    return norms


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize ``vectors`` in order, as Gram-Schmidt would, by one QR.

    Inputs must be linearly independent: the smallest eigenvalue of the
    Gram matrix of the normalized inputs must be at least
    ``TOL.gram_independence``, otherwise NearDependence is raised naming the
    first vector whose orthogonal residual |R_kk| falls below the square
    root of that tolerance, or if none does min(len(diag R), count - 1), so
    five vectors in C^3 name vector 3. Past that check, output k is column
    k of the Householder QR of the normalized inputs times the phase of
    R_kk: the Gram-Schmidt vector, with orthogonality at unit roundoff, so
    the span of every prefix is preserved.
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
    smallest = float(np.linalg.eigvalsh(basis.conj().T @ basis)[0])
    q, r = np.linalg.qr(basis)
    diag = np.diagonal(r)
    if smallest < TOL.gram_independence:
        small = np.flatnonzero(np.abs(diag) < np.sqrt(TOL.gram_independence))
        index = int(small[0]) if small.size else min(diag.size, len(vs) - 1)
        raise NearDependence(
            index,
            f"vector {index} is linearly dependent on its predecessors "
            f"(smallest Gram eigenvalue {smallest:.3e})",
        )
    return list((q * (diag / np.abs(diag))).T.copy())

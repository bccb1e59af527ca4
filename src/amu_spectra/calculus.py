"""Trapezoid bumps, matrix functional calculus, and ordered theta products.

The bump with center c and width eta is the piecewise-linear function that
is 1 on |t - c| <= 3 eta/4, 0 on |t - c| >= eta, and linear on the two
transition bands. No smoothing is applied; the trapezoid is exact.

A theta product for a tuple (a_1, ..., a_n) at a point xi is the ordered
matrix product bump(a_1) bump(a_2) ... bump(a_n) with factor j centered at
xi_j. The order is fixed left to right and never rearranged: the factors
do not commute in general and the product is usually not Hermitian.

Norms are taken in spectral coordinates. With a_j = U_j diag(w_j) U_j†,
each factor is F_j = U_j D_j U_j† with D_j = diag(bump(w_j)), so

    F_1 ⋯ F_n = U_1 [D_1 W_12 D_2 ⋯ W_{n-1,n} D_n] U_n†,   W_ij = U_i† U_j,

and since U_1 and U_n are unitary, ||F_1 ⋯ F_n|| equals the norm of the
bracketed core. D_j vanishes off the support S_j, the eigenvalues within
the width of the center, so the core only needs rows S_1, columns S_n and
the blocks W_{j,j+1}[S_j, S_{j+1}]: an |S_1|×|S_n| matrix instead of a
dim×dim product. ``BumpFactorCache`` holds the eigen-data, the couplings
W_{j,j+1} and the supports; ``theta_product`` and ``spectrum.scan`` build
the core with the same ``BumpFactorCache.core_step``, so their norms agree
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .errors import DimensionMismatch
from .linalg import EigenDecomposition, HermitianMatrix, eig_hermitian, operator_norm
from .observables import OperatorTuple, VectorState

__all__ = [
    "Bump",
    "ThetaProduct",
    "BumpFactorCache",
    "bump_values",
    "bump_eval",
    "apply_function",
    "theta_product",
    "witness_test",
]


def _check_width(width: float) -> float:
    width = float(width)
    if width <= 0.0:
        raise ValueError(f"bump width must be positive, got {width}")
    return width


def bump_values(center: float, width: float, t) -> np.ndarray:
    """Trapezoid bump evaluated elementwise on ``t``."""
    d = np.abs(np.asarray(t, dtype=float) - float(center))
    return np.clip((width - d) * (4.0 / width), 0.0, 1.0)


@dataclass(frozen=True)
class Bump:
    """One trapezoid bump; callable on scalars and arrays."""

    center: float
    width: float

    def __post_init__(self):
        _check_width(self.width)

    def __call__(self, t):
        return bump_values(self.center, self.width, t)


def bump_eval(bump: Bump, t: float) -> float:
    return float(bump_values(bump.center, bump.width, t))


def apply_function(f, a, dec: EigenDecomposition | None = None) -> HermitianMatrix:
    """Apply a real-valued function to a Hermitian matrix spectrally.

    f(A) = U diag(f(w)) U† from the eigendecomposition; the result is
    symmetrized on construction. Pass ``dec`` to reuse a decomposition.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
    if dec is None:
        dec = eig_hermitian(h)
    w = dec.eigenvalues
    try:
        vals = np.asarray(f(w), dtype=float)
        if vals.shape != w.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(f(x)) for x in w])
    m = (dec.eigenvectors * vals) @ dec.eigenvectors.conj().T
    return HermitianMatrix(m)


@dataclass(frozen=True)
class ThetaProduct:
    """Ordered product of bump factors, one per observable.

    ``value`` is the raw dense product matrix. ``factor_norms`` are the
    operator norms of the individual factors (each the max of the bump over
    the corresponding spectrum). ``norm`` is the operator norm of the
    product, taken from its support-restricted core (see the module
    docstring); it is exactly 0.0 when some factor vanishes.
    """

    centers: tuple[float, ...]
    width: float
    value: np.ndarray
    factor_norms: tuple[float, ...]
    norm: float


class BumpFactorCache:
    """Per-tuple spectral data for bump factors, keyed by (axis, center, width).

    Holds the checked eigendecomposition of every observable, the couplings
    ``couplings[j] = U_j† U_{j+1}`` between neighbouring eigenbases, and per
    key the bump's support with its non-zero values. Keys compare by exact
    float equality; grid scans re-use the same coordinate floats so hits are
    exact. Safe for concurrent readers with single-writer insertion: values
    for a key are identical no matter which thread computes them first.
    """

    def __init__(self, tup: OperatorTuple):
        self.tuple = tup
        self._eig = [eig_hermitian(op) for op in tup.ops]
        couplings = []
        for left, right in zip(self._eig, self._eig[1:]):
            w = left.eigenvectors.conj().T @ right.eigenvectors
            w.setflags(write=False)
            couplings.append(w)
        self.couplings = tuple(couplings)
        self._supports: dict[tuple[int, float, float], tuple[slice, np.ndarray]] = {}
        self._matrices: dict[tuple[int, float, float], np.ndarray] = {}

    def support(self, axis: int, center: float, width: float) -> tuple[slice, np.ndarray]:
        """Eigenvalue indices where the bump is non-zero, and its values there.

        The eigenvalues are ascending and the bump is positive exactly within
        ``width`` of the center, so the support is one slice of indices.
        """
        key = (axis, float(center), float(width))
        got = self._supports.get(key)
        if got is None:
            vals = bump_values(key[1], key[2], self._eig[axis].eigenvalues)
            nonzero = np.flatnonzero(vals)
            if nonzero.size:
                sl = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
            else:
                sl = slice(0, 0)
            kept = vals[sl].copy()
            kept.setflags(write=False)
            got = (sl, kept)
            self._supports[key] = got
        return got

    def factor_norm(self, axis: int, center: float, width: float) -> float:
        """Operator norm of the bump factor: max of the bump over the spectrum."""
        vals = self.support(axis, center, width)[1]
        return float(np.max(vals)) if vals.size else 0.0

    def factor_matrix(self, axis: int, center: float, width: float) -> np.ndarray:
        """The dense factor U_j D_j U_j†, Hermitian and read-only."""
        key = (axis, float(center), float(width))
        got = self._matrices.get(key)
        if got is None:
            sl, vals = self.support(axis, center, width)
            u = self._eig[axis].eigenvectors[:, sl]
            m = (u * vals) @ u.conj().T
            m = (m + m.conj().T) / 2.0  # bump is real, so the factor is Hermitian
            m.setflags(write=False)
            self._matrices[key] = m
            got = m
        return got

    def core_step(
        self, prefix: np.ndarray, axis: int, prev_center: float, center: float, width: float
    ) -> np.ndarray:
        """Extend the core D_1 W_12 ⋯ D_{axis-1} by W_{axis-1,axis} D_axis.

        ``prefix`` is the core so far, restricted to the supports; a 1-d
        prefix is the diagonal of D_1 (``support(0, ...)[1]``). Returns an
        |S_1|×|S_axis| matrix. Both supports must be non-empty.
        """
        prev = self.support(axis - 1, prev_center, width)[0]
        sl, vals = self.support(axis, center, width)
        block = self.couplings[axis - 1][prev, sl]
        if prefix.ndim == 1:
            return (prefix[:, None] * block) * vals
        return (prefix @ block) * vals


def theta_product(
    tup: OperatorTuple,
    xi,
    eta: float,
    cache: BumpFactorCache | None = None,
) -> ThetaProduct:
    """Ordered theta product for ``tup`` at the point ``xi`` with width ``eta``."""
    eta = float(eta)
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    centers = tuple(float(x) for x in np.asarray(xi, dtype=float).reshape(-1))
    if len(centers) != tup.n:
        raise DimensionMismatch(f"point has {len(centers)} coordinates, tuple has n={tup.n}")
    if cache is None:
        cache = BumpFactorCache(tup)
    elif cache.tuple is not tup:
        raise ValueError("cache was built for a different tuple")
    value = cache.factor_matrix(0, centers[0], eta)
    for j in range(1, tup.n):
        value = value @ cache.factor_matrix(j, centers[j], eta)
    fnorms = tuple(cache.factor_norm(j, centers[j], eta) for j in range(tup.n))
    if min(fnorms) == 0.0:
        norm = 0.0  # some support is empty, so the product is zero
    else:
        core = cache.support(0, centers[0], eta)[1]
        for j in range(1, tup.n):
            core = cache.core_step(core, j, centers[j - 1], centers[j], eta)
        norm = operator_norm(np.diag(core) if core.ndim == 1 else core)
    return ThetaProduct(centers, eta, value, fnorms, norm)


def witness_test(theta: ThetaProduct, state: VectorState, eta: float | None = None) -> bool:
    """True when Re <Theta x, x> > 1 - eta for the unit vector x.

    A passing witness certifies ||Theta|| >= 1 - eta; a failing one proves
    nothing. Defaults to the product's own width.
    """
    if eta is None:
        eta = theta.width
    if theta.value.shape[0] != state.dim:
        raise DimensionMismatch(
            f"product dim {theta.value.shape[0]} does not match state dim {state.dim}"
        )
    val = complex(np.vdot(state.vector, theta.value @ state.vector))
    return bool(val.real > 1.0 - float(eta))

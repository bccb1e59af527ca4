"""Trapezoid bumps and the norms of ordered theta products.

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
dim×dim product. ``BumpFactorCache`` holds the eigen-data and the couplings
W_{j,j+1}, and is read-only once built. ``BumpFactorCache.couple`` multiplies
a core by the rows S_{j-1} of the next coupling with every column kept, so
one product serves every center on the next axis: the core at center c is
the columns S(c) scaled by the bump values. Callers keep the supports they
walk and hand the previous one back to ``couple``. ``theta_product`` takes
those columns for its one center; ``spectrum.scan`` takes them for one
last-axis center across a chunk of prefix cores and passes that stack to
``linalg.operator_norm`` with the scan's floor.
The arithmetic per point is the same on both paths, so their norms agree
bit for bit. No dense factor is formed on either path;
``BumpFactorCache.factor_matrix`` builds one only as the reference the core
norms are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eig_hermitian, operator_norm
from .observables import OperatorTuple, as_point

__all__ = [
    "ThetaProduct",
    "BumpFactorCache",
    "bump_values",
    "theta_product",
]


def bump_values(center: float, width: float, t) -> np.ndarray:
    """Trapezoid bump evaluated elementwise on ``t``."""
    d = np.abs(np.asarray(t, dtype=float) - float(center))
    return np.clip((width - d) * (4.0 / width), 0.0, 1.0)


@dataclass(frozen=True)
class ThetaProduct:
    """Norms of the ordered product of bump factors, one per observable.

    ``factor_norms`` are the operator norms of the individual factors (each
    the max of the bump over the corresponding spectrum). ``norm`` is the
    operator norm of the product, taken from its support-restricted core
    (see the module docstring); it is exactly 0.0 when some factor vanishes.
    """

    centers: tuple[float, ...]
    width: float
    factor_norms: tuple[float, ...]
    norm: float


class BumpFactorCache:
    """Per-tuple spectral data for bump factors.

    Holds the checked eigendecomposition of every observable and the
    couplings ``couplings[j] = U_j† U_{j+1}`` between neighbouring
    eigenbases. Nothing is written after ``__init__`` and the couplings are
    read-only arrays, so any number of threads may share one cache.
    """

    def __init__(self, tup: OperatorTuple):
        self.tuple = tup
        self._values, self._vectors = zip(*(eig_hermitian(op) for op in tup.ops))
        couplings = []
        for left, right in zip(self._vectors, self._vectors[1:]):
            w = left.conj().T @ right
            w.setflags(write=False)
            couplings.append(w)
        self.couplings = tuple(couplings)

    def support(self, axis: int, center: float, width: float) -> tuple[slice, np.ndarray]:
        """Eigenvalue indices where the bump is non-zero, and its values there.

        The eigenvalues are ascending and the bump is positive exactly within
        ``width`` of the center, so the support is one slice of indices.
        """
        vals = bump_values(center, width, self._values[axis])
        nonzero = np.flatnonzero(vals)
        if nonzero.size:
            sl = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
        else:
            sl = slice(0, 0)
        kept = vals[sl]
        kept.setflags(write=False)
        return sl, kept

    def factor_norm(self, axis: int, center: float, width: float) -> float:
        """Operator norm of the bump factor: max of the bump over the spectrum."""
        vals = self.support(axis, center, width)[1]
        return float(np.max(vals)) if vals.size else 0.0

    def factor_matrix(self, axis: int, center: float, width: float) -> np.ndarray:
        """The dense factor U_j[:, S] diag(v) U_j[:, S]†, built on every call.

        No scan or product forms it: it is the dense reference the core norms
        are tested against.
        """
        sl, vals = self.support(axis, center, width)
        u = self._vectors[axis][:, sl]
        return (u * vals) @ u.conj().T

    def couple(self, prefix: np.ndarray, axis: int, prev: slice) -> np.ndarray:
        """The core D_1 W_12 ⋯ D_{axis-1} times W_{axis-1,axis}, every column kept.

        ``prefix`` is the core so far, restricted to the supports; a 1-d
        prefix is the diagonal of D_1 (``support(0, ...)[1]``). ``prev`` is
        the non-empty support slice of the previous axis, the one ``prefix``
        ends on. Returns an |S_1|×dim matrix whose columns
        ``support(axis, c, width)[0]``, times the bump values there, are the
        core extended to center c. One call therefore serves every center on
        ``axis``.
        """
        rows = self.couplings[axis - 1][prev]
        if prefix.ndim == 1:
            return prefix[:, None] * rows
        return prefix @ rows


def theta_product(
    tup: OperatorTuple,
    xi,
    eta: float,
    cache: BumpFactorCache | None = None,
) -> ThetaProduct:
    """Factor norms and product norm of the ordered theta product at ``xi``."""
    eta = float(eta)
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    centers = as_point(xi, tup.n, "point")
    if cache is None:
        cache = BumpFactorCache(tup)
    elif cache.tuple is not tup:
        raise ValueError("cache was built for a different tuple")
    supports = [cache.support(j, centers[j], eta) for j in range(tup.n)]
    # A factor's norm is the largest bump value on its spectrum (``factor_norm``).
    fnorms = tuple(float(np.max(vals)) if vals.size else 0.0 for _, vals in supports)
    if min(fnorms) == 0.0:
        norm = 0.0  # some support is empty, so the product is zero
    else:
        prev, core = supports[0]
        for j, (sl, vals) in enumerate(supports[1:], 1):
            core = cache.couple(core, j, prev)[:, sl] * vals
            prev = sl
        norm = operator_norm(np.diag(core) if core.ndim == 1 else core)
    return ThetaProduct(centers, eta, fnorms, norm)


"""Synthetic spectra: coordinate grids, the acceptance scan, Hausdorff distance.

The grid for resolution eta and bound M is the set of points whose
coordinates are integer multiples m/k with |m| <= floor(M k), where k is
the smallest positive integer with (M + 1)/k < eta / (2 sqrt(n)). A grid
point is accepted when the ordered theta product centered there has
operator norm at least 1 - eta (with a small slack absorbing eigensolver
error), and the synthetic spectrum at resolution eta is the union of
closed eta-balls around the accepted points.

The scan never forms a dim×dim factor. Writing each factor as
U_j D_j U_j† gives ||F_1 ⋯ F_n|| = ||D_1 W_12 D_2 ⋯ W_{n-1,n} D_n|| with
W_ij = U_i† U_j, and the right-hand core only has rows and columns on the
bump supports. ``scan`` walks the grid axis by axis, extends the
rectangular core by one coupling block per axis, and takes one operator
norm per evaluated point.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import GRID_POINT_CAP, TOL
from .calculus import BumpFactorCache
from .errors import GridCapExceeded
from .linalg import operator_norm
from .observables import OperatorTuple

# Largest |rows|×|B|×n float64 difference tensor ``hausdorff`` forms at once.
HAUSDORFF_BLOCK_BYTES = 32 * 2**20

__all__ = [
    "GridSpec",
    "SyntheticSpectrumResult",
    "build_grid",
    "grid_step_count",
    "is_refinement",
    "scan",
    "hausdorff",
]


@dataclass(frozen=True)
class GridSpec:
    """Product grid {m/k : |m| <= half}^n with half = floor(M k)."""

    n: int
    bound: float
    k: int
    half: int

    @property
    def count(self) -> int:
        return (2 * self.half + 1) ** self.n

    @property
    def pitch(self) -> float:
        return 1.0 / self.k

    @cached_property
    def axis_values(self) -> np.ndarray:
        vals = np.arange(-self.half, self.half + 1, dtype=float) / float(self.k)
        vals.setflags(write=False)
        return vals

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points, lexicographic in the coordinates, shape (count, n)."""
        axes = np.meshgrid(*([self.axis_values] * self.n), indexing="ij")
        pts = np.stack([ax.reshape(-1) for ax in axes], axis=1)
        pts.setflags(write=False)
        return pts

    def nearest(self, z) -> np.ndarray:
        """Closest grid point to ``z`` (coordinatewise rounding, clipped)."""
        z = np.asarray(z, dtype=float).reshape(-1)
        if z.shape[0] != self.n:
            raise ValueError(f"point has {z.shape[0]} coordinates, grid has n={self.n}")
        m = np.clip(np.rint(z * self.k), -self.half, self.half)
        return m / float(self.k)


def grid_step_count(n: int, bound: float, eta: float) -> int:
    """Smallest integer k with (bound + 1)/k < eta / (2 sqrt(n))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    threshold = 2.0 * math.sqrt(n) * (bound + 1.0) / eta
    # Strict inequality: at an exact integer threshold the next k is needed.
    return int(math.floor(threshold)) + 1


def build_grid(
    n: int,
    bound: float,
    eta: float | None = None,
    *,
    k: int | None = None,
    cap: int | None = GRID_POINT_CAP,
) -> GridSpec:
    """Grid for resolution ``eta``, or directly for an explicit ``k``.

    Exactly one of ``eta`` and ``k`` drives the step count; passing ``k``
    overrides the resolution rule. The point count is checked against
    ``cap`` before anything is materialized.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    bound = float(bound)
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    if k is None:
        if eta is None:
            raise ValueError("pass eta or an explicit k")
        k = grid_step_count(n, bound, eta)
    else:
        k = int(k)
        if k < 1:
            raise ValueError("k must be a positive integer")
    half = int(math.floor(bound * k))
    count = (2 * half + 1) ** n
    if cap is not None and count > cap:
        raise GridCapExceeded(count, cap)
    return GridSpec(n=n, bound=bound, k=k, half=half)


def is_refinement(coarse: GridSpec, fine: GridSpec) -> bool:
    """Whether every point of ``coarse`` is also a point of ``fine``.

    Holds exactly when the step counts nest (coarse.k divides fine.k) for
    grids with the same n and bound. Grids at a smaller resolution are not
    automatically refinements: the step rule can produce non-nesting k.
    """
    if coarse.n != fine.n or coarse.bound != fine.bound:
        return False
    return fine.k % coarse.k == 0


@dataclass(frozen=True)
class SyntheticSpectrumResult:
    """Accepted grid points with their theta-product norms.

    The synthetic spectrum at resolution eta is the union of closed
    eta-balls around the accepted points; ``accepted`` is in lexicographic
    grid order and each entry is ((coordinates...), norm).
    """

    eta: float
    grid: GridSpec
    accepted: tuple[tuple[tuple[float, ...], float], ...]
    slack: float

    @property
    def ball_radius(self) -> float:
        return self.eta

    def accepted_points(self) -> np.ndarray:
        if not self.accepted:
            return np.zeros((0, self.grid.n))
        return np.array([p for p, _ in self.accepted], dtype=float)

    def accepted_norms(self) -> np.ndarray:
        return np.array([nrm for _, nrm in self.accepted], dtype=float)

    def covers(self, z, radius: float | None = None) -> bool:
        """Whether ``z`` lies within ``radius`` (default eta) of an accepted point."""
        pts = self.accepted_points()
        if pts.shape[0] == 0:
            return False
        z = np.asarray(z, dtype=float).reshape(-1)
        r = self.eta if radius is None else float(radius)
        d = np.sqrt(((pts - z) ** 2).sum(axis=1))
        return bool(d.min() <= r)

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "M": self.grid.bound,
            "n": self.grid.n,
            "k": self.grid.k,
            "accepted": [
                {"point": list(p), "norm": nrm} for p, nrm in self.accepted
            ],
            "meta": {
                "slack": self.slack,
                "grid_points": self.grid.count,
                "accepted_count": len(self.accepted),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(d: dict) -> "SyntheticSpectrumResult":
        grid = build_grid(int(d["n"]), float(d["M"]), k=int(d["k"]), cap=None)
        accepted = tuple(
            (tuple(float(x) for x in entry["point"]), float(entry["norm"]))
            for entry in d["accepted"]
        )
        slack = float(d.get("meta", {}).get("slack", TOL.accept_slack))
        return SyntheticSpectrumResult(float(d["eta"]), grid, accepted, slack)


def scan(
    tup: OperatorTuple,
    eta: float,
    *,
    k: int | None = None,
    cap: int | None = GRID_POINT_CAP,
    threads: int = 1,
    cache: BumpFactorCache | None = None,
) -> SyntheticSpectrumResult:
    """Evaluate the acceptance test at every grid point.

    A point is accepted when the ordered theta product centered there has
    norm >= 1 - eta - slack. Points where some single factor already has
    norm below the threshold are skipped: the product norm is at most the
    smallest factor norm, so the skipped points cannot be accepted. The
    norm is taken from the support-restricted core D_1 W_12 D_2 ⋯ D_n (see
    ``calculus``), built axis by axis so every prefix is shared by the
    points below it; supports are computed once per (axis, coordinate).

    ``threads`` parallelizes over slices of the first coordinate; results
    are assembled in grid order, so the output is identical for any thread
    count.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    grid = build_grid(tup.n, tup.bound, eta, k=k, cap=cap)
    local_cache = cache if cache is not None else BumpFactorCache(tup)
    threshold = 1.0 - eta - TOL.accept_slack
    n = tup.n

    # factor_norm fills the support cache, so the threaded phase only reads it.
    alive: list[list[float]] = []
    for axis in range(n):
        vals = [
            float(x)
            for x in grid.axis_values
            if local_cache.factor_norm(axis, float(x), eta) >= threshold
        ]
        alive.append(vals)
    if any(not vals for vals in alive):
        return SyntheticSpectrumResult(eta, grid, (), TOL.accept_slack)

    def scan_block(first: float) -> list[tuple[tuple[float, ...], float]]:
        out: list[tuple[tuple[float, ...], float]] = []
        point = [first] + [0.0] * (n - 1)

        def descend(axis: int, core: np.ndarray) -> None:
            if axis == n:
                nrm = operator_norm(np.diag(core) if core.ndim == 1 else core)
                if nrm >= threshold:
                    out.append((tuple(point), float(nrm)))
                return
            prev = point[axis - 1]
            for x in alive[axis]:
                point[axis] = x
                descend(axis + 1, local_cache.core_step(core, axis, prev, x, eta))

        descend(1, local_cache.support(0, first, eta)[1])
        return out

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(scan_block, alive[0]))
    else:
        blocks = [scan_block(x) for x in alive[0]]
    accepted = tuple(entry for block in blocks for entry in block)
    return SyntheticSpectrumResult(eta, grid, accepted, TOL.accept_slack)


def hausdorff(x, y) -> float:
    """Hausdorff distance between two finite nonempty point sets.

    Points are rows; one-dimensional inputs are treated as points on the
    line. Raises ValueError when either set is empty, where the distance
    is undefined. Squared distances are formed a block of rows of ``x`` at
    a time, each block at most ``HAUSDORFF_BLOCK_BYTES``, so memory stays
    bounded for large sets; min and max are exact, so the result does not
    depend on the block size.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("Hausdorff distance is undefined for empty sets")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    rows = max(1, HAUSDORFF_BLOCK_BYTES // (8 * b.shape[0] * max(1, b.shape[1])))
    forward = -math.inf
    col_min = np.full(b.shape[0], np.inf)
    for start in range(0, a.shape[0], rows):
        d2 = ((a[start:start + rows, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        forward = max(forward, float(d2.min(axis=1).max()))
        np.minimum(col_min, d2.min(axis=0), out=col_min)
    return float(np.sqrt(max(forward, col_min.max())))

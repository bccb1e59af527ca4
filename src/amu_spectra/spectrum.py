"""Synthetic spectra: coordinate grids, the acceptance scan, Hausdorff distance.

The grid for resolution eta and bound M is the set of points whose
coordinates are integer multiples m/k with |m| <= floor(M k), where k is
the smallest positive integer with (M + 1)/k < eta / (2 sqrt(n)). A grid
point is accepted when the ordered theta product centered there has
operator norm at least 1 - eta (with a small slack absorbing eigensolver
error), and the synthetic spectrum at resolution eta is the union of
closed eta-balls around the accepted points. A ``GridSpec`` stores only
the step count and its axis values, never the list of points:
``itertools.product(grid.axis_values, repeat=grid.n)`` enumerates them in
the lexicographic order ``scan`` reports.

The scan never forms a dim×dim factor. Writing each factor as
U_j D_j U_j† gives ||F_1 ⋯ F_n|| = ||D_1 W_12 D_2 ⋯ W_{n-1,n} D_n|| with
W_ij = U_i† U_j, and the right-hand core only has rows and columns on the
bump supports. ``scan`` walks the grid axis by axis and extends the
rectangular core by one coupling per axis. Within each block of points
that share the first coordinate, it multiplies a chunk of prefix cores, at
most ``CORE_STACK_BYTES``, by the last coupling at once, and each
last-axis center's cores across the chunk are decided as one stack: their
Gram matrices are formed once, the cores whose Gram bound cannot reach the
threshold are rejected, and the rest are eigensolved. A scan that needs
only the accepted set (``norms=False``, as ``amu --lambda all-accepted``
runs it) first accepts most points from a Rayleigh-quotient lower bound,
so it eigensolves only the points near the threshold.

A ``SyntheticSpectrumResult`` holds its accepted set as two read-only
arrays: the grid index m of every coordinate (the coordinate is m/k), and
the float64 norms, or None for a ``norms=False`` scan. A point costs
4 n + 8 bytes, so the accepted set stays small up to ``GRID_POINT_CAP``.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import GRID_POINT_CAP, TOL
from .calculus import BumpFactorCache
from .errors import GridCapExceeded
from .linalg import operator_norm
from .models import JsonRows
from .observables import OperatorTuple, as_point

# Largest |rows|×|B|×n float64 difference tensor ``hausdorff`` forms at once.
HAUSDORFF_BLOCK_BYTES = 32 * 2**20
# Largest chunk of complex128 prefix cores ``scan`` multiplies by the last
# coupling at once. Each last-axis core is a slice of that product times the
# bump values; besides the chunk, a worker holds one center's cores and their
# Gram matrices.
CORE_STACK_BYTES = 2**18

__all__ = [
    "GridSpec",
    "SyntheticSpectrumResult",
    "build_grid",
    "grid_step_count",
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
    def _axis_texts(self) -> list[str]:
        """The repr of every axis value, in axis order: the text of a coordinate."""
        return list(map(float.__repr__, self.axis_values.tolist()))


def grid_step_count(n: int, bound: float, eta: float) -> int:
    """Smallest integer k with (bound + 1)/k < eta / (2 sqrt(n)), for finite bound, eta > 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 < bound < math.inf):
        raise ValueError(f"bound must be positive and finite, got {bound}")
    if not (0.0 < eta < math.inf):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    threshold = 2.0 * math.sqrt(n) * (bound + 1.0) / eta
    # Strict inequality: at an exact integer threshold the next k is needed.
    return int(math.floor(threshold)) + 1


def build_grid(n: int, bound: float, eta: float, *, cap: int = GRID_POINT_CAP) -> GridSpec:
    """Grid for resolution ``eta``, with the step count of ``grid_step_count``.

    The point count is checked against ``cap`` before anything is
    materialized. A step count or half-width beyond float range exceeds
    any cap.
    """
    bound = float(bound)
    try:
        k = grid_step_count(n, bound, eta)
        half = int(math.floor(bound * k))
    except OverflowError:  # raised only by a step count or half-width past float range
        raise GridCapExceeded(math.inf, cap) from None
    count = (2 * half + 1) ** n
    if count > cap:
        raise GridCapExceeded(count, cap)
    return GridSpec(n=n, bound=bound, k=k, half=half)


@dataclass(frozen=True, eq=False)
class SyntheticSpectrumResult:
    """Accepted grid points with their theta-product norms.

    The synthetic spectrum at resolution eta is the union of closed
    eta-balls around the accepted points, in lexicographic grid order.
    ``accepted`` is a read-only count×n integer array: the grid index m of
    every coordinate, whose value is m/k, so |m| <= grid.half.
    ``norms`` is the read-only float64 array of their norms, or None for a
    scan with ``norms=False``. Arrays of any other shape, dtype or range
    raise ValueError, and so does a norm that is not finite or is negative,
    so every result is strict JSON.
    """

    eta: float
    grid: GridSpec
    accepted: np.ndarray
    norms: np.ndarray | None

    def __post_init__(self):
        accepted = np.asarray(self.accepted)
        n, half = self.grid.n, self.grid.half
        if accepted.dtype.kind not in "iu" or accepted.ndim != 2 or accepted.shape[1] != n:
            raise ValueError(f"accepted must be a count×{n} integer array, "
                             f"got {accepted.dtype} of shape {accepted.shape}")
        if ((accepted < -half) | (accepted > half)).any():
            raise ValueError(f"accepted holds a grid index beyond ±{half}")
        object.__setattr__(self, "accepted", _read_only(accepted.astype(np.int32, copy=False)))
        if self.norms is not None:
            norms = np.asarray(self.norms, dtype=float)
            if norms.shape != accepted.shape[:1]:
                raise ValueError(f"norms must have shape {accepted.shape[:1]}, got {norms.shape}")
            if not (norms >= 0.0).all() or not np.isfinite(norms).all():
                raise ValueError("norms must be finite and non-negative")
            object.__setattr__(self, "norms", _read_only(norms))

    def accepted_points(self) -> np.ndarray:
        """The accepted points as a count×n float array of grid values."""
        return self.grid.axis_values[self.accepted + self.grid.half]

    def covers(self, z, radius: float | None = None) -> bool:
        """Whether ``z`` lies within ``radius`` (default eta) of an accepted point.

        Raises ValueError unless ``z`` is a finite point with n coordinates
        (``as_point``); so does a NaN or negative ``radius``.
        """
        z = as_point(z, self.grid.n, "point")
        r = self.eta if radius is None else float(radius)
        if not r >= 0.0:
            raise ValueError(f"radius must be non-negative, got {r}")
        if not len(self.accepted):
            return False
        d = np.sqrt(((self.accepted_points() - z) ** 2).sum(axis=1))
        return bool(d.min() <= r)

    def to_json_dict(self) -> dict:
        """This result as JSON data; ``accepted`` is a ``JsonRows``.

        Each entry is made only when ``write_json`` reads it, and the writer
        gets the text of every entry's numbers, so a chunk of entries is
        formatted in one pass: a tuple per entry, the repr of each coordinate,
        then of its norm, or "null" for each in a result without norms. Each
        coordinate's text is looked up by its grid index, so no coordinate is
        formatted twice.
        """
        def texts(rows: range):
            lo, hi = rows.start, rows.stop
            cells = map(self.grid._axis_texts.__getitem__,
                        (self.accepted[lo:hi] + self.grid.half).ravel().tolist())
            if self.norms is None:
                norms = ["null"] * len(rows)
            else:
                norms = map(float.__repr__, self.norms[lo:hi].tolist())
            return zip(*[cells] * self.grid.n, norms)

        return {
            "eta": self.eta,
            "M": self.grid.bound,
            "n": self.grid.n,
            "k": self.grid.k,
            "accepted": JsonRows(range(len(self.accepted)), self._entry, texts),
            "meta": {
                "slack": TOL.accept_slack,
                "grid_points": self.grid.count,
                "accepted_count": len(self.accepted),
            },
        }

    def _entry(self, i: int) -> dict:
        point = self.grid.axis_values[self.accepted[i] + self.grid.half].tolist()
        return {"point": point, "norm": None if self.norms is None else float(self.norms[i])}


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


def _thread_map(fn, *iterables, threads: int) -> list:
    """``list(map(fn, *iterables))``, on a pool of ``threads`` workers past one thread.

    At one thread ``fn`` runs inline: a worker would only add its own
    malloc arena to the peak memory. Results come back in order either way,
    so no output depends on ``threads``.
    """
    if threads == 1:
        return list(map(fn, *iterables))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *iterables))


def scan(
    tup: OperatorTuple,
    eta: float,
    *,
    cap: int = GRID_POINT_CAP,
    threads: int = 1,
    norms: bool = True,
) -> SyntheticSpectrumResult:
    """Evaluate the acceptance test at every grid point.

    A point is accepted when the ordered theta product centered there has
    norm >= 1 - eta - slack. Points where some single factor already has
    norm below the threshold are skipped: the product norm is at most the
    smallest factor norm, so the skipped points cannot be accepted. The
    norm is taken from the support-restricted core D_1 W_12 D_2 ⋯ D_n (see
    ``calculus``), built axis by axis so every prefix is shared by the
    points below it. Each coordinate's support is computed once, before any
    block runs: its largest bump value is the factor norm the skip test
    reads, and the supports of the surviving coordinates are only read
    afterwards.

    The grid is evaluated one block of points with the same first
    coordinate at a time. Within a block, the prefix cores are multiplied
    by the last coupling a chunk of at most ``CORE_STACK_BYTES`` at a time;
    for each last-axis center, its cores across the chunk are sliced out of
    those products and go to one ``operator_norm`` call, so one center's
    cores and Gram matrices are held at a time. Its ``floor`` rejects
    unsolved a core whose Gram matrix G has ||G||_F <= (1 - eta - 2 slack)^2,
    its norm being ``TOL.accept_slack`` or more below the threshold; every
    other core gets its norm. Every axis keeps a center: the pitch
    1/k is below eta / (2 sqrt(n) (M + 1)) < eta/2, so each eigenvalue, at
    the edges too, lies within eta/2 of a grid value, and a bump of width
    eta is 1 within 3 eta/4 of its center. The stacking changes no norm:
    every point gets the arithmetic ``theta_product`` performs for it alone.

    Each chunk's accepted points are found with one ``np.nonzero`` over
    its decisions, and kept as the grid indices and norms the result holds.
    The blocks are mapped through a pool of ``threads`` workers when
    ``threads`` is above 1, and run inline at 1; results are assembled in
    grid order, so the output is identical for any thread count.

    With ``norms=False`` the scan decides acceptance only, and the result
    stores no norms. Each chunk first gets ``_witness``, a lower
    bound w on ||C||^2 for every last-axis core C, in a few products with
    the coupled prefixes and without forming the cores. A point with
    w >= (1 - eta)^2 is accepted without an eigensolve: its norm is at
    least 1 - eta, which is ``TOL.accept_slack`` above the threshold, far
    beyond rounding. Only the other cores are formed and decided as above,
    so the accepted points are exactly those of ``norms=True``, in order.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    grid = build_grid(tup.n, tup.bound, eta, cap=cap)
    cache = BumpFactorCache(tup)
    threshold = 1.0 - eta - TOL.accept_slack
    n = tup.n

    # The grid index m of every center that survives the skip test, per axis.
    alive: list[list[int]] = [[] for _ in range(n)]
    supports: list[list[tuple[slice, np.ndarray]]] = [[] for _ in range(n)]
    for axis in range(n):
        for m, x in zip(range(-grid.half, grid.half + 1), grid.axis_values.tolist()):
            sl, vals = cache.support(axis, x, eta)
            if vals.size and vals.max() >= threshold:
                alive[axis].append(m)
                supports[axis].append((sl, vals))
    last = np.array(alive[-1], dtype=np.int32)
    # At or below this bound on its squared norm a core is rejected unsolved.
    floor = (threshold - TOL.accept_slack) ** 2
    if not norms:
        # Column c holds the squared bump values of last-axis center c, the
        # weights ``_witness`` puts on the columns of a coupled prefix.
        weights = np.zeros((tup.dim, len(last)))
        for c, (sl, vals) in enumerate(supports[-1]):
            weights[sl, c] = vals**2

    def scan_block(first: int, support: tuple[slice, np.ndarray]) -> list:
        """The (grid indices, norms) of the block's accepted points, a pair per chunk."""
        head = support[1]
        if n == 1:
            nrm = operator_norm(np.diag(head), floor=floor)
            return [(np.array([[first]], dtype=np.int32), np.array([nrm]))] if nrm >= threshold else []
        rows = head.size
        out: list[tuple[np.ndarray, np.ndarray]] = []
        walk = _prefixes(cache, alive, supports, 1, (first,), *support)
        per_chunk = max(1, CORE_STACK_BYTES // (16 * rows * tup.dim))
        while chunk := list(itertools.islice(walk, per_chunk)):
            wides = np.stack([cache.couple(core, n - 1, prev) for _, prev, core in chunk])
            values = np.zeros((len(last), len(chunk)))
            witnessed = (np.zeros(values.shape, dtype=bool) if norms
                         else (_witness(wides, weights) >= (1.0 - eta) ** 2).T)
            for i, (sl, vals) in enumerate(supports[-1]):
                # The cores the witness left; when that is all of them, sliced, not copied.
                if (pick := np.flatnonzero(~witnessed[i])).size:
                    part = slice(None) if pick.size == len(chunk) else pick
                    values[i, part] = operator_norm(wides[part, :, sl] * vals, floor=floor)
            # Prefix-major, then by last-axis center: grid order.
            prefix, center = np.nonzero((witnessed | (values >= threshold)).T)
            heads = np.array([coords for coords, _, _ in chunk], dtype=np.int32)
            out.append((np.column_stack((heads[prefix], last[center])),
                        values[center, prefix] if norms else None))
        return out

    parts = [part for block in _thread_map(scan_block, alive[0], supports[0], threads=threads)
             for part in block]
    accepted = np.concatenate([np.zeros((0, n), dtype=np.int32), *(p for p, _ in parts)])
    values = np.concatenate([np.zeros(0), *(v for _, v in parts)]) if norms else None
    return SyntheticSpectrumResult(eta, grid, accepted, values)


def _prefixes(cache: BumpFactorCache, alive: list, supports: list, axis: int,
              coords: tuple[int, ...], prev: slice, core: np.ndarray):
    """(grid indices, last support, core) for every alive point of the axes before the last.

    A module function, not a closure of ``scan``: a closure that calls
    itself is a reference cycle, which would keep the scan's factor cache
    alive after it returns, until the garbage collector next runs.
    """
    if axis == len(alive) - 1:
        yield coords, prev, core
        return
    wide = cache.couple(core, axis, prev)
    for m, (sl, vals) in zip(alive[axis], supports[axis]):
        yield from _prefixes(cache, alive, supports, axis + 1, coords + (m,), sl,
                             wide[:, sl] * vals)


def _witness(wides: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A lower bound on ||C||^2 for the core C of every prefix and last-axis center.

    ``wides`` is a p×rows×dim stack of coupled prefixes and ``weights`` a
    dim×c matrix of non-negative column weights; the core of prefix q and
    center j is wides[q] with column l scaled by sqrt(weights[l, j]). Returns
    the p×c Rayleigh quotients w = ||g||^2 / g_i of G = C C† at g = G e_i,
    where i is the row of C of largest norm and g_i is its squared norm.
    With G = sum_k lam_k u_k u_k†, w is the mean of the eigenvalues lam_k
    under the weights lam_k |u_k[i]|^2 >= 0, so it never exceeds the
    largest one, ||C||^2. Row i is divided by its norm before the product,
    so w = ||g / sqrt(g_i)||^2 stays in range wherever the squared entries
    of ``wides`` do, and a zero core gets 0 without forming 0/0. The
    centers are taken a slab at a time, so each array formed holds at most
    ``CORE_STACK_BYTES``, or one center's share where that alone is more.
    """
    p, _, dim = wides.shape
    step = max(1, CORE_STACK_BYTES // (16 * p * dim))
    square = wides.real**2 + wides.imag**2
    out = np.empty((p, weights.shape[1]))
    for lo in range(0, weights.shape[1], step):
        cols = weights[:, lo:lo + step]
        power = square @ cols
        top = power.argmax(axis=1)
        root = np.sqrt(np.take_along_axis(power, top[:, None, :], axis=1)).swapaxes(1, 2)
        heads = np.take_along_axis(wides, top[:, :, None], axis=1).conj()
        unit = np.divide(heads, root, out=np.zeros_like(heads), where=root > 0.0)
        g = wides @ (unit.swapaxes(1, 2) * cols)
        out[:, lo:lo + step] = (g.real**2 + g.imag**2).sum(axis=1)
    return out


def hausdorff(x, y) -> float:
    """Hausdorff distance between two finite nonempty point sets.

    Points are rows; one-dimensional inputs are treated as points on the
    line. Raises ValueError when either set is empty, where the distance
    is undefined, or holds a non-finite coordinate. A point common to both
    sets is at distance exactly 0 from the other set, so only the points of
    A not in B and of B not in A are searched, each against the whole
    other set. Squared distances are
    formed a block of rows at a time, each block at most
    ``HAUSDORFF_BLOCK_BYTES``, so memory stays bounded for large sets; min
    and max are exact, so the result depends neither on the block size nor
    on the pruning.
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
    _check_finite(a, "first set")
    _check_finite(b, "second set")
    forward = _farthest(_unshared(a, b), b)
    backward = _farthest(_unshared(b, a), a)
    return float(np.sqrt(max(0.0, forward, backward)))


def _check_finite(rows: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first non-finite coordinate of rows of points."""
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{name} has non-finite coordinate {col} in point {row}: {rows[row, col]}")


def _unshared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of ``a`` that are not also rows of ``b``."""
    common = set(map(tuple, b.tolist()))
    return a[[i for i, row in enumerate(a.tolist()) if tuple(row) not in common]]


def _farthest(rows: np.ndarray, other: np.ndarray) -> float:
    """Largest squared distance from a row of ``rows`` to ``other``; -inf for no rows."""
    step = max(1, HAUSDORFF_BLOCK_BYTES // (8 * other.shape[0] * max(1, other.shape[1])))
    worst = -math.inf
    for start in range(0, rows.shape[0], step):
        d2 = ((rows[start:start + step, None, :] - other[None, :, :]) ** 2).sum(axis=2)
        worst = max(worst, float(d2.min(axis=1).max()))
    return worst

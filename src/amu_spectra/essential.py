"""Finite models of behavior at infinity: compressions, decay, state sequences.

For a tuple on C^dim with basis u_1, ..., u_dim, the cut at m drops the
first m basis vectors. One-sided tails keep indices m+1..dim; interior
windows keep m+1..dim-m and avoid the far boundary as well, which matters
for truncated models whose commutators carry boundary terms at both ends.

``essential_spectrum_estimate`` scans compressed tuples at a fixed
resolution across increasing cuts and reports the Hausdorff distance
between the last two accepted sets as the stability of the estimate. The
estimate is reported as-is and never extrapolated.

``amu_sequence`` builds one state per cut, supported in the escaping
window [m+1, min(2m, dim-m)], and certifies each at the same sigma and
eps: each state is exactly orthogonal to the first m basis vectors while
the window width grows with m, so the standard deviations shrink as the
cuts increase.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .constants import GRID_POINT_CAP
from .linalg import operator_norm
from .models import JsonRows
from .observables import (AmuCertificate, OperatorTuple, VectorState, _commutators, amu_check,
                          as_point)
from .search import ground_state
from .spectrum import SyntheticSpectrumResult, hausdorff, scan

__all__ = [
    "EssentialLevel",
    "EssentialSpectrumEstimate",
    "tail_commutator_decay",
    "essential_spectrum_estimate",
    "amu_sequence",
    "escape_window",
]


def _cut(m) -> int:
    """A cut as an int; ValueError naming it unless it is an integer other than a bool."""
    if not isinstance(m, (bool, np.bool_)):
        try:
            return operator.index(m)
        except TypeError:
            pass
    raise ValueError(f"cut {m!r} is not an integer")


def _window(dim: int, m: int, interior: bool) -> tuple[int, int]:
    """The window [m, hi) left by the cut at ``m``, at least two indices wide.

    One-sided tails keep hi = dim; interior windows trim as much from the
    far end, hi = dim - m.
    """
    m = _cut(m)
    if m < 0:
        raise ValueError(f"cut {m} is negative")
    if m >= dim:
        raise ValueError(f"cut {m} must be below dim {dim}")
    hi = dim - m if interior else dim
    if hi - m < 2:
        raise ValueError(f"cut {m} leaves a window of size {hi - m}; need at least 2")
    return m, hi


def _compress(tup: OperatorTuple, window: tuple[int, int]) -> OperatorTuple:
    """Every observable compressed to the index window [lo, hi).

    Compression cannot grow operator norms, so the bound carries over and
    grids for compressed scans match the full-space ones.
    """
    lo, hi = window
    return OperatorTuple([op.array[lo:hi, lo:hi] for op in tup.ops], bound=tup.bound)


def tail_commutator_decay(
    tup: OperatorTuple,
    cuts,
    interior: bool = False,
) -> list[tuple[int, float]]:
    """Worst commutator norm surviving each cut.

    One-sided (default): max over pairs of ||[T_i, T_j] (1 - p_m)||, the
    commutator with its first m columns removed. Interior: the commutator
    compressed to the window from both sides, which also removes
    far-boundary terms of truncated models. Each cut must leave a window
    of at least two indices. Values are reported per cut; a nonincreasing
    trend is expected but not enforced.
    """
    windows = [_window(tup.dim, m, interior) for m in cuts]
    commutators = [k for _, _, k in _commutators(tup)]
    out: list[tuple[int, float]] = []
    for lo, hi in windows:
        worst = 0.0
        for k in commutators:
            worst = max(worst, operator_norm(k[lo:hi, lo:hi] if interior else k[:, lo:]))
        out.append((lo, worst))
    return out


@dataclass(frozen=True)
class EssentialLevel:
    """One compression level of an essential-spectrum estimate."""

    cut: int
    window: tuple[int, int]
    result: SyntheticSpectrumResult


@dataclass(frozen=True)
class EssentialSpectrumEstimate:
    """Accepted sets across compression levels with a stability figure.

    ``stability`` is the Hausdorff distance between the accepted sets of
    the last two levels, or None when either of them is empty.
    ``stabilized`` is the accepted point set of the deepest level.
    """

    eta: float
    cuts: tuple[int, ...]
    levels: tuple[EssentialLevel, ...]
    stabilized: np.ndarray
    stability: float | None

    def to_json_dict(self, *, lazy: bool = False) -> dict:
        """This estimate as JSON data.

        With ``lazy``, every level's spectrum is lazy (see
        ``SyntheticSpectrumResult.to_json_dict``), and so are the rows of
        ``stabilized``.
        """
        stabilized = JsonRows(self.stabilized, np.ndarray.tolist)
        return {
            "eta": self.eta,
            "cuts": list(self.cuts),
            "levels": [
                {
                    "cut": lvl.cut,
                    "window": list(lvl.window),
                    "spectrum": lvl.result.to_json_dict(lazy=lazy),
                }
                for lvl in self.levels
            ],
            "stabilized": stabilized if lazy else list(stabilized),
            "stability": self.stability,
        }


def essential_spectrum_estimate(
    tup: OperatorTuple,
    eta: float,
    cuts,
    *,
    interior: bool = True,
    cap: int = GRID_POINT_CAP,
    threads: int = 1,
) -> EssentialSpectrumEstimate:
    """Scan compressed tuples across increasing cuts at one resolution.

    ``cuts`` must be strictly increasing and leave at least two dimensions
    at the deepest level. Interior windows are the default model of
    behavior away from the boundary. Empty accepted sets are recorded, not
    fatal; stability is then None. Every level scans at the step count k
    the resolution rule fixes for its tuple; stop refining when stability
    reaches the grid pitch 1/k. The estimate never extrapolates beyond its
    levels. A cut that is not an integer, or is a bool, raises ValueError.
    """
    cuts = [_cut(m) for m in cuts]
    if len(cuts) < 2:
        raise ValueError("need at least two cuts to report stability")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError(f"cuts must be strictly increasing, got {cuts}")
    # Every window is checked before the first scan runs.
    windows = [_window(tup.dim, m, interior) for m in cuts]
    levels = [EssentialLevel(cut=m, window=window,
                             result=scan(_compress(tup, window), eta, cap=cap, threads=threads))
              for m, window in zip(cuts, windows)]
    last = levels[-1].result.accepted_points()
    prev = levels[-2].result.accepted_points()
    stability = None
    if last.shape[0] > 0 and prev.shape[0] > 0:
        stability = hausdorff(last, prev)
    return EssentialSpectrumEstimate(
        eta=float(eta),
        cuts=tuple(cuts),
        levels=tuple(levels),
        stabilized=last,
        stability=stability,
    )


def escape_window(dim: int, m: int) -> tuple[int, int]:
    """Window [m, min(2m, dim - m)) used by ``amu_sequence`` at cut ``m``.

    States supported here are orthogonal to the first m basis vectors and
    stay clear of the far boundary; the width grows with m up to dim/3.
    """
    m = _cut(m)
    if m < 1:
        raise ValueError("cuts must be at least 1")
    stop = min(2 * m, dim - m)
    if stop - m < 2:
        raise ValueError(
            f"cut {m} leaves an escape window of size {stop - m} on dim {dim}; "
            "need at least 2"
        )
    return m, stop


def amu_sequence(tup: OperatorTuple, lam, cuts, sigma: float, eps: float) -> list[AmuCertificate]:
    """One AMU certificate at (lam, sigma, eps) per cut, measured against the full tuple.

    The state for cut m is the localization ground state computed inside
    the escaping window and embedded back with exact zeros elsewhere.
    """
    lam_arr = np.array(as_point(lam, tup.n))
    certs: list[AmuCertificate] = []
    for m in cuts:
        lo, hi = escape_window(tup.dim, m)
        inner_state, _ = ground_state(_compress(tup, (lo, hi)), lam_arr)
        full = np.zeros(tup.dim, dtype=np.complex128)
        full[lo:hi] = inner_state.vector
        certs.append(amu_check(tup, VectorState(full), lam_arr, sigma, eps))
    return certs

"""Finite models of behavior at infinity: compressions and state sequences.

For a tuple on C^dim with basis u_1, ..., u_dim, the cut at m keeps the
interior window of indices m+1..dim-m: it drops the first m basis vectors
and as many at the far end, which matters for truncated models whose
commutators carry boundary terms at both ends.

``essential_spectrum_estimate`` scans interior windows at a fixed
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
from .models import JsonRows
from .observables import AmuCertificate, OperatorTuple, VectorState, amu_check, as_point
from .search import _ground_states
from .spectrum import SyntheticSpectrumResult, hausdorff, scan

__all__ = [
    "EssentialLevel",
    "EssentialSpectrumEstimate",
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


def _window(dim: int, m: int) -> tuple[int, int]:
    """The interior window [m, dim - m) left by the cut at ``m``, at least two indices wide."""
    m = _cut(m)
    if m < 0:
        raise ValueError(f"cut {m} is negative")
    if m >= dim:
        raise ValueError(f"cut {m} must be below dim {dim}")
    hi = dim - m
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
    the last two levels, or None when either of them is empty. The
    resolution, the cuts and the stabilized set are read from the levels.
    """

    levels: tuple[EssentialLevel, ...]
    stability: float | None

    @property
    def eta(self) -> float:
        return float(self.levels[0].result.eta)

    @property
    def cuts(self) -> tuple[int, ...]:
        return tuple(lvl.cut for lvl in self.levels)

    @property
    def stabilized(self) -> np.ndarray:
        """The accepted point set of the deepest level."""
        return self.levels[-1].result.accepted_points()

    def to_json_dict(self) -> dict:
        """This estimate as JSON data; ``stabilized`` and each level's ``accepted`` stream."""
        return {
            "eta": self.eta,
            "cuts": list(self.cuts),
            "levels": [
                {
                    "cut": lvl.cut,
                    "window": list(lvl.window),
                    "spectrum": lvl.result.to_json_dict(),
                }
                for lvl in self.levels
            ],
            "stabilized": JsonRows(self.stabilized, np.ndarray.tolist),
            "stability": self.stability,
        }


def essential_spectrum_estimate(
    tup: OperatorTuple,
    eta: float,
    cuts,
    *,
    cap: int = GRID_POINT_CAP,
    threads: int = 1,
) -> EssentialSpectrumEstimate:
    """Scan interior windows [m, dim - m) across increasing cuts m at one resolution.

    ``cuts`` must be strictly increasing and leave at least two dimensions
    at the deepest level. Empty accepted sets are recorded, not
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
    windows = [_window(tup.dim, m) for m in cuts]
    levels = [EssentialLevel(cut=m, window=window,
                             result=scan(_compress(tup, window), eta, cap=cap, threads=threads))
              for m, window in zip(cuts, windows)]
    last = levels[-1].result.accepted_points()
    prev = levels[-2].result.accepted_points()
    stability = None
    if last.shape[0] > 0 and prev.shape[0] > 0:
        stability = hausdorff(last, prev)
    return EssentialSpectrumEstimate(levels=tuple(levels), stability=stability)


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
    lam = as_point(lam, tup.n)
    certs: list[AmuCertificate] = []
    for m in cuts:
        lo, hi = escape_window(tup.dim, m)
        inner_state = _ground_states(_compress(tup, (lo, hi)), [lam])[0]
        full = np.zeros(tup.dim, dtype=np.complex128)
        full[lo:hi] = inner_state.vector
        certs.append(amu_check(tup, VectorState(full), lam, sigma, eps))
    return certs

"""Central numerical tolerances and resource limits.

Every tolerance used by the library lives in this one record so that the
values stated in the docstrings and tests have a single source of truth.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermitian_symmetry: float = 1e-12
    """Max |A - A†| entry accepted for a Hermitian matrix, times max(1, largest |Re| or |Im|)."""

    eig_residual: float = 1e-10
    """Per-dim factor on the Frobenius residual ||A U - U diag(w)||."""

    unitarity: float = 1e-10
    """Per-dim factor on ||U† U - I|| for eigenvector matrices."""

    gram_independence: float = 1e-8
    """Smallest Gram eigenvalue below which vectors count as dependent."""

    imag_expectation: float = 1e-10
    """|Im <Tv, v>| allowed before an expectation is rejected, times max(1, M)."""

    variance_clamp: float = 1e-12
    """Negative variance magnitude clamped to zero, times max(1, M)^2."""

    unit_norm: float = 1e-12
    """Allowed deviation of a state norm from 1."""

    cross_check: float = 1e-10
    """Required agreement between the two variance paths, times max(1, M)^2."""

    accept_slack: float = 1e-9
    """Subtracted from 1 - eta when thresholding a theta-product norm."""

    tuple_norm_slack: float = 1e-9
    """Allowed overshoot of an observable norm over the declared bound."""

    psd_floor: float = -1e-9
    """Smallest eigenvalue accepted from a nominally PSD matrix."""

    hull_membership: float = 1e-6
    """Distance to the convex hull accepted when superposing toward a target."""


TOL = Tolerances()

GRID_POINT_CAP = 2_000_000
"""Refusal threshold on the number of grid points in a scan."""

"""Shared fixtures and deterministic hypothesis settings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from amu_spectra import ModelSpec, OperatorTuple, generate

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_hermitian(dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Dense Hermitian test matrix with entries of size about ``scale``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    return h * (scale / max(np.linalg.norm(h, 2), 1e-12))


def accepted_entries(result) -> tuple:
    """A scan result's accepted set as ((coordinates...), norm) pairs, in its order.

    The norm is None for a result without norms.
    """
    points = map(tuple, result.accepted_points().tolist())
    norms = [None] * len(result.accepted) if result.norms is None else result.norms.tolist()
    return tuple(zip(points, norms))


@pytest.fixture
def shift_pair_64() -> OperatorTuple:
    return generate(ModelSpec("shift_pair", 64))


@pytest.fixture
def commuting_16() -> OperatorTuple:
    return generate(ModelSpec("commuting_diag", 16, n=2, seed=11))


@pytest.fixture
def clock_32() -> OperatorTuple:
    return generate(ModelSpec("clock_shift_triple", 32, n=3))

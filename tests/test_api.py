"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib

import pytest

MODULES = ("calculus", "cli", "essential", "linalg", "models", "observables",
           "search", "spectrum")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"amu_spectra.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_factor_cache_keeps_traced_methods():
    # The per-layer benchmark tracer wraps these three methods by name.
    from amu_spectra.calculus import BumpFactorCache

    for name in ("__init__", "factor_matrix", "factor_norm"):
        assert callable(vars(BumpFactorCache).get(name))

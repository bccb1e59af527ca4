"""The public surface: every exported name resolves, and the README's examples run."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_python_blocks_run():
    # Every ```python block of the README runs as written, so an example
    # cannot keep using a name the package no longer has.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})

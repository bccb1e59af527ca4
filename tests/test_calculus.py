"""Trapezoid bumps and ordered bump-product norms."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amu_spectra import (
    BumpFactorCache,
    ModelSpec,
    OperatorTuple,
    amu_at,
    bump_values,
    generate,
    operator_norm,
    theta_product,
)
from conftest import random_hermitian


def test_bump_values_vectorized():
    t = np.array([-1.0, -0.875, -0.75, 0.0, 0.75, 0.875, 1.0])
    got = bump_values(0.0, 1.0, t)
    assert got == pytest.approx([0.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0], abs=1e-15)


@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=1e-3, max_value=3, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_bump_range_and_support(center, width, t):
    v = float(bump_values(center, width, np.array([t]))[0])
    assert 0.0 <= v <= 1.0
    if abs(t - center) >= width:
        assert v == 0.0
    if abs(t - center) <= 0.75 * width:
        assert v == 1.0


@given(
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
def test_bump_lipschitz(s, t):
    width = 0.5
    vs, vt = bump_values(0.0, width, np.array([s, t]))
    assert abs(vs - vt) <= (4.0 / width) * abs(s - t) + 1e-12


def test_theta_product_diagonal_is_pointwise_product():
    # On a commuting diagonal pair the product norm is the max over joint
    # eigenvalues of the product of scalar bump values.
    d1 = np.diag([0.0, 0.3, 0.9])
    d2 = np.diag([0.1, 0.5, 0.9])
    tup = OperatorTuple((d1, d2), bound=1.0)
    eta = 0.4
    xi = (0.2, 0.4)
    tp = theta_product(tup, xi, eta)
    evs = np.stack([np.diagonal(d1), np.diagonal(d2)], axis=1)
    expected = max(
        float(bump_values(xi[0], eta, row[:1])[0] * bump_values(xi[1], eta, row[1:])[0])
        for row in evs
    )
    assert tp.norm == pytest.approx(expected, abs=1e-12)


def test_theta_product_validates_eta():
    tup = OperatorTuple((np.diag([0.0, 0.5]),), bound=1.0)
    with pytest.raises(ValueError):
        theta_product(tup, (0.0,), 0.0)
    with pytest.raises(ValueError):
        theta_product(tup, (0.0,), 1.0)


def test_theta_product_norm_bounded_by_factor_norms():
    tup = generate(ModelSpec("shift_pair", 24))
    tp = theta_product(tup, (0.5, 0.5), 0.4)
    assert tp.norm <= min(tp.factor_norms) + 1e-12
    assert all(0.0 <= fn <= 1.0 + 1e-12 for fn in tp.factor_norms)


@given(st.integers(min_value=0, max_value=25))
def test_theta_product_submultiplicative_random_pairs(seed):
    ops = (random_hermitian(6, seed=seed), random_hermitian(6, seed=seed + 1000))
    tup = OperatorTuple(ops, bound=1.0)
    cache = BumpFactorCache(tup)
    tp = theta_product(tup, (0.1, -0.2), 0.5, cache=cache)
    direct = operator_norm(cache.factor_matrix(0, 0.1, 0.5) @ cache.factor_matrix(1, -0.2, 0.5))
    assert tp.norm == pytest.approx(direct, abs=1e-10)
    assert tp.norm <= min(tp.factor_norms) + 1e-10
    assert tp.factor_norms == (cache.factor_norm(0, 0.1, 0.5), cache.factor_norm(1, -0.2, 0.5))


def test_factor_cache_reuses_and_guards_identity():
    tup = generate(ModelSpec("shift_pair", 16))
    other = generate(ModelSpec("shift_pair", 16))
    cache = BumpFactorCache(tup)
    a = theta_product(tup, (0.5, 0.0), 0.5, cache=cache)
    b = theta_product(tup, (0.5, 0.0), 0.5, cache=cache)
    assert a.norm == b.norm
    with pytest.raises(ValueError):
        theta_product(other, (0.5, 0.0), 0.5, cache=cache)


def test_factor_cache_is_read_only_under_threads():
    tup = generate(ModelSpec("perturbed_commuting", 12, n=3, seed=3, params={"perturbation": 0.2}))
    cache = BumpFactorCache(tup)

    def state():
        return {name: (id(value), len(value) if hasattr(value, "__len__") else None)
                for name, value in vars(cache).items()}

    before = state()
    points = [(a, b, c) for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.5) for c in (0.0, 0.25)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        shared = list(pool.map(lambda p: theta_product(tup, p, 0.5, cache=cache).norm, points))
    assert state() == before
    assert all(not w.flags.writeable for w in cache.couplings)
    assert shared == [theta_product(tup, p, 0.5).norm for p in points]


def test_witness_ground_state_near_circle(shift_pair_64):
    # Re <F_1 F_2 v, v> > 1 - eta for a unit v certifies ||F_1 F_2|| >= 1 - eta.
    eta = 0.3
    cache = BumpFactorCache(shift_pair_64)
    product = cache.factor_matrix(0, 1.0, eta) @ cache.factor_matrix(1, 0.0, eta)
    v = amu_at(shift_pair_64, (1.0, 0.0), 0.5, 0.5).state
    witness = complex(np.vdot(v.vector, product @ v.vector))
    assert witness.real > 1.0 - eta
    # ||F_1 F_2|| >= |<F_1 F_2 v, v>|, up to rounding between the two paths.
    assert theta_product(shift_pair_64, (1.0, 0.0), eta, cache=cache).norm >= witness.real - 1e-12

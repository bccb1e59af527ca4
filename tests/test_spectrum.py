"""Grid law, synthetic-spectrum scans, Hausdorff distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amu_spectra import (
    GRID_POINT_CAP,
    BumpFactorCache,
    GridCapExceeded,
    ModelSpec,
    OperatorTuple,
    build_grid,
    generate,
    grid_step_count,
    hausdorff,
    is_refinement,
    scan,
    theta_product,
)
from amu_spectra import TOL, spectrum
from amu_spectra.spectrum import SyntheticSpectrumResult
from conftest import random_hermitian


def test_grid_step_count_known_values():
    assert grid_step_count(2, 1.0, 0.5) == 12
    assert grid_step_count(1, 1.0, 1.0) == 5


def test_grid_step_count_strict_inequality():
    # At n=1, M=1, eta=1 the defining bound (M+1)/k < eta/(2 sqrt n)
    # reads 2/k < 1/2, so k=4 is excluded and k=5 is the minimum.
    k = grid_step_count(1, 1.0, 1.0)
    assert 2.0 / k < 0.5
    assert 2.0 / (k - 1) >= 0.5


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=0.05, max_value=1.5),
)
def test_grid_step_count_is_minimal(n, bound, eta):
    k = grid_step_count(n, bound, eta)
    rhs = eta / (2.0 * np.sqrt(n))
    assert (bound + 1.0) / k < rhs
    assert k == 1 or (bound + 1.0) / (k - 1) >= rhs


def test_build_grid_axis_values():
    g = build_grid(2, 1.0, k=2)
    assert list(g.axis_values) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert g.count == 25
    pts = g.points
    assert pts.shape == (25, 2)
    # Lexicographic order: first coordinate varies slowest.
    assert pts[0].tolist() == [-1.0, -1.0]
    assert pts[1].tolist() == [-1.0, -0.5]
    assert pts[-1].tolist() == [1.0, 1.0]


def test_build_grid_respects_cap():
    with pytest.raises(GridCapExceeded) as info:
        build_grid(3, 1.0, k=200, cap=1000)
    assert info.value.size == 401**3
    assert info.value.cap == 1000


def test_default_cap_value():
    assert GRID_POINT_CAP == 2_000_000


def test_nearest_rounds_and_clips():
    g = build_grid(2, 1.0, k=2)
    assert np.allclose(g.nearest((0.26, -0.9)), [0.5, -1.0])
    assert np.allclose(g.nearest((7.0, -7.0)), [1.0, -1.0])


def test_is_refinement_divisibility():
    fine = build_grid(2, 1.0, k=12)
    coarse = build_grid(2, 1.0, k=4)
    incompatible = build_grid(2, 1.0, k=5)
    assert is_refinement(coarse, fine)
    assert not is_refinement(fine, coarse)
    assert not is_refinement(incompatible, fine)
    # Explicit witness for the non-nesting case: 1/5 is not a 12th.
    assert 0.2 in build_grid(1, 1.0, k=5).axis_values
    assert 0.2 not in build_grid(1, 1.0, k=12).axis_values


def brute_scan(tup, eta, k=None):
    grid = build_grid(tup.n, tup.bound, eta, k=k)
    cache = BumpFactorCache(tup)
    out = []
    for row in grid.points:
        xi = tuple(float(c) for c in row)
        tp = theta_product(tup, xi, eta, cache=cache)
        if tp.norm >= 1.0 - eta - TOL.accept_slack:
            out.append((xi, tp.norm))
    return out


def test_scan_matches_bruteforce_commuting():
    tup = generate(ModelSpec("commuting_diag", 8, n=2, seed=2))
    res = scan(tup, 0.5)
    expected = brute_scan(tup, 0.5)
    assert len(res.accepted) == len(expected)
    for (got_pt, got_norm), (exp_pt, exp_norm) in zip(res.accepted, expected):
        assert got_pt == exp_pt
        assert got_norm == exp_norm


def test_scan_matches_bruteforce_noncommuting():
    ops = (random_hermitian(6, seed=21), random_hermitian(6, seed=22))
    tup = OperatorTuple(ops, bound=1.0)
    res = scan(tup, 0.45)
    expected = brute_scan(tup, 0.45)
    assert res.accepted == tuple(expected)


def dense_reference_norm(eig, point, eta) -> float:
    """Plain-numpy norm of the ordered bump product at ``point``."""
    prod = None
    for (w, u), c in zip(eig, point):
        vals = np.clip((eta - np.abs(w - c)) * 4.0 / eta, 0.0, 1.0)
        factor = (u * vals) @ u.conj().T
        prod = factor if prod is None else prod @ factor
    return float(np.linalg.norm(prod, ord=2))


@pytest.mark.parametrize(
    "make, eta",
    [
        (lambda: generate(ModelSpec("commuting_diag", 10, n=1, seed=3)), 0.3),
        (lambda: generate(ModelSpec("shift_pair", 12)), 0.5),
        (lambda: OperatorTuple((random_hermitian(9, seed=5), random_hermitian(9, seed=6))), 0.45),
        (lambda: generate(ModelSpec("clock_shift_triple", 8, n=3)), 0.9),
        (
            lambda: generate(
                ModelSpec("perturbed_commuting", 8, n=3, seed=4, params={"perturbation": 0.2})
            ),
            0.9,
        ),
    ],
    ids=["n1-commuting", "n2-shift", "n2-random", "n3-clock", "n3-perturbed"],
)
def test_scan_matches_dense_reference(make, eta):
    tup = make()
    res = scan(tup, eta)
    eig = [np.linalg.eigh(op.array) for op in tup.ops]
    threshold = 1.0 - eta - TOL.accept_slack
    expected = {}
    for row in res.grid.points:
        nrm = dense_reference_norm(eig, row, eta)
        if nrm >= threshold:
            expected[tuple(float(c) for c in row)] = nrm
    got = dict(res.accepted)
    assert expected
    assert list(got) == list(expected)
    for pt, nrm in got.items():
        assert abs(nrm - expected[pt]) <= 1e-12


def test_theta_product_empty_support_has_zero_norm():
    # The second center is 0.4 from both eigenvalues of d2, beyond eta = 0.3.
    tup = OperatorTuple((np.diag([0.0, 0.3]), np.diag([0.1, 0.5])), bound=1.0)
    tp = theta_product(tup, (0.0, 0.9), 0.3)
    assert tp.factor_norms[1] == 0.0
    assert tp.norm == 0.0
    assert not np.any(tp.value)


def test_scan_thread_counts_agree(shift_pair_64):
    one = scan(shift_pair_64, 0.5, threads=1)
    four = scan(shift_pair_64, 0.5, threads=4)
    assert one.accepted == four.accepted


def test_scan_covers_joint_eigenvalues(commuting_16):
    res = scan(commuting_16, 0.35)
    evs = np.stack(
        [np.diagonal(op.array).real for op in commuting_16.ops], axis=1
    )
    for row in evs:
        assert res.covers(row)


def test_scan_accepts_plateau_points():
    # Eigenvalues sit on grid points, so those points carry norm 1.
    d1 = np.diag([-0.5, 0.5])
    d2 = np.diag([0.5, -0.5])
    tup = OperatorTuple((d1, d2), bound=1.0)
    res = scan(tup, 0.5, k=2)
    accepted = dict(res.accepted)
    assert accepted[(-0.5, 0.5)] == pytest.approx(1.0, abs=1e-12)
    assert accepted[(0.5, -0.5)] == pytest.approx(1.0, abs=1e-12)


def test_scan_rejects_far_points(shift_pair_64):
    res = scan(shift_pair_64, 0.5)
    pts = res.accepted_points()
    radii = np.linalg.norm(pts, axis=1)
    # Accepted points hug the unit circle once eta-slack is allowed for.
    assert radii.min() >= 1.0 - 2 * 0.5 - 1e-9
    assert radii.max() <= np.sqrt(2.0) + 1e-9
    assert not res.covers((0.0, 0.0), radius=0.25)


def test_result_json_roundtrip(commuting_16):
    res = scan(commuting_16, 0.5)
    d = res.to_json_dict()
    assert d["eta"] == 0.5
    assert d["n"] == 2
    assert d["k"] == res.grid.k
    back = SyntheticSpectrumResult.from_json_dict(d)
    assert back.accepted == res.accepted
    assert back.grid.k == res.grid.k
    assert back.eta == res.eta


def test_scan_validates_eta(commuting_16):
    with pytest.raises(ValueError):
        scan(commuting_16, 1.0)
    with pytest.raises(ValueError):
        scan(commuting_16, 0.0)


def test_hausdorff_hand_values():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert hausdorff(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert hausdorff(np.array([0.0]), np.array([3.0])) == 3.0
    assert hausdorff(a, a) == 0.0


def test_hausdorff_empty_raises():
    with pytest.raises(ValueError):
        hausdorff(np.zeros((0, 2)), np.array([[0.0, 0.0]]))


def test_hausdorff_blocks_match_one_shot(monkeypatch):
    a = finite_sets(1, 50, n=3)
    b = finite_sets(2, 7, n=3)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    one_shot = float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))
    # 8 * 7 * 3 = 168 bytes per row of a: 6 rows per block, 9 blocks for a.
    monkeypatch.setattr(spectrum, "HAUSDORFF_BLOCK_BYTES", 1024)
    assert hausdorff(a, b) == one_shot
    # Swapped, one row costs 8 * 50 * 3 = 1200 bytes: one row per block.
    d2t = d2.T
    swapped = float(np.sqrt(max(d2t.min(axis=1).max(), d2t.min(axis=0).max())))
    assert hausdorff(b, a) == swapped


def finite_sets(seed: int, count: int, n: int = 2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 2, size=(count, n))


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
)
def test_hausdorff_symmetry_and_identity(seed, ca, cb):
    a = finite_sets(seed, ca)
    b = finite_sets(seed + 10_000, cb)
    dab = hausdorff(a, b)
    assert dab == hausdorff(b, a)
    assert dab >= 0.0
    assert hausdorff(a, a) == 0.0


@given(
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_hausdorff_triangle(seed, ca, cb, cc):
    a = finite_sets(seed, ca)
    b = finite_sets(seed + 33_000, cb)
    c = finite_sets(seed + 66_000, cc)
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12

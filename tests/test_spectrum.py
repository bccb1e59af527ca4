"""Grid law, synthetic-spectrum scans, Hausdorff distance."""

from __future__ import annotations

import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amu_spectra import (
    GRID_POINT_CAP,
    BumpFactorCache,
    GridCapExceeded,
    GridSpec,
    ModelSpec,
    OperatorTuple,
    SyntheticSpectrumResult,
    amu_at,
    build_grid,
    generate,
    grid_step_count,
    hausdorff,
    operator_norm,
    scan,
    theta_product,
    uses_band_path,
)
from amu_spectra import TOL, spectrum
from conftest import accepted_entries, random_hermitian


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
    g = GridSpec(2, 1.0, 2, 2)
    assert list(g.axis_values) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert g.count == 25
    pts = list(itertools.product(g.axis_values, repeat=g.n))
    assert len(pts) == 25
    # Lexicographic order: first coordinate varies slowest.
    assert pts[0] == (-1.0, -1.0)
    assert pts[1] == (-1.0, -0.5)
    assert pts[-1] == (1.0, 1.0)


def test_build_grid_respects_cap():
    # n=3, M=1, eta=0.05: k=139 and half=139, so 279 values per axis.
    with pytest.raises(GridCapExceeded) as info:
        build_grid(3, 1.0, 0.05)
    assert info.value.size == 279**3
    assert info.value.cap == GRID_POINT_CAP
    # A count past float range keeps its exact size; the message gives its
    # leading digits, not all 603 of them.
    with pytest.raises(GridCapExceeded) as info:
        build_grid(2, 1.0, 1e-300)
    assert len(str(info.value.size)) == 603
    assert "grid would have 1.28e+602 points, above the cap 2000000" in str(info.value)


def test_build_grid_beyond_float_range():
    # Step count (eta near 0) or half-width (huge bound) past float range.
    for bound, eta in ((1.0, 1e-320), (1e300, 0.5)):
        with pytest.raises(GridCapExceeded):
            build_grid(2, bound, eta)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_grid_rejects_nonfinite_eta_and_bound(value):
    for name, args in (("eta", (2, 1.0, value)), ("bound", (2, value, 0.5))):
        for build in (grid_step_count, build_grid):
            with pytest.raises(ValueError, match=name):
                build(*args)


def test_default_cap_value():
    assert GRID_POINT_CAP == 2_000_000


def test_build_grid_reads_the_cap_at_each_call(monkeypatch):
    # n=3, M=1: 21^3 points at eta 0.7, and 141^3 = 2,803,221 at eta 0.1, above
    # the fixed cap. The cap is read at each call, so a patched value moves the refusal.
    assert build_grid(3, 1.0, 0.7).count == 21**3
    monkeypatch.setattr(spectrum, "GRID_POINT_CAP", 21**3 - 1)
    with pytest.raises(GridCapExceeded, match=f"above the cap {21**3 - 1}"):
        build_grid(3, 1.0, 0.7)
    monkeypatch.setattr(spectrum, "GRID_POINT_CAP", 141**3)
    assert build_grid(3, 1.0, 0.1).count == 141**3


def test_is_refinement_divisibility():
    # Grids of one n and bound nest exactly when the step counts divide; the
    # points are the n-fold products of the axis values, so those must nest.
    fine = GridSpec(2, 1.0, 12, 12)
    coarse = GridSpec(2, 1.0, 4, 4)
    incompatible = GridSpec(2, 1.0, 5, 5)

    def nests(a, b):
        return set(a.axis_values.tolist()) <= set(b.axis_values.tolist())

    assert fine.k % coarse.k == 0 and nests(coarse, fine)
    assert not nests(fine, coarse)
    assert fine.k % incompatible.k != 0 and not nests(incompatible, fine)
    # Explicit witness for the non-nesting case: 1/5 is not a 12th.
    assert 0.2 in incompatible.axis_values
    assert 0.2 not in fine.axis_values


def brute_scan(tup, eta):
    grid = build_grid(tup.n, tup.bound, eta)
    cache = BumpFactorCache(tup)
    out = []
    for row in itertools.product(grid.axis_values, repeat=grid.n):
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
    for (got_pt, got_norm), (exp_pt, exp_norm) in zip(accepted_entries(res), expected):
        assert got_pt == exp_pt
        assert got_norm == exp_norm


def test_scan_matches_bruteforce_noncommuting():
    ops = (random_hermitian(6, seed=21), random_hermitian(6, seed=22))
    tup = OperatorTuple(ops, bound=1.0)
    res = scan(tup, 0.45)
    expected = brute_scan(tup, 0.45)
    assert accepted_entries(res) == tuple(expected)


def perturbed_triple():
    return generate(ModelSpec("perturbed_commuting", 8, n=3, seed=4, params={"perturbation": 0.2}))


def test_scan_matches_bruteforce_perturbed_triple():
    tup = perturbed_triple()
    res = scan(tup, 0.9)
    expected = brute_scan(tup, 0.9)
    assert len(expected) > 100
    assert accepted_entries(res) == tuple(expected)


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
    for row in itertools.product(res.grid.axis_values, repeat=res.grid.n):
        nrm = dense_reference_norm(eig, row, eta)
        if nrm >= threshold:
            expected[tuple(float(c) for c in row)] = nrm
    got = dict(accepted_entries(res))
    assert expected
    assert list(got) == list(expected)
    for pt, nrm in got.items():
        assert abs(nrm - expected[pt]) <= 1e-12


def test_theta_product_empty_support_has_zero_norm():
    # The second center is 0.4 from both eigenvalues of d2, beyond eta = 0.3.
    tup = OperatorTuple((np.diag([0.0, 0.3]), np.diag([0.1, 0.5])), bound=1.0)
    cache = BumpFactorCache(tup)
    tp = theta_product(tup, (0.0, 0.9), 0.3, cache=cache)
    assert tp.factor_norms[1] == 0.0
    assert tp.norm == 0.0
    assert not np.any(cache.factor_matrix(1, 0.9, 0.3))


def test_scan_thread_counts_agree(shift_pair_64):
    one = scan(shift_pair_64, 0.5, threads=1)
    four = scan(shift_pair_64, 0.5, threads=4)
    assert accepted_entries(one) == accepted_entries(four)
    single = OperatorTuple((random_hermitian(12, seed=5),), bound=1.0)  # n = 1
    one = scan(single, 0.5, threads=1)
    four = scan(single, 0.5, threads=4)
    assert len(one.accepted) and accepted_entries(one) == accepted_entries(four)


def test_scan_thread_counts_agree_triple():
    tup = perturbed_triple()
    one = scan(tup, 0.9, threads=1)
    two = scan(tup, 0.9, threads=2)
    assert len(one.accepted) and accepted_entries(one) == accepted_entries(two)


def recording_operator_norm(monkeypatch) -> list[np.ndarray]:
    """Route the scan's ``operator_norm`` through a wrapper; returns the norms it solved.

    A core rejected by the Gram bound gets 0. Every core solved is nonzero,
    since its bound exceeds the floor, which is positive.
    """
    solved: list[np.ndarray] = []

    def recording(cores, *, floor):
        out = operator_norm(cores, floor=floor)
        solved.append(np.atleast_1d(out)[np.atleast_1d(out) != 0.0])
        return out

    monkeypatch.setattr(spectrum, "operator_norm", recording)
    return solved


@pytest.mark.parametrize(
    "make, eta",
    [
        (lambda: generate(ModelSpec("shift_pair", 64)), 0.5),
        (perturbed_triple, 0.9),
        (lambda: generate(ModelSpec("perturbed_commuting", 12, n=3, seed=2,
                                    params={"perturbation": 0.3})), 0.5),
        (lambda: generate(ModelSpec("clock_shift_triple", 16, n=3)), 0.9),
        # W = I: most rows of a coupled prefix, and many cores, are all zero.
        (lambda: generate(ModelSpec("commuting_diag", 16, n=2, seed=11)), 0.5),
        (lambda: generate(ModelSpec("commuting_diag", 10, n=1, seed=3)), 0.3),
    ],
    ids=["n2-shift", "n3-perturbed", "n3-perturbed-dense", "n3-clock", "n2-diag", "n1-diag"],
)
@pytest.mark.parametrize("threads", [1, 2])
def test_scan_without_norms_accepts_the_same_points(monkeypatch, make, eta, threads):
    tup = make()
    full = scan(tup, eta, threads=threads)
    solved = recording_operator_norm(monkeypatch)
    decided = scan(tup, eta, threads=threads, norms=False)
    assert len(full.accepted)
    assert np.array_equal(decided.accepted, full.accepted)
    assert decided.norms is None
    if tup.n > 1:
        # The witnesses accept most points, so fewer cores reach eigvalsh.
        assert sum(x.size for x in solved) < len(full.accepted)


@pytest.mark.parametrize("offset", [5e-13, -5e-13])
def test_scan_without_norms_defers_points_at_the_threshold(monkeypatch, offset):
    # A commuting diagonal pair whose joint eigenvalue (0, b) gives the points
    # (x, 0), |x| <= 3 eta/4, the product norm bump(b) = threshold + offset.
    # There the witness is exact and below (1 - eta)^2, so eigvalsh decides.
    # The joint eigenvalue (0.85, 0.05) keeps the center y = 0 alive, and no
    # other one reaches these points.
    eta = 0.5
    target = 1.0 - eta - TOL.accept_slack + offset
    b = eta - target * eta / 4.0
    tup = OperatorTuple((np.diag([0.0, 0.9, -0.9, 0.85]), np.diag([b, -0.9, 0.9, 0.05])),
                        bound=1.0)
    full = scan(tup, eta)
    solved = recording_operator_norm(monkeypatch)
    decided = scan(tup, eta, norms=False)
    assert np.array_equal(decided.accepted, full.accepted)
    near = np.concatenate(solved)
    near = near[np.abs(near - (1.0 - eta - TOL.accept_slack)) <= 1e-12]
    assert near.size == 9  # x = m/12 for |m| <= 4
    assert ((0.0, 0.0) in dict(accepted_entries(full))) == (offset > 0)


@pytest.mark.parametrize("offset", [5e-13, -5e-13])
def test_scan_without_norms_rejects_cores_below_the_gram_floor_unsolved(monkeypatch, offset):
    # The pair of the test above, with bump(b) at the floor 1 - eta - 2 slack
    # plus ``offset``. The cores of the points (x, 0), |x| <= 3 eta/4, have
    # rank one, so the Frobenius norm of their Gram matrices is their
    # squared norm: at the floor less 5e-13 they are rejected without an
    # eigensolve, at the floor plus 5e-13 eigvalsh rejects them. Scans that
    # store norms take the same screen.
    eta = 0.5
    target = 1.0 - eta - 2 * TOL.accept_slack + offset
    b = eta - target * eta / 4.0
    tup = OperatorTuple((np.diag([0.0, 0.9, -0.9, 0.85]), np.diag([b, -0.9, 0.9, 0.05])),
                        bound=1.0)
    full = scan(tup, eta)
    assert (0.0, 0.0) not in dict(accepted_entries(full))
    for norms in (True, False):
        solved = recording_operator_norm(monkeypatch)
        decided = scan(tup, eta, norms=norms)
        monkeypatch.undo()
        assert np.array_equal(decided.accepted, full.accepted)
        near = np.concatenate([np.zeros(0), *solved])
        assert np.count_nonzero(np.abs(near - target) <= 1e-12) == (9 if offset > 0 else 0)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 7), st.integers(1, 4)),
    zero_rows=st.integers(0, 6),
    zero_core=st.booleans(),
    scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e100]),
)
def test_witness_is_a_lower_bound_on_the_squared_core_norm(seed, shape, zero_rows, zero_core,
                                                          scale):
    p, rows, dim, centers = shape
    rng = np.random.default_rng(seed)
    wides = scale * (rng.normal(size=(p, rows, dim)) + 1j * rng.normal(size=(p, rows, dim)))
    wides[:, rng.permutation(rows)[:zero_rows]] = 0.0
    if zero_core:
        wides[rng.integers(p)] = 0.0
    weights = rng.uniform(size=(dim, centers)) * (rng.uniform(size=(dim, centers)) < 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = spectrum._witness(wides, weights)
    assert w.shape == (p, centers)
    for q, c in itertools.product(range(p), range(centers)):
        core = wides[q] * np.sqrt(weights[:, c])
        top = operator_norm(core) ** 2
        # At least the largest squared row norm, at most the squared norm.
        rows_sq = (np.abs(core) ** 2).sum(axis=1).max()
        assert rows_sq * (1 - 1e-12) <= w[q, c] <= top * (1 + 1e-12)
        assert (w[q, c] == 0.0) == (top == 0.0)


def test_scan_small_stack_budget_matches_default(monkeypatch):
    tup = perturbed_triple()
    stacks = []

    def recording_norm(cores, *, floor):
        stacks.append(np.shape(cores))
        return operator_norm(cores, floor=floor)

    monkeypatch.setattr(spectrum, "operator_norm", recording_norm)
    default = scan(tup, 0.9)
    default_calls = len(stacks)
    stacks.clear()
    budget = 4096
    monkeypatch.setattr(spectrum, "CORE_STACK_BYTES", budget)
    small = scan(tup, 0.9)
    assert accepted_entries(small) == accepted_entries(default)
    # Every block now spans several prefix chunks; no stack exceeds the budget.
    assert len(stacks) > 3 * default_calls
    assert max(16 * int(np.prod(shape)) for shape in stacks) <= budget
    # The witnesses then take a few last-axis centers at a time.
    decided = scan(tup, 0.9, norms=False)
    assert np.array_equal(decided.accepted, default.accepted)


@pytest.mark.parametrize("norms", [True, False])
def test_scan_solves_each_last_axis_center_once_per_chunk(monkeypatch, shift_pair_64, norms):
    triple = perturbed_triple()
    events = []
    real_couple, real_eigvalsh = BumpFactorCache.couple, np.linalg.eigvalsh

    def couple(self, prefix, axis, prev):
        events.append(("couple", axis))
        return real_couple(self, prefix, axis, prev)

    def eigvalsh(gram):
        events.append(("eigvalsh", len(gram)))
        return real_eigvalsh(gram)

    def recording_norm(cores, *, floor):
        start = len(events)
        out = operator_norm(cores, floor=floor)
        # The Gram bound of each core, formed apart from the scan's arithmetic.
        screened = np.array([np.linalg.norm(c.conj().T @ c) <= floor for c in cores])
        solves = events[start:]
        del events[start:]
        events.append(("norm", solves))
        solved.append((cores, out, screened, solves))
        return out

    monkeypatch.setattr(BumpFactorCache, "couple", couple)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(spectrum, "operator_norm", recording_norm)
    screened_calls = []
    for tup, eta in ((triple, 0.9), (shift_pair_64, 0.5)):
        cache = BumpFactorCache(tup)
        threshold = 1.0 - eta - TOL.accept_slack
        centers = sum(1 for x in build_grid(tup.n, tup.bound, eta).axis_values
                      if (vals := cache.support(tup.n - 1, x, eta)[1]).size
                      and vals.max() >= threshold)
        events.clear()
        solved = []
        assert len(scan(tup, eta, threads=1, norms=norms).accepted)
        # A chunk couples its prefixes to the last axis, then takes the norms.
        chunks, last = [], ("couple", tup.n - 1)
        for event, before in zip(events, [None, *events]):
            if event == last and before != last:
                chunks.append([])
            elif event[0] != "couple":
                chunks[-1].append(event)
        assert len(chunks) > 1
        # One norm call per center with a core left to decide: every alive
        # center when no witness runs.
        assert all(kind == "norm" for calls in chunks for kind, _ in calls)
        if norms:
            assert all(len(calls) == centers for calls in chunks)
        else:
            assert any(len(calls) < centers for calls in chunks)
        for cores, out, screened, solves in solved:
            # One eigvalsh call on exactly the cores above the Gram floor, and
            # none when the bound rejects them all.
            kept = int(np.count_nonzero(~screened))
            assert solves == ([("eigvalsh", kept)] if kept else [])
            # A screened core gets 0; every other norm is bit for bit its core's alone.
            alone = np.array([operator_norm(core) for core in cores])
            assert not out[screened].any()
            assert np.all(alone[screened] ** 2 <= (threshold - TOL.accept_slack) ** 2 * (1 + 1e-12))
            assert out[~screened].tobytes() == alone[~screened].tobytes()
        screened_calls += [screened for _, _, screened, _ in solved]
    if norms:
        # The bound spares some alive cores their eigensolve, not all: some
        # calls solve part of their stack, and some solve nothing.
        assert 0 < sum(np.count_nonzero(m) for m in screened_calls) < sum(map(len, screened_calls))
        assert any(0 < np.count_nonzero(m) < len(m) for m in screened_calls)
        assert any(m.all() for m in screened_calls)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: generate(ModelSpec("shift_pair", 64)),
        lambda seed: generate(ModelSpec("clock_shift_triple", 24, n=3)),
        lambda seed: generate(ModelSpec("commuting_diag", 30, n=2, seed=seed)),
        lambda seed: generate(ModelSpec("commuting_diag", 20, n=4, seed=seed)),
        lambda seed: generate(
            ModelSpec("perturbed_commuting", 24, n=3, seed=seed, params={"perturbation": 0.2})
        ),
        lambda seed: generate(
            ModelSpec("perturbed_commuting", 16, n=1, seed=seed, params={"perturbation": 0.2})
        ),
        # n = 1 and M < 1 give the coarsest pitch relative to eta.
        lambda seed: OperatorTuple((random_hermitian(12, seed=seed, scale=0.25),), bound=0.25),
    ],
    ids=["shift64", "clock24", "diag30-n2", "diag20-n4", "perturbed24-n3", "perturbed16-n1",
         "random12-n1-bound0.25"],
)
def test_every_axis_has_a_center_with_factor_norm_one(make):
    # The pitch 1/k is below eta/2, so every eigenvalue, at the edges too,
    # lies within eta/2 of a grid value, where the bump is 1: no axis of a
    # scan is left without a surviving center.
    for seed in range(3):
        tup = make(seed)
        cache = BumpFactorCache(tup)
        for eta in (0.05, 0.2, 0.35, 0.5, 0.9, 0.99):
            # Only the axis values are read, so the grid is not checked against the cap.
            k = grid_step_count(tup.n, tup.bound, eta)
            grid = GridSpec(n=tup.n, bound=tup.bound, k=k, half=math.floor(tup.bound * k))
            for axis in range(tup.n):
                best = max(cache.factor_norm(axis, float(x), eta) for x in grid.axis_values)
                assert best == 1.0, (seed, eta, axis)


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
    res = scan(tup, 0.5)  # k = 12: +-0.5 are grid values
    accepted = dict(accepted_entries(res))
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
    back = json.loads(json.dumps(d, default=list))
    assert [(tuple(e["point"]), e["norm"]) for e in back["accepted"]] == list(accepted_entries(res))
    assert back["M"] == res.grid.bound
    assert back["meta"] == {"slack": TOL.accept_slack, "grid_points": res.grid.count,
                            "accepted_count": len(res.accepted)}


def test_covers_validates_its_point_and_radius(commuting_16):
    res = scan(commuting_16, 0.5)
    empty = SyntheticSpectrumResult(0.5, res.grid, np.zeros((0, 2), dtype=np.int32), None)
    for result in (res, empty):
        for point in ([0.5], [0.5, 0.5, 0.5]):
            message = f"point has {len(point)} coordinates, tuple has n=2"
            with pytest.raises(ValueError, match=message):
                result.covers(point)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=re.escape(f"non-finite coordinate 1: {bad}")):
                result.covers([0.5, bad])
        for radius in (math.nan, -0.25):
            message = f"radius must be non-negative, got {radius}"
            with pytest.raises(ValueError, match=re.escape(message)):
                result.covers([0.5, 0.5], radius=radius)
    assert res.covers(res.accepted_points()[0], radius=0.0)
    assert not empty.covers([0.5, 0.5], radius=math.inf)


def test_result_holds_read_only_grid_indices_and_norms(commuting_16):
    res = scan(commuting_16, 0.5)
    assert res.accepted.dtype == np.int32 and res.norms.dtype == np.float64
    assert not res.accepted.flags.writeable and not res.norms.flags.writeable
    assert np.array_equal(res.accepted_points(), res.accepted / res.grid.k)
    grid, half = res.grid, res.grid.half
    for accepted, norms in (([[0.5, 0.0]], None),  # values, not grid indices
                            ([[half + 1, 0]], None),  # off the grid
                            ([[-half - 1, 0]], [1.0]),
                            ([[0, 0, 0]], None),  # n = 3 on an n = 2 grid
                            ([[0, 0]], [1.0, 1.0])):  # a norm too many
        with pytest.raises(ValueError):
            SyntheticSpectrumResult(0.5, grid, np.array(accepted), norms)
    # JSON has no NaN or Infinity, and no operator norm is negative.
    for norm in (math.nan, math.inf, -math.inf, -1.0, -5e-324):
        with pytest.raises(ValueError, match="norms must be finite and non-negative"):
            SyntheticSpectrumResult(0.5, grid, np.array([[0, 0], [1, 0]]), [1.0, norm])


@pytest.mark.parametrize("dim, n, seed", [(16, 2, 11), (64, 2, 0), (12, 3, 0)])
def test_commuting_accepted_points_lie_within_reach_of_a_joint_eigenvalue(dim, n, seed):
    # For a commuting tuple the product norm is the largest bump product over
    # the joint eigenvalues, so every factor of an accepted point is at least
    # 1 - eta - slack. The trapezoid is that high only within
    # eta (3 + eta) / 4 + eta slack / 4 of its center, on every axis.
    eta = 0.5
    tup = generate(ModelSpec("commuting_diag", dim, n=n, seed=seed))
    joint = np.stack([np.diagonal(op.array).real for op in tup.ops], axis=1)
    reach = eta * (3.0 + eta) / 4.0
    points = scan(tup, eta).accepted_points()
    nearest = np.abs(points[:, None, :] - joint).max(axis=2).min(axis=1)
    assert len(points) and nearest.max() <= reach + eta * TOL.accept_slack / 4.0 + 1e-12
    # Some accepted points lie beyond 0.35 of every joint eigenvalue on one axis.
    assert nearest.max() > 0.35


def test_scalar_tuple_accepts_points_out_to_the_reach_and_no_further():
    # T_j = t_j I: each factor is bump(t_j) I, and every state has
    # expectation t. So a point is accepted when the product of the bump
    # values at t reaches the threshold, which on each axis is within
    # eta (3 + eta) / 4 of t, and the grid comes within a pitch of that.
    eta = 0.5
    t = (0.1, -0.23)
    tup = OperatorTuple([tj * np.eye(4) for tj in t], bound=1.0)
    assert not uses_band_path(tup)
    result = scan(tup, eta)
    points = result.accepted_points()
    distance = np.abs(points - t).max(axis=1)
    reach = eta * (3.0 + eta) / 4.0
    farthest = float(distance.max())
    assert farthest <= reach + eta * TOL.accept_slack / 4.0 + 1e-12
    assert reach - farthest <= result.grid.pitch
    # No state does better than t there: amu fails just below that distance.
    point = points[np.argmax(distance)]
    assert not amu_at(tup, point, 0.35, farthest - 1e-9).expectation_close
    assert amu_at(tup, point, 0.35, farthest + 1e-9).expectation_close


@pytest.mark.parametrize("norms", [True, False])
def test_scan_result_takes_4n_plus_8_bytes_per_accepted_point(norms):
    # Grid indices as int32 and float64 norms; a point held as Python tuples
    # took about 140 bytes. Two grid sizes of one tuple; the constant covers
    # the result object and allocator caches.
    tup = generate(ModelSpec("perturbed_commuting", 12, n=3, seed=2, params={"perturbation": 0.3}))
    scan(tup, 0.9)  # the tuple's own eigendecompositions are built once, untraced
    per_point = 4 * tup.n + (8 if norms else 0)
    counts = []
    for eta in (0.9, 0.5):
        tracemalloc.start()
        try:
            result = scan(tup, eta, norms=norms)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        counts.append(len(result.accepted))
        assert retained <= per_point * len(result.accepted) + 64_000, (eta, retained)
        del result
    assert counts[1] > 2 * counts[0] > 8_000


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_hausdorff_rejects_nonfinite_points(value):
    finite = [[0.0, 0.0], [1.0, 1.0]]
    first = f"first set has non-finite coordinate 0 in point 0: {value}"
    with pytest.raises(ValueError, match=first):
        hausdorff([[value, 0.0]], finite)
    second = f"second set has non-finite coordinate 1 in point 1: {value}"
    with pytest.raises(ValueError, match=second):
        hausdorff(finite, [[0.0, 0.0], [1.0, value]])
    with pytest.raises(ValueError, match="non-finite"):
        hausdorff([value], [0.0])


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


def unpruned_hausdorff(a, b) -> float:
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=20),
)
def test_hausdorff_pruning_matches_unpruned(seed, only_a, only_b, shared):
    # Grid points, like accepted sets: some in both sets, some in one only.
    rng = np.random.default_rng(seed)
    pts = rng.integers(-12, 13, size=(only_a + only_b + shared, 3)) / 12.0
    a = pts[: only_a + shared]
    b = rng.permutation(pts[only_a:])
    assert hausdorff(a, b) == unpruned_hausdorff(a, b)
    assert hausdorff(b, a) == unpruned_hausdorff(b, a)
    assert hausdorff(a, rng.permutation(a)) == 0.0


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

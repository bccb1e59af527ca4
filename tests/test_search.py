"""Localization operators, ground states, AMU certificates, simplex weights, superpositions."""

from __future__ import annotations

import functools
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amu_spectra import (
    DimensionMismatch,
    HullDistanceError,
    ModelSpec,
    NearDependence,
    NumericalError,
    OperatorTuple,
    VectorState,
    amu_at,
    amu_batch,
    amu_check,
    generate,
    localization_operator,
    measure,
    solve_simplex_lsq,
    superpose,
)
from amu_spectra import observables, search
from amu_spectra.search import _canonical_phase
from conftest import ground_energy, random_hermitian


def diag_tuple(*columns) -> OperatorTuple:
    return OperatorTuple(tuple(np.diag(np.asarray(c, dtype=float)) for c in columns),
                         bound=1.0)


def test_localization_operator_diagonal_oracle():
    tup = diag_tuple([0.0, 1.0], [0.5, -0.5])
    lam = (0.25, 0.25)
    q = localization_operator(tup, lam)
    expected = np.diag(
        [(0.0 - 0.25) ** 2 + (0.5 - 0.25) ** 2, (1.0 - 0.25) ** 2 + (-0.5 - 0.25) ** 2]
    )
    assert np.allclose(q.array, expected, atol=1e-15)


def dense_localization(tup: OperatorTuple, lam) -> np.ndarray:
    """Reference Q(lambda) = sum_j (T_j - lambda_j)^2 from dense products."""
    eye = np.eye(tup.dim)
    return sum((op.array - l * eye) @ (op.array - l * eye) for op, l in zip(tup.ops, lam))


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
)
def test_localization_pencil_matches_dense_squares(n, dim, seed, coords):
    tup = OperatorTuple(
        tuple(random_hermitian(dim, seed=seed + 7919 * j) for j in range(n)), bound=1.0
    )
    lam = coords[:n]
    q = localization_operator(tup, lam).array
    assert np.array_equal(q, q.conj().T)
    s_norm = float(np.linalg.norm(tup.square_sum.array, 2))
    assert np.max(np.abs(q - dense_localization(tup, lam))) <= 1e-13 * (1.0 + s_norm)


def test_square_sum_is_cached_and_thread_independent():
    # Many threads race for the first build on fresh tuples; whichever one
    # stores S, every reader must see the same bytes.
    ops = tuple(random_hermitian(24, seed=s) for s in (1, 2, 3))
    reference = OperatorTuple(ops, bound=1.0).square_sum
    assert np.allclose(reference.array, sum(a @ a for a in ops), atol=1e-14)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(10):
                tup = OperatorTuple(ops, bound=1.0)
                got = list(pool.map(lambda _: tup.square_sum, range(16), timeout=60))
                assert all(np.array_equal(g.array, reference.array) for g in got)
                assert tup.square_sum is tup.square_sum
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "spec, lam",
    [
        (ModelSpec("shift_pair", 96), (0.6, -0.55)),
        (ModelSpec("clock_shift_triple", 32, n=3), (-0.625, -0.75, 19.0 / 24.0)),
        (ModelSpec("perturbed_commuting", 40, n=3, seed=5,
                   params={"perturbation": 0.2}), (0.1, -0.3, 0.4)),
    ],
)
def test_ground_energy_equals_lowest_eigenvalue(spec, lam):
    tup = generate(spec)
    cert = amu_at(tup, lam, 0.5, 0.5)
    v, energy = cert.state, ground_energy(tup, cert)
    q = dense_localization(tup, lam)
    assert energy == pytest.approx(float(np.linalg.eigvalsh(q)[0]), abs=1e-12)
    assert energy == pytest.approx(float(np.vdot(v.vector, q @ v.vector).real), abs=1e-12)
    # The report holds the same energy as sum_j var_j + (exp_j - lambda_j)^2.
    rep = cert.report
    assert energy == pytest.approx(
        sum(var + (e - l) ** 2 for var, e, l in zip(rep.var, rep.exp, lam)), abs=1e-12)


def _rotate_eigh(monkeypatch, phase):
    """Make np.linalg.eigh return its eigenvectors multiplied by ``phase``."""
    real_eigh = np.linalg.eigh

    def rotated(a):
        w, u = real_eigh(a)
        return w, u * phase

    monkeypatch.setattr(np.linalg, "eigh", rotated)


@pytest.mark.parametrize("phase", [1j, -1.0, -1j])
def test_ground_state_phase_is_canonical(monkeypatch, clock_32, phase):
    # Multiplying by -1 or +-i is exact, so the canonical state must come
    # back bit for bit whatever phase the eigensolver picked.
    lam = (0.3, -0.2, 0.1)
    c0 = amu_at(clock_32, lam, 0.5, 0.5)
    v0 = c0.state
    k = int(np.argmax(np.abs(v0.vector)))
    assert v0.vector[k].imag == 0.0 and v0.vector[k].real > 0.0
    _rotate_eigh(monkeypatch, phase)
    c1 = amu_at(clock_32, lam, 0.5, 0.5)
    assert c1.state.vector.tobytes() == v0.vector.tobytes()
    assert c1.report == c0.report


def test_ground_state_phase_generic_rotation(monkeypatch, clock_32):
    lam = (0.8, 0.3, -0.1)
    assert not search.uses_band_path(clock_32)
    v0 = amu_at(clock_32, lam, 0.5, 0.5).state
    _rotate_eigh(monkeypatch, np.exp(0.7j))
    v1 = amu_at(clock_32, lam, 0.5, 0.5).state
    assert np.max(np.abs(v1.vector - v0.vector)) <= 1e-14


@pytest.mark.parametrize("phase", [1j, -1.0, -1j, np.exp(0.7j)])
def test_band_ground_state_phase_is_canonical(monkeypatch, shift_pair_64, phase):
    # The band path's vectors get the same canonical phase: exact for -1 and
    # +-i, to rounding for a generic phase.
    lam = (0.8, 0.3)
    assert search.uses_band_path(shift_pair_64)
    c0 = amu_at(shift_pair_64, lam, 0.5, 0.5)
    v0 = c0.state
    k = int(np.argmax(np.abs(v0.vector)))
    assert v0.vector[k].imag == 0.0 and v0.vector[k].real > 0.0
    real = search.band_ground_eigenpairs

    def rotated(bands):
        energies, vectors = real(bands)
        return energies, vectors * phase

    monkeypatch.setattr(search, "band_ground_eigenpairs", rotated)
    c1 = amu_at(shift_pair_64, lam, 0.5, 0.5)
    v1 = c1.state
    if phase in (1j, -1.0, -1j):
        assert v1.vector.tobytes() == v0.vector.tobytes() and c1.report == c0.report
    else:
        assert np.max(np.abs(v1.vector - v0.vector)) <= 1e-14


def test_canonical_phase_ties_go_to_lowest_index():
    v = np.array([0.5j, -0.5, 0.25 + 0.25j]) / np.sqrt(0.5625)
    got = _canonical_phase(v)
    assert got[0] == abs(v[0]) and got[0].imag == 0.0
    assert np.allclose(got, v * -1j, atol=1e-15)


def test_amu_at_builds_one_localization_operator(monkeypatch, clock_32):
    # On the dense path amu_at is exactly amu_check of the ground state: same
    # state bytes and report, from a single Q(lambda) per point.
    perturbed = generate(ModelSpec("perturbed_commuting", 40, n=3, seed=5,
                                   params={"perturbation": 0.2}))
    cases = [(clock_32, (1.0, 0.0, 0.0)), (clock_32, (0.3, -0.2, 0.1)),
             (perturbed, (0.1, -0.3, 0.4))]
    assert not any(search.uses_band_path(tup) for tup, _ in cases)
    expected = [amu_check(tup, search._ground_states(tup, [lam])[0], lam, 0.5, 0.5)
                for tup, lam in cases]
    calls = []
    real = search.localization_operator

    def counting(tup, lam):
        calls.append(lam)
        return real(tup, lam)

    monkeypatch.setattr(search, "localization_operator", counting)
    for (tup, lam), want in zip(cases, expected):
        calls.clear()
        cert = amu_at(tup, lam, sigma=0.5, eps=0.5)
        assert len(calls) == 1
        assert cert.state.vector.tobytes() == want.state.vector.tobytes()
        assert cert.report == want.report
        assert (cert.lam, cert.amu_member, cert.expectation_close) == (
            want.lam, want.amu_member, want.expectation_close)


def _count_band_solves(monkeypatch):
    """Record the stack size of every band solve; fail on any dense Q."""
    sizes = []
    real = search.band_ground_eigenpairs

    def counting(bands):
        sizes.append(len(bands))
        return real(bands)

    def no_dense(tup, lam):
        raise AssertionError("the band path built a dense Q(lambda)")

    monkeypatch.setattr(search, "band_ground_eigenpairs", counting)
    monkeypatch.setattr(search, "localization_operator", no_dense)
    return sizes


def test_amu_at_band_path_one_point_one_solve(monkeypatch, shift_pair_64):
    # On the band path a point costs one band solve of one matrix and no
    # dense Q, and gives amu_check of the ground state.
    points = [(0.8, 0.3), (1.0, 0.0), (0.0, 0.5)]
    expected = [amu_check(shift_pair_64, search._ground_states(shift_pair_64, [lam])[0], lam,
                          0.5, 0.5)
                for lam in points]
    sizes = _count_band_solves(monkeypatch)
    for lam, want in zip(points, expected):
        sizes.clear()
        cert = amu_at(shift_pair_64, lam, sigma=0.5, eps=0.5)
        assert sizes == [1]
        assert cert.state.vector.tobytes() == want.state.vector.tobytes()
        assert cert.report == want.report


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_amu_batch_refuses_points_past_the_solvers_range(monkeypatch, shift_pair_64, clock_32):
    # |lambda|^2 is Q(lambda)'s diagonal shift; above 2^500 the solvers'
    # squares leave the float range, so the whole batch is refused first.
    edge = 2.0**250
    for tup in (shift_pair_64, clock_32):
        near = (edge,) + (0.0,) * (tup.n - 1)
        assert amu_at(tup, near, 0.35, 0.35).lam == near
        far = (edge * (1 + 2**-52),) + (0.0,) * (tup.n - 1)
        monkeypatch.setattr(search, "_ground_states", None)  # no solve may run
        with pytest.raises(ValueError, match=re.escape(f"lambda {far} lies too far out")):
            amu_batch(tup, [(0.5,) * tup.n, far], 0.35, 0.35)
        monkeypatch.undo()


def test_amu_batch_equals_amu_at_point_by_point(monkeypatch, shift_pair_64, clock_32):
    # One band solve for the whole batch, and every certificate bit for bit
    # that of amu_at, whatever the batch holds or its order; dense tuples go
    # point by point.
    points = [(0.8, 0.3), (-0.5, 0.5), (0.0, 0.0), (1.2, -0.4), (0.5, 0.0)]
    singles = [amu_at(shift_pair_64, p, 0.35, 0.35) for p in points]
    sizes = _count_band_solves(monkeypatch)
    for order in ([0, 1, 2, 3, 4], [4, 2, 0], [3, 3, 1]):
        sizes.clear()
        certs = amu_batch(shift_pair_64, [points[i] for i in order], 0.35, 0.35)
        assert sizes == [len(order)]
        for cert, i in zip(certs, order):
            assert cert.state.vector.tobytes() == singles[i].state.vector.tobytes()
            assert cert.to_json_dict() == singles[i].to_json_dict()
    monkeypatch.undo()
    dense = [(0.3, -0.2, 0.1), (1.0, 0.0, 0.0)]
    assert [c.to_json_dict() for c in amu_batch(clock_32, dense, 0.35, 0.35)] == [
        amu_at(clock_32, p, 0.35, 0.35).to_json_dict() for p in dense]
    assert amu_batch(shift_pair_64, [], 0.35, 0.35) == []


def test_band_path_reads_the_wider_band_of_s():
    # Tridiagonal T_j give a pentadiagonal S, so every Q has half-bandwidth 2.
    rows, cols = np.indices((64, 64))
    ops = []
    for seed in (1, 2):
        a = random_hermitian(64, seed=seed)
        a[np.abs(rows - cols) > 1] = 0.0
        ops.append(a / np.linalg.norm(a, 2))
    tup = OperatorTuple(ops, bound=1.0)
    assert tup.half_bandwidth == 2 and search.uses_band_path(tup)
    lam = (0.1, -0.2)
    cert = amu_at(tup, lam, 0.5, 0.5)
    v, energy = cert.state, ground_energy(tup, cert)
    q = dense_localization(tup, lam)
    assert energy == pytest.approx(float(np.linalg.eigvalsh(q)[0]), abs=1e-12)
    assert energy == pytest.approx(float(np.vdot(v.vector, q @ v.vector).real), abs=1e-12)


@pytest.mark.parametrize(
    "spec, half_bandwidth, band",
    [
        (ModelSpec("shift_pair", 12), 1, False),
        (ModelSpec("shift_pair", 32), 1, False),
        (ModelSpec("shift_pair", 48), 1, True),
        (ModelSpec("commuting_diag", 48, n=2, seed=1), 0, True),
        (ModelSpec("clock_shift_triple", 64, n=3), 63, False),
        (ModelSpec("perturbed_commuting", 48, n=3, seed=0, params={"perturbation": 0.2}), 47,
         False),
    ],
)
def test_band_path_rule(monkeypatch, spec, half_bandwidth, band):
    tup = generate(spec)
    assert tup.half_bandwidth == half_bandwidth
    # Cached like S: the second read measures nothing.
    monkeypatch.setattr(observables, "half_bandwidth", None)
    assert search.uses_band_path(tup) is band


def test_ground_state_picks_minimal_entry():
    tup = diag_tuple([0.0, 1.0, 0.2], [0.5, -0.5, 0.1])
    cert = amu_at(tup, (0.2, 0.1), 0.5, 0.5)
    v, energy = cert.state, ground_energy(tup, cert)
    assert abs(v.vector[2]) == pytest.approx(1.0, abs=1e-12)
    assert energy == pytest.approx(0.0, abs=1e-15)


@given(st.integers(min_value=0, max_value=30))
def test_ground_energy_dominates_total_variance(seed):
    dim = 7
    ops = (random_hermitian(dim, seed=seed), random_hermitian(dim, seed=seed + 500))
    tup = OperatorTuple(ops, bound=1.0)
    lam = (0.1, -0.2)
    cert = amu_at(tup, lam, 0.5, 0.5)
    v, energy = cert.state, ground_energy(tup, cert)
    rep = measure(tup, v)
    # Total variance <= <Q v, v> with equality iff exp(v) == lam.
    assert sum(rep.var) <= energy + 1e-10
    # <Q v, v> = sum_j var_j + |exp - lam|^2 also dominates the squared distance.
    assert sum((e - l) ** 2 for e, l in zip(rep.exp, lam)) <= energy + 1e-10
    assert energy >= 0.0


def test_amu_at_certifies_diagonal_eigenvalue():
    tup = diag_tuple([0.0, 1.0], [0.5, -0.5])
    cert = amu_at(tup, (0.0, 0.5), sigma=0.05, eps=0.05)
    assert cert.amu_member and cert.expectation_close
    assert cert.max_sd == pytest.approx(0.0, abs=1e-12)


def test_solve_simplex_lsq_interior_target():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    alpha, residual = solve_simplex_lsq(pts, np.array([0.25, 0.25]))
    assert residual <= 1e-8
    assert np.allclose(alpha, [0.5, 0.25, 0.25], atol=1e-6)


def test_solve_simplex_lsq_exterior_target_projects_onto_hull():
    pts = np.array([[0.0], [1.0]])
    alpha, residual = solve_simplex_lsq(pts, np.array([2.0]))
    assert np.allclose(alpha, [0.0, 1.0], atol=1e-8)
    assert residual == pytest.approx(1.0, abs=1e-8)


@given(st.integers(min_value=0, max_value=25))
def test_solve_simplex_lsq_beats_vertices(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(5, 2))
    target = rng.uniform(-1, 1, size=2)
    alpha, residual = solve_simplex_lsq(pts, target)
    assert np.all(alpha >= -1e-10)
    assert float(alpha.sum()) == pytest.approx(1.0, abs=1e-8)
    vertex_best = min(np.linalg.norm(pts[i] - target) for i in range(len(pts)))
    assert residual <= vertex_best + 1e-8


def assert_certified(points, target, alpha, residual):
    """Wolfe's certificate: x* = alpha @ points is the point of the hull
    nearest t exactly when min_k <p_k - x*, x* - t> >= 0."""
    p = np.asarray(points, dtype=float).reshape(len(alpha), -1)
    t = np.asarray(target, dtype=float)
    x = alpha @ p
    scale = float(((p - t) ** 2).sum(axis=1).max())
    assert float(((p - x) @ (x - t)).min()) >= -1e-12 * scale
    assert np.all(alpha >= 0.0) and float(alpha.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(alpha) <= p.shape[1] + 1
    assert residual == pytest.approx(np.linalg.norm(x - t), abs=1e-12 * (1 + np.abs(p).max()))


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_solve_simplex_lsq_certifies_optimality(n, m, seed, size):
    rng = np.random.default_rng(seed)
    pts = size * rng.uniform(-1, 1, size=(m, n))
    target = size * rng.uniform(-1.5, 1.5, size=n)
    alpha, residual = solve_simplex_lsq(pts, target)
    assert_certified(pts, target, alpha, residual)


@pytest.mark.parametrize(
    "points, target",
    [
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [0.8, 0.8]),
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [2.5, 1.0]),
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [-1.0, 0.5]),
        ([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [2.0, 0.0]),
        ([[1e8, 0.0], [-1e8, 3e8], [2e8, 1e8], [0.0, -1e8]], [1.5e8, -2e8]),
        ([[1e8 + 1.0, 1e8], [1e8, 1e8 + 1.0], [1e8, 1e8]], [1e8 + 0.25, 1e8 + 0.25]),
        ([[np.cos(a), np.sin(a)] for a in np.linspace(0.0, 2 * np.pi, 9)[:-1]], [0.1, -0.2]),
        ([[1.0, 2.0, 3.0]], [0.0, 0.0, 0.0]),
    ],
    ids=["duplicates", "collinear", "collinear-beyond-end", "target-on-vertex",
         "scale-1e8", "offset-1e8", "octagon-m-above-n-plus-1", "single-point"],
)
def test_solve_simplex_lsq_fixed_cases(points, target):
    alpha, residual = solve_simplex_lsq(points, target)
    assert_certified(points, target, alpha, residual)


def test_solve_simplex_lsq_fixed_case_answers():
    # Ties go to the lowest index: the duplicate pairs keep their first copy.
    alpha, residual = solve_simplex_lsq(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [0.8, 0.8]
    )
    assert alpha == pytest.approx([0.0, 0.5, 0.0, 0.5, 0.0], abs=1e-15)
    assert residual == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-15)
    alpha, residual = solve_simplex_lsq([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [2.0, 0.0])
    assert list(alpha) == [0.0, 1.0, 0.0] and residual == 0.0
    alpha, residual = solve_simplex_lsq([[1.0, 2.0, 3.0]], [0.0, 0.0, 0.0])
    assert list(alpha) == [1.0] and residual == float(np.sqrt(14.0))
    alpha, residual = solve_simplex_lsq(
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [-1.0, 0.5]
    )
    assert list(alpha) == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "points, target",
    [([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.25, 0.25]), ([[1.0]], [0.0])],
    ids=["interior-target", "single-point"],
)
def test_solve_simplex_lsq_never_returns_uncertified_weights(monkeypatch, points, target):
    # With a test that cannot hold, the solver must raise rather than return.
    monkeypatch.setattr(search, "_WOLFE_OPTIMALITY", -1.0)
    with pytest.raises(NumericalError):
        solve_simplex_lsq(points, target)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: solve_simplex_lsq(np.zeros((0, 2)), [0.0, 0.0]), ValueError),
        (lambda: solve_simplex_lsq(np.zeros(0), [0.0]), ValueError),
        (lambda: solve_simplex_lsq([[0.0, 0.0], [1.0, 1.0]], [np.nan, 0.0]), ValueError),
        (lambda: solve_simplex_lsq([[0.0, 0.0], [1.0, np.nan]], [0.5, 0.5]), ValueError),
        (lambda: solve_simplex_lsq([[np.inf, 0.0]], [0.0, 0.0]), ValueError),
        (lambda: solve_simplex_lsq([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5, 0.5]),
         DimensionMismatch),
    ],
    ids=["lsq-no-points", "lsq-no-points-1d", "lsq-nan-target", "lsq-nan-point",
         "lsq-inf-single-point", "lsq-wrong-count"],
)
def test_simplex_solvers_reject_bad_input(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_superpose_diagonal_pair_exact():
    tup = diag_tuple([0.0, 1.0], [0.0, 1.0])
    c0 = amu_check(tup, VectorState(np.array([1.0, 0.0])), (0.0, 0.0), 0.1, 0.1)
    c1 = amu_check(tup, VectorState(np.array([0.0, 1.0])), (1.0, 1.0), 0.1, 0.1)
    plan = superpose(tup, [c0, c1], (0.5, 0.5))
    assert plan.weights == pytest.approx([0.5, 0.5], abs=1e-10)
    assert plan.achieved_distance <= 1e-10
    assert np.asarray(plan.report.exp) == pytest.approx([0.5, 0.5], abs=1e-10)


def test_superpose_weights_follow_target():
    tup = diag_tuple([0.0, 1.0], [0.0, 1.0])
    c0 = amu_check(tup, VectorState(np.array([1.0, 0.0])), (0.0, 0.0), 0.1, 0.1)
    c1 = amu_check(tup, VectorState(np.array([0.0, 1.0])), (1.0, 1.0), 0.1, 0.1)
    plan = superpose(tup, [c0, c1], (0.25, 0.25))
    assert plan.weights == pytest.approx([0.75, 0.25], abs=1e-8)
    assert plan.achieved_distance <= 1e-8


def test_superpose_outside_hull_raises():
    tup = diag_tuple([0.0, 1.0], [0.0, 1.0])
    c0 = amu_check(tup, VectorState(np.array([1.0, 0.0])), (0.0, 0.0), 0.1, 0.1)
    c1 = amu_check(tup, VectorState(np.array([0.0, 1.0])), (1.0, 1.0), 0.1, 0.1)
    with pytest.raises(HullDistanceError) as info:
        superpose(tup, [c0, c1], (-1.0, -1.0))
    assert info.value.distance == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_superpose_rejects_duplicate_states():
    tup = diag_tuple([0.0, 1.0], [0.0, 1.0])
    c0 = amu_check(tup, VectorState(np.array([1.0, 0.0])), (0.0, 0.0), 0.1, 0.1)
    with pytest.raises(NearDependence):
        superpose(tup, [c0, c0], (0.0, 0.0))


def test_superpose_shift_circle_centroid():
    tup = generate(ModelSpec("shift_pair", 128))
    certs = []
    for th in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        lam = (float(np.cos(th)), float(np.sin(th)))
        certs.append(amu_at(tup, lam, 0.3, 0.3))
    plan = superpose(tup, certs, (0.0, 0.0))
    assert plan.achieved_distance <= 0.15
    # The nearest-point weights are not unique here (the four points are
    # nearly a square around the target); check what is.
    w = plan.weights
    assert np.all(w >= 0.0) and float(w.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(w) <= 3
    assert np.linalg.norm(w @ plan.source_points) <= 1e-12


@functools.cache
def shift_circle_certs(dim: int):
    tup = generate(ModelSpec("shift_pair", dim))
    certs = []
    for th in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        lam = (float(np.cos(th)), float(np.sin(th)))
        certs.append(amu_at(tup, lam, 0.2, 0.2))
    return tup, certs


@given(
    st.sampled_from([32, 256]),
    st.lists(st.floats(min_value=0.0, max_value=2 * np.pi), min_size=4, max_size=4),
    st.tuples(st.floats(min_value=-0.4, max_value=0.4),
              st.floats(min_value=-0.4, max_value=0.4)),
)
def test_superpose_cross_bound_holds_for_any_phases(dim, phases, target):
    tup, certs = shift_circle_certs(dim)
    rotated = [
        amu_check(tup, VectorState(np.exp(1j * ph) * c.state.vector), c.lam, 0.2, 0.2)
        for c, ph in zip(certs, phases)
    ]
    plan = superpose(tup, rotated, target)
    drift = np.abs(np.asarray(plan.report.exp) - plan.weights @ plan.source_points)
    assert np.all(drift <= np.asarray(plan.cross_bound) + 1e-12)


def test_superpose_orthonormalizes_slightly_overlapping_sources():
    # An overlap of 1e-9 between the sources is removed too.
    tup = diag_tuple([0.0, 1.0, 0.5], [0.0, 1.0, 0.5])
    e0 = VectorState.normalized([1.0, 1e-9, 0.0])
    e1 = VectorState(np.array([0.0, 1.0, 0.0]))
    c0 = amu_check(tup, e0, (0.0, 0.0), 0.1, 0.1)
    c1 = amu_check(tup, e1, (1.0, 1.0), 0.1, 0.1)
    plan = superpose(tup, [c0, c1], (0.5, 0.5))
    gram = plan.states.conj().T @ plan.states
    assert np.abs(gram - np.eye(2)).max() <= 1e-15


def test_superpose_plan_of_joint_eigenvectors():
    tup = diag_tuple([0.0, 1.0], [0.0, 1.0])
    c0 = amu_check(tup, VectorState(np.array([1.0, 0.0])), (0.0, 0.0), 0.1, 0.1)
    c1 = amu_check(tup, VectorState(np.array([0.0, 1.0])), (1.0, 1.0), 0.1, 0.1)
    plan = superpose(tup, [c0, c1], (0.5, 0.5))
    assert plan.target == (0.5, 0.5)
    assert len(plan.weights) == 2
    assert plan.state.dim == tup.dim
    assert plan.achieved_distance <= 1e-10
    # e0 and e1 are eigenvectors of both observables: no cross term.
    assert plan.cross_bound == (0.0, 0.0)

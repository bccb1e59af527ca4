"""Hermitian wrappers, eigensolver contracts, norms, orthonormalization."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amu_spectra import (
    TOL,
    HermitianMatrix,
    NearDependence,
    NumericalError,
    band_ground_eigenpairs,
    eig_hermitian,
    gram_schmidt,
    ground_eigenpair,
    operator_norm,
)
from amu_spectra import linalg
from amu_spectra.linalg import half_bandwidth, lower_band
from conftest import random_hermitian


def test_hermitian_matrix_symmetrizes_tiny_asymmetry():
    a = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
    h = HermitianMatrix(a)
    assert np.array_equal(h.array, h.array.conj().T)
    assert not h.array.flags.writeable


@pytest.mark.parametrize(
    "a",
    [
        random_hermitian(9, seed=4),
        random_hermitian(9, seed=4) + 1e-13 * np.triu(np.ones((9, 9)), 1),
        # Purely imaginary with signed zeros, like the shift pair's A_2.
        -(np.eye(6, k=-1, dtype=complex) - np.eye(6, k=1, dtype=complex)) / 2.0j,
    ],
)
def test_hermitian_matrix_stores_exact_symmetrization(a):
    # Bit for bit, signs of zeros included: stored tuples and every artifact
    # computed from them depend on these bytes.
    assert HermitianMatrix(a).array.tobytes() == ((a + a.conj().T) / 2.0).tobytes()


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1e308, 0.0], [0.0, 1.0]]),
        np.array([[-1e308, 1e308 - 1e308j], [1e308 + 1e308j, 0.0]]),
    ],
)
def test_hermitian_matrix_near_float_limit_stays_finite(a):
    # a + a† overflows here; the stored matrix must still be the input.
    h = HermitianMatrix(a)
    assert np.array_equal(h.array, a)


def test_hermitian_matrix_rejects_gross_asymmetry():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermitianMatrix(a)


def test_hermitian_matrix_tolerance_scales_with_entries():
    # U diag(w) U† with |w| up to 1e5 rounds to an asymmetry of a few 1e-12.
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)))
    a = (u * rng.uniform(-1e5, 1e5, size=40)) @ u.conj().T
    assert np.max(np.abs(a - a.conj().T)) > 1e-12
    assert np.array_equal(HermitianMatrix(a).array, (a + a.conj().T) / 2.0)
    # A real asymmetry at the same scale is still rejected.
    a[0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(a)
    # Entries whose modulus overflows do not widen the tolerance to infinity,
    # and the overflowing asymmetry raises without a warning first.
    with pytest.raises(ValueError, match="not Hermitian"), warnings.catch_warnings():
        warnings.simplefilter("error")
        HermitianMatrix(np.array([[0.0, 1.5e308 + 1.5e308j], [-1.5e308 - 1.5e308j, 0.0]]))


def test_hermitian_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((2, 3)))


def test_eig_reconstructs_and_sorts():
    h = HermitianMatrix(random_hermitian(12, seed=0))
    w, u = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    recon = u @ np.diag(w) @ u.conj().T
    assert np.linalg.norm(recon - h.array) <= 1e-10


def test_eig_known_spectrum():
    h = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    w, _ = eig_hermitian(h)
    assert w == pytest.approx([-1.0, 1.0], abs=1e-14)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=50))
def test_ground_eigenpair_is_lowest_unit_eigenpair(dim, seed):
    h = random_hermitian(dim, seed=seed, scale=3.0)
    energy, v = ground_eigenpair(h)
    assert energy == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(h @ v - energy * v) <= 1e-12


def _patch_eigh(monkeypatch, transform):
    """Make np.linalg.eigh return transform(w, u) instead of (w, u)."""
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: transform(*real_eigh(a)))


@pytest.mark.parametrize(
    "transform",
    [
        lambda w, u: (w[::-1], u[:, ::-1]),  # columns (and values) in reverse order
        lambda w, u: (w[1:], u[:, 1:]),  # the second-lowest pair in first place
    ],
)
def test_ground_eigenpair_rejects_non_minimal_pair(monkeypatch, transform):
    # The returned pair is a true eigenpair, so the residual passes: only the
    # Cholesky certificate can tell that it is not the lowest one.
    h = random_hermitian(8, seed=3)
    _patch_eigh(monkeypatch, transform)
    with pytest.raises(NumericalError, match="not the smallest"):
        ground_eigenpair(h)


def test_ground_eigenpair_rejects_perturbed_vector(monkeypatch):
    h = random_hermitian(8, seed=3)

    def perturb(w, u):
        u = u.copy()
        u[:, 0] += 1e-3 * u[:, 1]
        return w, u

    _patch_eigh(monkeypatch, perturb)
    with pytest.raises(NumericalError, match="residual"):
        ground_eigenpair(h)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=50))
def test_operator_norm_matches_largest_eigenvalue_magnitude(dim, seed):
    h = random_hermitian(dim, seed=seed)
    expected = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    assert operator_norm(h) == pytest.approx(expected, abs=1e-10)


def test_operator_norm_nonsymmetric_input():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert operator_norm(a) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(9, 4), (4, 9), (7, 7), (1, 6), (6, 1)])
def test_operator_norm_rectangular(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert abs(operator_norm(a) - np.linalg.norm(a, ord=2)) <= 1e-12


@pytest.mark.parametrize("shape", [(5, 9, 4), (5, 4, 9), (3, 7, 7), (1, 6, 6), (4, 1, 6), (4, 6, 1)])
def test_operator_norm_stack_matches_each_matrix(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    norms = operator_norm(stack)
    assert norms.shape == (shape[0],) and norms.dtype == np.float64
    for matrix, nrm in zip(stack, norms):
        assert nrm == operator_norm(matrix)
        assert abs(nrm - np.linalg.norm(matrix, ord=2)) <= 1e-12


def test_operator_norm_scales_matrices_whose_gram_overflows():
    big = operator_norm([[1e308, 0.0], [0.0, 1.0]])
    assert abs(big - 1e308) <= 1e-15 * 1e308
    assert abs(operator_norm([[1e200]]) - 1e200) <= 1e-15 * 1e200
    # Only the overflowing member is recomputed; the other keeps its bits.
    norms = operator_norm(np.array([[[1e200]], [[2.0]]]))
    assert abs(norms[0] - 1e200) <= 1e-15 * 1e200 and norms[1] == 2.0


@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
       exponent=st.integers(-300, 300))
@example(seed=0, shape=(5, 7), exponent=-157)
@example(seed=0, shape=(5, 7), exponent=-162)
@example(seed=0, shape=(5, 7), exponent=-165)
def test_operator_norm_is_accurate_at_any_scale(seed, shape, exponent):
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0**exponent
    expected = np.linalg.norm(a, 2)
    assert abs(operator_norm(a) - expected) <= 1e-12 * expected


def test_operator_norm_scales_matrices_whose_gram_underflows():
    assert operator_norm(1e-200 * np.eye(2)) == 1e-200
    assert abs(operator_norm(1e-160 * np.eye(3)) - 1e-160) <= 1e-15 * 1e-160


def test_zero_matrices_are_not_formed_again(monkeypatch):
    # Their trace is 0, outside the range, yet their Gram matrix is exact.
    shapes = []
    real = linalg._gram

    def gram(stack):
        shapes.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(linalg, "_gram", gram)
    stack = np.zeros((50, 4, 3), dtype=np.complex128)
    assert operator_norm(stack).tolist() == [0.0] * 50
    assert operator_norm(stack, floor=0.0).tolist() == [0.0] * 50
    assert shapes == [(50, 4, 3)] * 2
    # A nonzero member whose Gram matrix underflows is formed again, alone.
    stack[7, 1, 2] = 1e-200j
    shapes.clear()
    norms = operator_norm(stack)
    assert shapes == [(50, 4, 3), (1, 4, 3)]
    assert norms[7] == 1e-200 and not np.delete(norms, 7).any()


def test_operator_norm_of_several_stacks_matches_each_alone(monkeypatch):
    # The scan stacks one center's cores from a chunk of prefixes into one call.
    rng = np.random.default_rng(19)
    stacks = [rng.normal(size=(p, 5, 7)) + 1j * rng.normal(size=(p, 5, 7)) for p in (3, 1, 4)]
    stacks[0][1, 2, 3] = 1e200
    shapes = []
    real = np.linalg.eigvalsh

    def eigvalsh(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    norms = operator_norm(np.concatenate(stacks))
    # One eigensolve for the whole stack: the overflowing member is rescaled in it.
    assert shapes == [(8, 5, 5)]
    monkeypatch.undo()
    assert norms.tobytes() == np.concatenate([operator_norm(a) for a in stacks]).tobytes()
    assert norms.tobytes() == np.array([operator_norm(m) for a in stacks for m in a]).tobytes()
    assert abs(norms[1] - np.linalg.norm(stacks[0][1], ord=2)) <= 1e-15 * 1e200


@pytest.mark.parametrize(
    "bad",
    [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(4), np.array([[1.0, np.nan]]),
     np.array([[np.inf], [0.0]]), np.zeros((0, 2, 2)), np.zeros((2, 0, 3)),
     np.zeros((2, 3, 0)), np.full((2, 2, 2), np.nan), np.zeros((2, 2, 2, 2))],
)
def test_operator_norm_rejects_empty_and_nonfinite(bad):
    with pytest.raises(ValueError):
        operator_norm(bad)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)),
    rank_one=st.booleans(),
    zero=st.booleans(),
    scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]),
    level=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_gram_frobenius_bounds_the_squared_norm(seed, shape, rank_one, zero, scale, level):
    # ||A||^2 = lam_max(G) <= ||G||_F screens a matrix at a floor ``level``
    # times some member's squared norm.
    p, m, k = shape
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if rank_one:  # then ||G||_F is the squared norm itself
        stack = stack[:, :, :1] @ stack[:, :1, :]
    if zero:
        stack[rng.integers(p)] = 0.0
    stack *= scale
    alone = np.array([operator_norm(a) for a in stack])
    squares = alone**2
    floor = level * squares[rng.integers(p)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norms = operator_norm(stack, floor=floor)
    assert norms.shape == (p,)
    # A screened matrix gets 0 and has ||A||^2 <= floor; any other gets its norm's bits.
    screened = norms == 0.0
    assert np.all(squares[screened] <= floor * (1 + 1e-12))
    assert norms[~screened].tobytes() == alone[~screened].tobytes()
    if rank_one:  # the screen is exact up to rounding
        assert np.all(screened | (squares > floor * (1 - 1e-12)))
    if floor == 0.0:  # the bound is 0 for a zero matrix only
        assert np.all(screened == (squares == 0.0))
    assert operator_norm(stack).tobytes() == alone.tobytes()


def test_gram_schmidt_orthonormalizes_and_preserves_span():
    rng = np.random.default_rng(3)
    vecs = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(3)]
    basis = gram_schmidt(vecs)
    g = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.linalg.norm(g - np.eye(3)) <= 1e-10
    # Same span: projectors onto both subspaces agree.
    q_old = np.linalg.qr(np.stack(vecs, axis=1))[0]
    p_old = q_old @ q_old.conj().T
    b = np.stack(basis, axis=1)
    p_new = b @ b.conj().T
    assert np.linalg.norm(p_old - p_new) <= 1e-9


def _classical_gram_schmidt(vectors) -> list[np.ndarray]:
    """Reference: two passes of classical Gram-Schmidt over the normalized inputs."""
    out: list[np.ndarray] = []
    for v in vectors:
        u = v / np.linalg.norm(v)
        for _ in range(2):
            u = u - sum(q * np.vdot(q, u) for q in out)
        out.append(u / np.linalg.norm(u))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_gram_schmidt_is_classical_gram_schmidt(seed):
    rng = np.random.default_rng(seed)
    length, count = int(rng.integers(1, 9)), int(rng.integers(1, 6))
    count = min(count, length)
    vecs = [rng.normal(size=length) + 1j * rng.normal(size=length) for _ in range(count)]
    if seed % 3 == 0:
        vecs = [v.real * 3.0 for v in vecs]  # real inputs of any scale
    basis = gram_schmidt(vecs)
    assert len(basis) == count
    for out, want, v in zip(basis, _classical_gram_schmidt(vecs), vecs):
        assert np.max(np.abs(out - want)) <= 1e-13
        # The phase is Gram-Schmidt's: <out_k, v_k> = R_kk |v_k| > 0.
        overlap = np.vdot(out, v)
        assert overlap.real > 0.0
        assert abs(overlap.imag) <= 1e-13 * np.linalg.norm(v)


def test_gram_schmidt_flags_dependent_family():
    v = np.array([1.0, 2.0, 0.0])
    with pytest.raises(NearDependence) as info:
        gram_schmidt([v, 2.0 * v])
    assert info.value.index == 1


def test_gram_schmidt_names_first_vector_beyond_the_dimension():
    # Five vectors in C^3: no residual collapses within R, and the fourth is
    # the first that cannot be independent.
    rng = np.random.default_rng(4)
    with pytest.raises(NearDependence) as info:
        gram_schmidt([rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(5)])
    assert info.value.index == 3


def test_gram_schmidt_flags_near_dependence():
    v = np.array([1.0, 0.0, 0.0])
    w = v + 1e-10 * np.array([0.0, 1.0, 0.0])
    with pytest.raises(NearDependence):
        gram_schmidt([v, w])


def test_gram_schmidt_rejects_zero_vector():
    with pytest.raises(ValueError):
        gram_schmidt([np.zeros(3)])


def _band_matrices(seed: int, count: int, dim: int, w: int, scales=(1.0,)):
    """``count`` random Hermitian matrices of half-bandwidth w, cycling through ``scales``,
    and their stacked lower bands."""
    rows, cols = np.indices((dim, dim))
    mats = []
    for i in range(count):
        a = random_hermitian(dim, seed=seed + 7919 * i, scale=scales[i % len(scales)])
        a[np.abs(rows - cols) > w] = 0.0
        mats.append(a)
    return mats, np.stack([lower_band(a, w) for a in mats])


band_cases = st.tuples(st.integers(0, 3), st.integers(1, 48), st.integers(1, 4),
                       st.integers(0, 10_000))


def test_half_bandwidth_and_lower_band():
    a = np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag([0.5j, 0.0, 0.25], -1) + np.diag([-0.5j, 0.0, 0.25], 1)
    assert half_bandwidth(a) == 1
    assert half_bandwidth(np.diag([1.0, 2.0])) == half_bandwidth(np.zeros((3, 3))) == 0
    assert half_bandwidth(random_hermitian(5, seed=1)) == 4
    band = lower_band(a, 2)
    assert band.shape == (3, 4)
    assert np.array_equal(band[0], np.diagonal(a)) and np.array_equal(band[1, :3], np.diagonal(a, -1))
    assert np.array_equal(band[2], np.zeros(4)) and band[1, 3] == 0.0


@given(band_cases)
def test_band_cholesky_factors_exactly_when_numpy_does(case):
    w, dim, count, seed = case
    w = min(w, dim - 1)
    mats, bands = _band_matrices(seed, count, dim, w)
    lows = np.array([np.linalg.eigvalsh(a)[0] for a in mats])
    # Shifts at least 1e-6 from each matrix's lowest eigenvalue, on both sides.
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(1e-6, 1.0, size=(count, 6)) * np.array([-1.0, 1.0] * 3)
    shifts = lows[:, None] + offsets
    band = linalg._stacked(bands)
    ok, fac = linalg._band_cholesky(band, shifts, keep=True)
    # Keeping only the last w columns decides the same way.
    assert np.array_equal(linalg._band_cholesky(band, shifts)[0], ok)
    for i, a in enumerate(mats):
        for t, s in enumerate(shifts[i]):
            try:
                want = np.linalg.cholesky(a - s * np.eye(dim))
            except np.linalg.LinAlgError:
                want = None
            assert ok[i, t] == (want is not None), (i, t, s - lows[i])
            if want is not None:
                got = fac[:, 0, :, i, t] + 1j * fac[:, 1, :, i, t]
                assert np.max(np.abs(got - lower_band(want, w).T)) <= 1e-8 * np.abs(want).max()


@given(st.integers(0, 1), st.integers(1, 48), st.integers(1, 4), st.integers(-150, 150),
       st.integers(0, 10_000))
def test_positive_pivots_factor_exactly_when_numpy_does(w, dim, count, exponent, seed):
    # From 1e-150 to 1e150; |b|^2 overflows only past about 1e154.
    w = min(w, dim - 1)
    scale = 10.0 ** exponent
    mats, bands = _band_matrices(seed, count, dim, w, scales=(scale,))
    lows = np.array([np.linalg.eigvalsh(a)[0] for a in mats])
    # Shifts at least 1e-6 of the scale from each matrix's lowest eigenvalue, on both sides.
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(1e-6, 1.0, size=(count, 6)) * np.array([-1.0, 1.0] * 3) * scale
    shifts = lows[:, None] + offsets
    ok = linalg._positive_pivots(linalg._stacked(bands), shifts)
    for i, a in enumerate(mats):
        for t, s in enumerate(shifts[i]):
            try:
                np.linalg.cholesky(a - s * np.eye(dim))
                want = True
            except np.linalg.LinAlgError:
                want = False
            assert ok[i, t] == want, (i, t, (s - lows[i]) / scale)


def test_positive_pivots_count_a_zero_pivot_as_no_factor():
    # A shift equal to a diagonal entry of a diagonal matrix.
    band = linalg._stacked(lower_band(np.diag([2.0, 1.0, 3.0]), 0)[None])
    assert linalg._positive_pivots(band, np.array([[1.0, 0.5, 2.0]])).tolist() == [
        [False, True, False]]
    # A zero first pivot of a tridiagonal matrix, followed by -inf (b != 0) or NaN (b = 0).
    for b in (0.5j, 0.0):
        a = np.array([[1.0, np.conj(b)], [b, 4.0]])
        band = linalg._stacked(lower_band(a, 1)[None])
        assert linalg._positive_pivots(band, np.array([[1.0, 0.0]])).tolist() == [[False, True]]
    # A zero last pivot: [[4, 1], [1, 1/4]] is singular, with pivots 4 and 1/4 - 1/4.
    band = linalg._stacked(lower_band(np.array([[4.0, 1.0], [1.0, 0.25]]), 1)[None])
    assert linalg._positive_pivots(band, np.array([[0.0, -1e-3]])).tolist() == [[False, True]]


@pytest.mark.parametrize("w", [0, 1])
def test_band_ground_eigenpairs_bytes_do_not_depend_on_the_factor_test(monkeypatch, w):
    # The pivot signs and the band Cholesky factor decide alike, so every
    # shift of the multisection, and every pair, keeps its bytes.
    _, bands = _band_matrices(4, 24, 40, w, scales=(1.0, 1e3, 1e-3, 5.0))
    energies, vectors = band_ground_eigenpairs(bands)
    calls = []

    def by_cholesky(band, shifts):
        calls.append(shifts.shape)
        return linalg._band_cholesky(band, shifts)[0]

    monkeypatch.setattr(linalg, "_positive_pivots", by_cholesky)
    forced = band_ground_eigenpairs(bands)
    assert calls
    assert energies.tobytes() == forced[0].tobytes() and vectors.tobytes() == forced[1].tobytes()


@given(band_cases)
def test_band_solves_invert_the_factor(case):
    w, dim, count, seed = case
    w = min(w, dim - 1)
    mats, bands = _band_matrices(seed, count, dim, w)
    shifts = np.array([[np.linalg.eigvalsh(a)[0] - 1.0] for a in mats])
    ok, fac = linalg._band_cholesky(linalg._stacked(bands), shifts, keep=True)
    assert ok.all()
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, 2, count))
    rhs = x[:, 0] + 1j * x[:, 1]
    linalg._band_solve(fac[..., 0], x)
    for i, a in enumerate(mats):
        want = np.linalg.solve(a - shifts[i, 0] * np.eye(dim), rhs[:, i])
        assert np.max(np.abs(x[:, 0, i] + 1j * x[:, 1, i] - want)) <= 1e-12


@given(band_cases)
def test_band_ground_eigenpairs_match_eigvalsh(case):
    w, dim, count, seed = case
    w = min(w, dim - 1)
    mats, bands = _band_matrices(seed, count, dim, w, scales=(3.0, 1e-3, 1e3))
    energies, vectors = band_ground_eigenpairs(bands)
    assert energies.shape == (count,) and vectors.shape == (count, dim)
    for a, e, v in zip(mats, energies, vectors):
        spectrum = np.linalg.eigvalsh(a)
        delta = TOL.eig_residual * dim * max(1.0, np.abs(spectrum).max())
        assert abs(e - spectrum[0]) <= delta
        assert np.linalg.norm(a @ v - e * v) <= delta
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 3), st.integers(2, 40), st.integers(0, 10_000))
def test_band_ground_eigenpairs_member_bytes_do_not_depend_on_the_stack(w, dim, seed):
    # Members of sizes 1e-3 to 1e3 leave the multisection and the iteration
    # after different numbers of steps; each must still come out the same.
    w = min(w, dim - 1)
    _, bands = _band_matrices(seed, 6, dim, w, scales=(1.0, 1e3, 1e-3, 5.0))
    alone = [band_ground_eigenpairs(b[None]) for b in bands]
    for members in ([0, 1, 2, 3, 4, 5], [5, 3], [2, 2, 0, 4, 1], [4]):
        energies, vectors = band_ground_eigenpairs(bands[members])
        for pos, i in enumerate(members):
            assert energies[pos].tobytes() == alone[i][0][0].tobytes()
            assert vectors[pos].tobytes() == alone[i][1][0].tobytes()


def test_band_ground_eigenpairs_brackets_once(monkeypatch):
    # delta comes from the Gershgorin bounds, so one multisection suffices.
    calls = []
    real = linalg._bracket_lowest

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_bracket_lowest", counting)
    _, bands = _band_matrices(2, 4, 30, 2, scales=(1.0, 1e3))
    band_ground_eigenpairs(bands)
    assert len(calls) == 1
    band_ground_eigenpairs(bands[:1])
    assert len(calls) == 2


def test_band_ground_eigenpairs_stack_beyond_one_iteration_chunk(monkeypatch):
    # A budget of 256 factors of dim 6 and w = 2 splits 300 matrices 256 + 44.
    dim, w, chunk = 6, 2, 256
    monkeypatch.setattr(linalg, "_ITERATION_BYTES", chunk * 16 * dim * (w + 1))
    sizes = []
    real = linalg._inverse_iteration

    def counting(band, shift, vectors):
        sizes.append(shift.size)
        return real(band, shift, vectors)

    monkeypatch.setattr(linalg, "_inverse_iteration", counting)
    count = chunk + 44
    _, bands = _band_matrices(5, count, dim, w, scales=(1.0, 0.5, 2.0))
    energies, vectors = band_ground_eigenpairs(bands)
    assert sizes == [chunk, count - chunk]
    for i in (0, 1, chunk - 1, chunk, count - 1):
        e, v = band_ground_eigenpairs(bands[i:i + 1])
        assert energies[i].tobytes() == e.tobytes() and vectors[i].tobytes() == v.tobytes()


@pytest.mark.parametrize("diag", [[0.5, 1.0, 0.5, 2.0, 0.5], [3.0, 3.0, 3.0]])
def test_band_ground_eigenpairs_degenerate_lowest_eigenvalue(diag):
    a = np.diag(np.array(diag, dtype=complex))
    for w in range(len(diag)):
        energies, vectors = band_ground_eigenpairs(lower_band(a, w)[None])
        v = vectors[0]
        assert energies[0] == pytest.approx(min(diag), abs=1e-14)
        assert np.linalg.norm(a @ v - energies[0] * v) <= 1e-14


def _patch_inverse_iteration(monkeypatch, mats, pick):
    """Make the band path hand back pick(eigenvalues, eigenvectors) of each matrix."""
    def fake(band, shift, vectors):
        energies, vectors[:] = zip(*(pick(*np.linalg.eigh(a)) for a in mats))
        resid = [np.linalg.norm(a @ v - e * v) for a, e, v in zip(mats, energies, vectors)]
        return np.array(energies), np.array(resid)

    monkeypatch.setattr(linalg, "_inverse_iteration", fake)


@pytest.mark.parametrize("w", [0, 1, 3])
def test_band_ground_eigenpairs_rejects_second_lowest_pair(monkeypatch, w):
    # A true eigenpair passes the residual: only the band Cholesky certificate
    # at E - delta can tell that it is not the lowest one.
    mats, bands = _band_matrices(3, 3, 24, w)
    _patch_inverse_iteration(monkeypatch, mats, lambda ws, u: (ws[1], u[:, 1]))
    with pytest.raises(NumericalError, match="not the smallest"):
        band_ground_eigenpairs(bands)


@pytest.mark.parametrize("w", [1, 3])
def test_band_ground_eigenpairs_rejects_perturbed_vector(monkeypatch, w):
    mats, bands = _band_matrices(3, 3, 24, w)

    def pick(ws, u):
        # 1e-3 of the next eigenvector, with the Rayleigh quotient of the mix.
        v = u[:, 0] + 1e-3 * u[:, 1]
        return (ws[0] + 1e-6 * ws[1]) / (1.0 + 1e-6), v / np.linalg.norm(v)

    _patch_inverse_iteration(monkeypatch, mats, pick)
    with pytest.raises(NumericalError, match="residual"):
        band_ground_eigenpairs(bands)


@pytest.mark.parametrize(
    "bad",
    [np.zeros((2, 3)), np.zeros((0, 1, 3)), np.zeros((1, 4, 3)), np.zeros((1, 1, 0)),
     np.full((1, 2, 3), np.nan)],
)
def test_band_ground_eigenpairs_rejects_bad_stacks(bad):
    with pytest.raises(ValueError):
        band_ground_eigenpairs(bad)

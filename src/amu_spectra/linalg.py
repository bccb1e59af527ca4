"""Dense and band complex linear algebra used everywhere else.

Thin, contract-checked wrappers: a Hermitian matrix type that stores an
exactly symmetrized array, a full eigensolver with residual and unitarity
verification, a lowest-eigenpair solver that verifies only the pair it
returns (its residual, and a Cholesky factorization showing that no
eigenvalue lies below it), the operator norm of a square or rectangular
matrix via the top eigenvalue of its Gram matrix (also for stacks of
equal-shaped matrices, and for several stacks in one call, whose Gram
matrices of equal size share one ``eigvalsh`` call: this is how the scan
takes its norms), and an orthonormalization by one Householder QR.

For Hermitian band matrices, ``band_ground_eigenpairs`` finds and certifies
the lowest eigenpairs of a whole stack without a dense matrix. Whether a
shift lies below the spectrum is decided, vectorised over the stack, by
the signs of the LDL† pivots for tridiagonal and diagonal matrices (the
Sturm-count test of Barth, Martin & Wilkinson, Numer. Math. 9, 1967) and
by a band Cholesky factorization (LAPACK xPBTRF's recurrence, O(dim w^2)
per factor) for wider bands. One multisection on that test brackets the
lowest eigenvalue from the Gershgorin bounds, inverse iteration with the
band Cholesky factor at the bracket's lower end gives the vector, in
stacks as large as ``_ITERATION_BYTES`` of factors allow, and each pair
passes the same two certificates as ``ground_eigenpair``, with delta
scaled by the Gershgorin bound on the spectral radius.
"""
from __future__ import annotations

import itertools

import numpy as np

from .constants import TOL
from .errors import NearDependence, NumericalError

__all__ = [
    "HermitianMatrix",
    "as_matrix",
    "eig_hermitian",
    "ground_eigenpair",
    "half_bandwidth",
    "lower_band",
    "band_ground_eigenpairs",
    "operator_norm",
    "gram_schmidt",
]


def as_matrix(a, *, square: bool = True) -> np.ndarray:
    """Coerce ``a`` to a finite, non-empty complex128 2-d array, square unless told otherwise."""
    if isinstance(a, HermitianMatrix):
        return a.array
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or (square and arr.shape[0] != arr.shape[1]):
        kind = "square matrix" if square else "matrix"
        raise ValueError(f"expected a {kind}, got shape {arr.shape}")
    return _finite_nonempty(arr)


def _finite_nonempty(arr: np.ndarray) -> np.ndarray:
    if arr.size == 0:
        raise ValueError("empty matrices are not supported")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


class HermitianMatrix:
    """Square complex matrix with A == A† enforced at construction.

    The input may deviate from exact symmetry by at most
    ``TOL.hermitian_symmetry`` times max(1, s) per entry, s the largest real
    or imaginary part of an entry, since rounding grows with the entries;
    the stored array is the symmetrization (A + A†)/2 and is read-only.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        a = as_matrix(array)
        # A† laid out row-major once, so no pass below reads a transpose.
        adj = np.conjugate(a.T, order="C")
        # One comparison settles an exactly Hermitian input (asymmetry 0).
        if not np.array_equal(a, adj):
            # Near the float limit a - adj overflows; an infinite asymmetry still fails.
            with np.errstate(over="ignore", invalid="ignore"):
                asym = float(np.max(np.abs(a - adj)))
            tol = TOL.hermitian_symmetry
            # s is only read past the plain tolerance; real and imaginary
            # parts, unlike |a_ij|, cannot overflow.
            if asym > tol and asym > tol * max(np.abs(a.real).max(), np.abs(a.imag).max()):
                raise ValueError(
                    f"matrix is not Hermitian: max asymmetry {asym:.3e} "
                    f"exceeds {tol:.1e} * max(1, largest |Re| or |Im| of an entry)"
                )
        try:
            with np.errstate(over="raise"):
                sym = a + adj
        except FloatingPointError:
            # Halving first keeps entries near the float limit finite; only
            # inputs whose sum overflows take this path, so no other bits move.
            sym = a * 0.5 + adj * 0.5
        else:
            sym /= 2.0
        sym.setflags(write=False)
        self.array = sym

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix, contract-checked.

    Returns ``(w, u)`` as ``np.linalg.eigh`` does: eigenvalues in ascending
    order and matching orthonormal columns, both read-only.

    Raises NumericalError if the reconstruction residual exceeds
    ``TOL.eig_residual * dim * ||A||`` or the eigenvector matrix is not
    unitary within ``TOL.unitarity * dim``.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
    w, u = np.linalg.eigh(h.array)
    dim = h.dim
    scale = max(1.0, float(np.max(np.abs(w))))
    resid = float(np.linalg.norm(h.array @ u - u * w, ord="fro"))
    if resid > TOL.eig_residual * dim * scale:
        raise NumericalError(
            f"eigendecomposition residual {resid:.3e} exceeds "
            f"{TOL.eig_residual:.1e} * {dim} * {scale:.3e}"
        )
    orth = float(np.linalg.norm(u.conj().T @ u - np.eye(dim), ord="fro"))
    if orth > TOL.unitarity * dim:
        raise NumericalError(f"eigenvector matrix not unitary: {orth:.3e}")
    w.setflags(write=False)
    u.setflags(write=False)
    return w, u


def ground_eigenpair(a) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue E of a Hermitian matrix and a unit eigenvector v.

    Only the returned pair is verified, against the bound
    delta = ``TOL.eig_residual * dim * scale`` with scale the larger of 1 and
    the spectral radius: the residual ||A v - E v|| must be at most delta,
    so some eigenvalue lies within delta of E, and A - (E - delta) I must
    have a Cholesky factorization, so every eigenvalue exceeds E - delta.
    Together they pin the smallest eigenvalue to within delta of E.
    Raises NumericalError when either check fails. ``band_ground_eigenpairs``
    gives the same guarantee for a stack of band matrices without ``eigh``.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
    w, u = np.linalg.eigh(h.array)
    dim = h.dim
    energy = float(w[0])
    v = u[:, 0] / np.linalg.norm(u[:, 0])
    delta = TOL.eig_residual * dim * max(1.0, float(np.max(np.abs(w))))
    resid = float(np.linalg.norm(h.array @ v - energy * v))

    def factors(shifts):
        shifted = h.array.copy()
        shifted.flat[:: dim + 1] -= shifts[0]
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return np.zeros(1, dtype=bool)
        return np.ones(1, dtype=bool)

    _certify_lowest(np.array([energy]), np.array([resid]), np.array([delta]), factors)
    return energy, v


def _certify_lowest(energies, resid, delta, factors) -> None:
    """Raise NumericalError for the first pair (E_i, v_i) failing a ``ground_eigenpair`` check.

    ``resid`` holds the ||A_i v_i - E_i v_i|| and ``delta`` the bounds
    delta_i; ``factors`` maps the shifts E - delta to a mask of the
    A_i - (E_i - delta_i) I with a Cholesky factor.
    """
    for i in np.flatnonzero(~(resid <= delta)):
        raise NumericalError(
            f"lowest eigenpair residual {resid[i]:.3e} exceeds delta = {delta[i]:.3e}"
        )
    for i in np.flatnonzero(~factors(energies - delta)):
        raise NumericalError(
            f"eigenvalue {energies[i]:.6e} is not the smallest: A - ({energies[i]:.6e} - "
            f"{delta[i]:.3e}) I is not positive definite"
        )


def half_bandwidth(a) -> int:
    """Largest |i - j| over the nonzero entries a_ij of a square matrix; 0 if it is diagonal."""
    rows, cols = np.nonzero(as_matrix(a))
    return int(np.abs(rows - cols).max()) if rows.size else 0


def lower_band(a, width: int) -> np.ndarray:
    """The (width+1)×dim lower band B[k, j] = a[j + k, j] of a square matrix, zero past its end."""
    arr = as_matrix(a)
    band = np.zeros((width + 1, arr.shape[0]), dtype=np.complex128)
    for k in range(min(width + 1, arr.shape[0])):
        band[k, : arr.shape[0] - k] = np.diagonal(arr, -k)
    return band


# Trial shifts per multisection pass: each pass narrows a bracket 8-fold.
# Fewer shifts cost a single matrix more passes; more cost a large stack more data.
_SHIFTS_PER_PASS = 7
# A guard only: from a Gershgorin span down to delta / 4 takes about 13 passes.
_MAX_PASSES = 64
# Inverse iteration stops once the residual no longer halves in one step.
_MAX_ITERATIONS = 32
# Bytes of band Cholesky factors (16 * dim * (w + 1) per matrix) in inverse
# iteration at once; its vectors and compacted copies take about twice that
# again. Any eta-0.5 batch of the shift pair up to dim 256 is one stack.
_ITERATION_BYTES = 8 << 20


def band_ground_eigenpairs(bands) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpairs (E_i, v_i) of a stack of Hermitian band matrices A_i.

    ``bands`` is p×(w+1)×dim with bands[i, k, j] = A_i[j + k, j], the lower
    band (entries past the matrix are ignored, the diagonal's imaginary part
    too). Returns float64 energies (p,) and unit vectors (p, dim). No dense
    matrix is formed: every step is a sweep of LDL† pivots of A_i - s I
    (w <= 1), a band Cholesky factorization of it (LAPACK xPBTRF's column
    recurrence, O(dim w^2)) or a pair of band triangular solves, vectorised
    over the stack.

    1. The Gershgorin discs put every eigenvalue in [g_lo, g_hi], so
       scale = max(1, |g_lo|, |g_hi|) bounds the spectral radius, and
       delta = ``TOL.eig_residual * dim * scale`` is at least the delta of
       ``ground_eigenpair``.
    2. Multisection, seven shifts per pass, on "A_i - s I has a Cholesky
       factor" brackets the lowest eigenvalue from [g_lo - delta, smallest
       diagonal entry] to delta / 4. At w <= 1 the test reads only the
       signs of the LDL† pivots, which needs no square root and no factor.
    3. Inverse iteration with the band Cholesky factor at the bracket's
       lower end, from a fixed start vector, runs until the residual stops
       halving, on stacks of up to ``_ITERATION_BYTES`` of factors.
    4. Each pair must pass the two certificates of ``ground_eigenpair``:
       ||A v - E v|| <= delta, and A - (E - delta) I has a Cholesky factor,
       by the same test as step 2. NumericalError names the first pair
       that fails either.

    Unlike an iterative eigensolver, none of this slows down when the low
    end of the spectrum is crowded. Every operation acts element by element
    along the stack and every sum over a vector runs row by row in a fixed
    order, so a matrix gives the same bytes alone as inside any stack.
    """
    band = _stacked(bands)
    dim = band.shape[0]
    g_lo, g_hi = _gershgorin(band)
    delta = TOL.eig_residual * dim * np.maximum(1.0, np.maximum(np.abs(g_lo), np.abs(g_hi)))
    # lambda_min lies between g_lo and the smallest diagonal entry; the
    # margin delta keeps a factor at the lower end within reach of rounding.
    lo = _bracket_lowest(band, g_lo - delta, band[:, 0, 0].min(axis=0), delta / 4.0)
    p = lo.size
    energies, resid = np.empty(p), np.empty(p)
    vectors = np.empty((p, dim), dtype=np.complex128)
    chunk = max(1, _ITERATION_BYTES // (16 * dim * band.shape[2]))
    for start in range(0, p, chunk):
        part = slice(start, start + chunk)
        energies[part], resid[part] = _inverse_iteration(band[..., part], lo[part],
                                                         vectors[part])
    _certify_lowest(energies, resid, delta, lambda shifts: _factors(band, shifts[:, None])[:, 0])
    return energies, vectors


# In every kernel below a complex band or vector is a float array whose
# axis 1 holds (real, imaginary) and whose last axis is the stack, so each
# step of a recurrence is one call on both parts of every matrix. Complex
# dtypes are avoided: numpy may fuse their products differently in vector
# and scalar loops, which would tie a result to its neighbours in memory.


def _stacked(bands) -> np.ndarray:
    """Checked p×(w+1)×dim complex bands as the dim×2×(w+1)×p float view the kernels take."""
    bands = np.ascontiguousarray(bands, dtype=np.complex128)
    if bands.ndim != 3 or 0 in bands.shape or bands.shape[1] > bands.shape[2]:
        raise ValueError(f"expected a p×(w+1)×dim band stack with w < dim, got {bands.shape}")
    p, w1, dim = _finite_nonempty(bands).shape
    return bands.view(np.float64).reshape(p, w1, dim, 2).transpose(2, 3, 1, 0)


def _gershgorin(band):
    """Per matrix, bounds below and above the union of its Gershgorin discs.

    |Re| + |Im| stands in for each modulus: it bounds it, rounds exactly
    element by element, and does not overflow where the square would.
    """
    dim, _, w1, p = band.shape
    radius = np.zeros((dim, p))
    for k in range(1, w1):
        absb = np.abs(band[: dim - k, 0, k])
        absb += np.abs(band[: dim - k, 1, k])
        radius[k:] += absb
        radius[: dim - k] += absb
    diag = band[:, 0, 0]
    return (diag - radius).min(axis=0), (diag + radius).max(axis=0)


def _band_cholesky(band, shifts, keep: bool = False):
    """Band Cholesky factors L L† = A_i - s I of a stack, for every shift s of each A_i.

    ``band`` is dim×2×(w+1)×p; ``shifts`` is p×t. Returns ok (p×t, True
    where the factor exists) and, when ``keep``, the factor as
    dim×2×(w+1)×p×t with L[j + k, j] at [j, :, k]. Otherwise only the last
    w columns of each factor are held, which is all the recurrence reads:
    column j of L is column j of the matrix minus, over m = 1..w,
    L[j.., j - m] conj(L[j, j - m]), divided by the root of its pivot.
    """
    dim, _, w1, p = band.shape
    w = w1 - 1
    t = shifts.shape[1]
    cols = dim if keep else max(w, 1)
    fac = np.zeros((cols, 2, w1, p, t))
    col = np.empty((2, w1, p, t))
    # The smallest pivot so far; NaN, which the minimum keeps, once one is the root of a negative.
    least = np.full((p, t), np.inf)
    src = band[..., None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(dim):
            col[...] = src[j]
            col[0, 0] -= shifts
            for m in range(1, min(w, j) + 1):
                prev = fac[(j - m) % cols]
                x = prev[:, m:]
                # x conj(y), y = L[j, j - m]: (xr yr + xi yi, xi yr - xr yi).
                prod = x * prev[0, m]
                cross = x[::-1] * prev[1, m]
                prod[0] += cross[0]
                prod[1] -= cross[1]
                col[:, : w1 - m] -= prod
            out = fac[j % cols]
            root = np.sqrt(col[0, 0], out=out[0, 0])
            np.minimum(least, root, out=least)
            np.divide(col[:, 1:], root, out=out[:, 1:])
    return least > 0.0, (fac if keep else None)


def _factors(band, shifts):
    """Whether A_i - s I has a Cholesky factor (p×t), for every shift s of each A_i.

    ``band`` is dim×2×(w+1)×p and ``shifts`` p×t. Tridiagonal and diagonal
    stacks take ``_positive_pivots``, wider ones ``_band_cholesky``.
    """
    if band.shape[2] <= 2:
        return _positive_pivots(band, shifts)
    return _band_cholesky(band, shifts)[0]


def _positive_pivots(band, shifts):
    """Whether every LDL† pivot of A_i - s I is positive, for a stack with w <= 1.

    The pivots are d_0 = a_0 - s and d_j = a_j - s - |b_{j-1}|^2 / d_{j-1},
    with a the diagonal and b the subdiagonal; they are all positive exactly
    when the Cholesky factor exists (Barth, Martin & Wilkinson, Numer. Math.
    9, 1967). A zero pivot, or a NaN after one, counts as no factor. At
    w = 0 the pivots are the a_j - s, so the test is min_j a_j > s.
    """
    dim, _, w1, _ = band.shape
    diag = band[:, 0, 0, :, None]
    if w1 == 1:
        return diag.min(axis=0) > shifts
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b = band[: dim - 1, :, 1]
        bsq = b[:, 0] * b[:, 0]
        bsq += b[:, 1] * b[:, 1]
        bsq = bsq[:, :, None]
        d = diag[0] - shifts
        least = d.copy()
        q = np.empty_like(d)
        for j in range(1, dim):
            np.divide(bsq[j - 1], d, out=q)
            np.subtract(diag[j], shifts, out=d)
            d -= q
            # After a zero pivot least stays at 0, or at the NaN of 0/0.
            np.minimum(least, d, out=least)
    return least > 0.0


def _bracket_lowest(band, lo, hi, width):
    """Multisection for the lowest eigenvalue of each matrix of a stack.

    From lo <= lambda_min <= hi, returns lo with lambda_min - lo <= width:
    lo only rises to shifts whose factor exists, hi only falls to shifts
    whose factor does not. A matrix leaves the passes once its bracket is
    narrow enough.
    """
    lo, hi = lo.copy(), hi.copy()
    steps = np.arange(1, _SHIFTS_PER_PASS + 1) / (_SHIFTS_PER_PASS + 1)
    for _ in range(_MAX_PASSES):
        active = np.flatnonzero(hi - lo > width)
        if active.size == 0:
            return lo
        part = band if active.size == lo.size else band[..., active]
        grid = np.empty((active.size, _SHIFTS_PER_PASS + 2))
        grid[:, 0] = lo[active]
        grid[:, 1:-1] = lo[active, None] + (hi - lo)[active, None] * steps
        grid[:, -1] = hi[active]
        ok = _factors(part, grid[:, 1:-1])
        # The highest shift that factors; a fuzzy failure below it, within
        # rounding of the eigenvalue, is ignored.
        last = np.where(ok.any(axis=1), _SHIFTS_PER_PASS - np.argmax(ok[:, ::-1], axis=1), 0)
        rows = np.arange(active.size)
        lo[active] = grid[rows, last]
        hi[active] = grid[rows, last + 1]
    raise NumericalError(f"multisection left a bracket wider than {float(width.max()):.3e}")


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0, one row after another, so each column's sum depends on that column alone."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """||x_i||^2 of each vector of a dim×2×p stack."""
    sq = x[:, 0] * x[:, 0]
    sq += x[:, 1] * x[:, 1]
    return _column_sums(sq)


def _start_vectors(dim: int, p: int) -> np.ndarray:
    """p copies of a fixed unit vector with no symmetry (Weyl sequences in both parts)."""
    j = np.arange(dim, dtype=np.float64)
    x = np.empty((dim, 2, p))
    x[:, 0] = (np.modf(j * 0.6180339887498949 + 0.25)[0] - 0.5)[:, None]
    x[:, 1] = (np.modf(j * 0.41421356237309515 + 0.75)[0] - 0.5)[:, None]
    x /= np.sqrt(_sq_norms(x))
    return x


def _band_matvec(band, x):
    """A x for Hermitian band matrices (dim×2×(w+1)×p) and vectors (dim×2×p)."""
    dim, _, w1, p = band.shape
    y = band[:, 0, 0, None] * x
    term = np.empty((dim, p))
    for k in range(1, w1):
        br, bi, t = band[: dim - k, 0, k], band[: dim - k, 1, k], term[: dim - k]
        lo, hi = x[: dim - k], x[k:]
        # Row j + k gains A[j + k, j] x_j = (br xr - bi xi, br xi + bi xr), and
        # row j gains conj(A[j + k, j]) x_{j + k} = (br xr + bi xi, br xi - bi xr).
        for out, a, b, sign in ((y[k:, 0], lo[:, 0], lo[:, 1], -1.0),
                                (y[k:, 1], lo[:, 1], lo[:, 0], 1.0),
                                (y[: dim - k, 0], hi[:, 0], hi[:, 1], 1.0),
                                (y[: dim - k, 1], hi[:, 1], hi[:, 0], -1.0)):
            out += np.multiply(br, a, out=t)
            np.multiply(bi, b, out=t)
            if sign > 0:
                out += t
            else:
                out -= t
    return y


def _band_solve(fac, x) -> None:
    """Overwrite x (dim×2×p) with (L L†)^-1 x by the two band triangular solves."""
    dim, _, w1, _ = fac.shape
    for j in range(dim):  # L y = x: y_j -= L[j, j - m] y_{j - m}
        for m in range(1, min(w1 - 1, j) + 1):
            c = fac[j - m, :, m]
            prod = c[0] * x[j - m]
            cross = c[1] * x[j - m, ::-1]
            prod[0] -= cross[0]
            prod[1] += cross[1]
            x[j] -= prod
        x[j] /= fac[j, 0, 0]
    for j in range(dim - 1, -1, -1):  # L† x = y: x_j -= conj(L[j + k, j]) x_{j + k}
        for k in range(1, min(w1 - 1, dim - 1 - j) + 1):
            c = fac[j, :, k]
            prod = c[0] * x[j + k]
            cross = c[1] * x[j + k, ::-1]
            prod[0] += cross[0]
            prod[1] -= cross[1]
            x[j] -= prod
        x[j] /= fac[j, 0, 0]


def _inverse_iteration(band, shift, vectors):
    """Inverse iteration with the band Cholesky factor of A_i - shift_i I.

    Writes the unit vectors into ``vectors`` (p×dim) and returns per matrix
    the Rayleigh quotient E and the residual ||A v - E v||. A matrix stops,
    and its pair is frozen, once its residual fails to halve in one step.
    """
    dim, _, _, p = band.shape
    ok, fac = _band_cholesky(band, shift[:, None], keep=True)
    for i in np.flatnonzero(~ok[:, 0]):
        raise NumericalError(f"no band Cholesky factor at the bracket's lower end {shift[i]:.6e}")
    fac = fac[..., 0]
    energies, resid = np.empty(p), np.empty(p)
    x = _start_vectors(dim, p)
    index = np.arange(p)  # which matrix each column of x belongs to
    live = np.ones(p, dtype=bool)
    prev = np.full(p, np.inf)
    for it in range(_MAX_ITERATIONS):
        _band_solve(fac, x)
        x /= np.sqrt(_sq_norms(x))
        ax = _band_matvec(band, x)
        e = x[:, 0] * ax[:, 0]
        e += x[:, 1] * ax[:, 1]
        e = _column_sums(e)
        ax -= e * x
        r = np.sqrt(_sq_norms(ax))
        del ax
        done = live & (~(r < 0.5 * prev) | (it == _MAX_ITERATIONS - 1))
        idx = index[done]
        energies[idx], resid[idx] = e[done], r[done]
        vectors.real[idx] = x[:, 0, done].T
        vectors.imag[idx] = x[:, 1, done].T
        live &= ~done
        prev = r
        if not live.any():
            break
        # Frozen columns ride along until they are half of them: dropping
        # them copies the band and the factor.
        if 2 * live.sum() <= live.size:
            x, band, fac = x[..., live], band[..., live], fac[..., live]
            index, prev, live = index[live], prev[live], live[live]
    return energies, resid


def operator_norm(a, *more):
    """Largest singular value of a finite, non-empty m×k matrix, or of each in a p×m×k stack.

    Computed as the square root of the top eigenvalue of the Gram matrix on
    the smaller side: A†A (k×k) when m >= k, otherwise AA† (m×m). A matrix
    gives a float, a stack a float64 array of its p norms. Given several
    arguments, returns a tuple with, for each, what the call on it alone
    returns; their Gram matrices of equal size are written into one buffer
    and share one ``eigvalsh`` call, which is how the scan gets calls large
    enough for numpy to release the GIL. Every norm equals bit for bit the
    norm of its matrix passed alone, so neither stacking nor grouping
    changes an answer. A nonzero matrix whose Gram trace is not finite or
    outside [2^-500, 2^500] is scaled by a power of two (``_gram_stack``).
    """
    args = (a, *more)
    stacks = [
        _finite_nonempty(np.asarray(x, dtype=np.complex128)) if np.ndim(x) == 3
        else as_matrix(x, square=False)[None]
        for x in args
    ]
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(stacks):
        groups.setdefault(min(s.shape[1:]), []).append(i)
    norms = [None] * len(args)
    for size, members in groups.items():
        for i, nrm in zip(members, _gram_norms([stacks[i] for i in members], size)):
            norms[i] = nrm if np.ndim(args[i]) == 3 else float(nrm[0])
    return tuple(norms) if more else norms[0]


def _gram_norms(stacks: list[np.ndarray], size: int) -> list[np.ndarray]:
    """The norms of each stack in ``stacks``, whose Gram matrices are all size×size."""
    gram, exp = _gram_stack(stacks, size)
    with np.errstate(over="ignore"):
        norms = np.ldexp(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)), exp)
    return np.split(norms, list(itertools.accumulate(len(s) for s in stacks[:-1])))


def _gram_frobenius(stack: np.ndarray) -> np.ndarray:
    """An upper bound on the squared norm of each matrix of a non-empty p×m×k stack.

    ||A||^2 = lam_max(G) <= ||G||_F for its Gram matrix G, which is returned
    without an eigensolve. G is scaled as in ``operator_norm``, so the bound
    overflows or underflows only where ||A||^2 itself does.
    """
    gram, exp = _gram_stack([stack], min(stack.shape[1:]))
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt((gram.real**2 + gram.imag**2).sum(axis=(1, 2))), 2 * exp)


# Gram traces above this, or nonzero below its inverse, are rescaled before
# they are squared again; ``search.amu_batch`` refuses points whose |lambda|^2,
# Q(lambda)'s diagonal shift, lies above it.
_SQUARE_RANGE = 2.0**500


def _gram_stack(stacks: list[np.ndarray], size: int) -> tuple[np.ndarray, np.ndarray]:
    """The size×size Gram matrix on the smaller side of every matrix of ``stacks``, in one buffer.

    Returns it and per matrix the e for which its entry is the Gram matrix of
    the matrix over 2^e: 0, unless the matrix is nonzero and its Gram trace,
    which bounds each |g_ij| <= sqrt(g_ii g_jj), is not finite or not in
    [2^-500, 2^500]; then the exponent of its largest real or imaginary part,
    at least -1020 so that 2^-e is finite.
    """
    bounds = [0, *itertools.accumulate(len(s) for s in stacks)]
    gram = np.empty((bounds[-1], size, size), dtype=np.complex128)
    exp = np.zeros(bounds[-1], dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, lo, hi in zip(stacks, bounds, bounds[1:]):
            _gram(s, out=gram[lo:hi])
        trace = np.trace(gram, axis1=1, axis2=2).real
        outside = ~((trace >= 1.0 / _SQUARE_RANGE) & (trace <= _SQUARE_RANGE))
    for s, lo, hi in zip(stacks, bounds, bounds[1:]):
        if (pick := np.flatnonzero(outside[lo:hi])).size:
            top = np.abs(s[pick].view(np.float64)).max(axis=(1, 2))  # real and imaginary parts
            if (pick := pick[top > 0.0]).size:
                exp[lo + pick] = np.maximum(np.frexp(top[top > 0.0])[1], -1020)
                gram[lo + pick] = _gram(s[pick] * np.ldexp(1.0, -exp[lo + pick])[:, None, None])
    return gram, exp


def _gram(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A†A for each matrix A of a p×m×k stack when m >= k, otherwise AA†."""
    if stack.shape[1] >= stack.shape[2]:
        return np.matmul(stack.conj().swapaxes(1, 2), stack, out=out)
    return np.matmul(stack, stack.conj().swapaxes(1, 2), out=out)


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize ``vectors`` in order, as Gram-Schmidt would, by one QR.

    Inputs must be linearly independent: the smallest eigenvalue of the
    Gram matrix of the normalized inputs must be at least
    ``TOL.gram_independence``, otherwise NearDependence is raised naming the
    first vector whose orthogonal residual |R_kk| falls below the square
    root of that tolerance, or if none does min(len(diag R), count - 1), so
    five vectors in C^3 name vector 3. Past that check, output k is column
    k of the Householder QR of the normalized inputs times the phase of
    R_kk: the Gram-Schmidt vector, with orthogonality at unit roundoff, so
    the span of every prefix is preserved.
    """
    vs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not vs:
        raise ValueError("need at least one vector")
    length = vs[0].shape[0]
    if any(v.shape[0] != length for v in vs):
        raise ValueError("vectors have mixed lengths")
    normed = []
    for i, v in enumerate(vs):
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise NearDependence(i, f"vector {i} is zero")
        normed.append(v / nrm)

    basis = np.stack(normed, axis=1)
    smallest = float(np.linalg.eigvalsh(basis.conj().T @ basis)[0])
    q, r = np.linalg.qr(basis)
    diag = np.diagonal(r)
    if smallest < TOL.gram_independence:
        small = np.flatnonzero(np.abs(diag) < np.sqrt(TOL.gram_independence))
        index = int(small[0]) if small.size else min(diag.size, len(vs) - 1)
        raise NearDependence(
            index,
            f"vector {index} is linearly dependent on its predecessors "
            f"(smallest Gram eigenvalue {smallest:.3e})",
        )
    return list((q * (diag / np.abs(diag))).T.copy())

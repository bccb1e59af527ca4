"""Searching for AMU states: localization, ground states, superposition.

A target point lambda is certified through the ground state of the
localization operator Q(lambda) = sum_j (T_j - lambda_j I)^2: its energy
dominates the total variance of the state, so a small ground energy
certifies small standard deviations. Q is built as the pencil
S - 2 sum_j lambda_j T_j + |lambda|^2 I from the tuple's cached
S = sum_j T_j^2. ``amu_batch`` is the one certification routine;
``amu_at`` is its one-point form, with the same bytes per point. Its
lowest pairs come from one of two solvers, chosen per tuple by
``uses_band_path`` from its half-bandwidth and dimension:

- dense: one ``eigh`` per point, checked by ``linalg.ground_eigenpair``;
- band (the shift pair's Q is tridiagonal): only the bands of Q are built,
  and ``linalg.band_ground_eigenpairs`` certifies every point of a batch
  at once with band Cholesky factorizations, no ``eigh`` and no dense Q.

Either way only the lowest pair is verified, and the state's global phase
is fixed (largest-magnitude entry real and positive) rather than left to
the solver. The certificate measures the state against each T_j, so the
pencil's cancellation never reaches its report; the ground energy
sum_j ||(T_j - lambda_j) v||^2 is sum_j var_j + (exp_j - lambda_j)^2 there.

Superposition mixes orthonormalized certified states toward a convex
combination of their expectation points. The weights are the nearest point
of the points' convex hull to the target, found exactly by Wolfe's
algorithm, whose stopping test is a certificate of optimality; they sit on
at most n+1 points. The plan also bounds, for any phases of the sources,
how far the cross terms of the mix move its expectations.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .errors import DimensionMismatch, HullDistanceError, NumericalError
from .linalg import (_SQUARE_RANGE, HermitianMatrix, band_ground_eigenpairs, gram_schmidt,
                     ground_eigenpair, lower_band)
from .observables import (
    AmuCertificate,
    MeasurementReport,
    OperatorTuple,
    VectorState,
    amu_check,
    as_point,
    measure,
)

# Wolfe's tolerances for ``solve_simplex_lsq``.
# The optimal corral's gap computes to ~1e-15 max_k |q_k|^2; 1e-13 is rounding.
_WOLFE_OPTIMALITY = 1e-13
# Edges conditioned worse than 1e12 are dependent: the n+1 bounds need full rank.
_WOLFE_INDEPENDENCE = 1e-12
# A line step leaves ~eps |affine weight| where a weight should reach exactly 0.
_WOLFE_ZERO = 1e-12

# Where the band path starts to pay (see ``uses_band_path``).
_BAND_MIN_DIM = 48
_BAND_DIM_PER_WIDTH = 20

__all__ = [
    "SuperpositionPlan",
    "localization_operator",
    "uses_band_path",
    "amu_at",
    "amu_batch",
    "solve_simplex_lsq",
    "superpose",
]


def localization_operator(tup: OperatorTuple, lam) -> HermitianMatrix:
    """Q(lambda) = sum_j (T_j - lambda_j I)^2, positive semidefinite.

    Built as the pencil S - 2 sum_j lambda_j T_j + |lambda|^2 I, where
    S = sum_j T_j^2 is built once per tuple (``OperatorTuple.square_sum``).
    S and every T_j are exactly Hermitian, and so is each step of the sum,
    so Q is exactly Hermitian by construction.
    """
    lam = as_point(lam, tup.n)
    q = tup.square_sum.array.copy()
    for op, l in zip(tup.ops, lam):
        q -= (2.0 * l) * op.array
    q.flat[:: tup.dim + 1] += sum(l * l for l in lam)
    return HermitianMatrix(q)


def uses_band_path(tup: OperatorTuple) -> bool:
    """Whether ground states of ``tup`` come from the band solver instead of a dense ``eigh``.

    With w = ``tup.half_bandwidth`` (the largest over every T_j and S, so
    over every Q(lambda)), the rule is dim >= 48 and dim >= 20 (w + 1). It
    follows the measured per-point crossover of a batch of 128 points on
    random band tuples (one BLAS thread): the band path wins from dim 48 at
    w <= 2, from dim 96 at w = 4 and from dim 192 at w = 8, and loses below
    dim 32 at every w. A single point costs the band path more than a batch
    does per point, and at shift dim 192 more than one ``eigh`` (the README
    quotes the measurement); the rule keeps one path per tuple so a point's
    bytes never depend on how many points are certified with it.
    """
    return tup.dim >= max(_BAND_MIN_DIM, _BAND_DIM_PER_WIDTH * (tup.half_bandwidth + 1))


def _ground_states(tup: OperatorTuple, lams: list) -> list[VectorState]:
    """Ground states of Q(lambda) at each point of ``lams``, phase fixed.

    The one place that chooses a solver. Dense tuples get one
    ``ground_eigenpair`` per point. On the band path the lower bands of Q
    are built from those of S and the T_j in real arithmetic, element by
    element, and one ``band_ground_eigenpairs`` call solves every point, so
    a point's bytes do not depend on the other points.
    """
    if not (lams and uses_band_path(tup)):
        return [_ground_vector(*ground_eigenpair(localization_operator(tup, lam)))
                for lam in lams]
    lams = np.array(lams)
    w = tup.half_bandwidth
    bands = np.repeat(lower_band(tup.square_sum, w)[None], lams.shape[0], axis=0)
    for j, op in enumerate(tup.ops):
        band = lower_band(op, w)
        two_l = (2.0 * lams[:, j])[:, None, None]
        bands.real -= two_l * band.real
        bands.imag -= two_l * band.imag
    bands.real[:, 0] += sum(lams[:, j] * lams[:, j] for j in range(tup.n))[:, None]
    return [_ground_vector(lowest, v) for lowest, v in zip(*band_ground_eigenpairs(bands))]


def _ground_vector(lowest: float, v: np.ndarray) -> VectorState:
    """The state of a verified lowest pair of Q, phase fixed; Q must not be negative."""
    if lowest < TOL.psd_floor:
        raise NumericalError(f"localization operator has eigenvalue {lowest:.3e} < 0")
    return VectorState.normalized(_canonical_phase(v))


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """``v`` rotated so that its largest-magnitude entry is real and positive.

    Ties go to the lowest index. The rotation is done in real arithmetic, so
    inputs that differ by a factor of -1 or +-i give bit-identical outputs.
    """
    k = int(np.argmax(np.abs(v)))
    r = float(abs(v[k]))
    c, s = v[k].real / r, -v[k].imag / r
    out = np.empty_like(v)
    out.real = v.real * c - v.imag * s
    out.imag = v.real * s + v.imag * c
    out[k] = r
    return out


def _solvable_point(p, n: int) -> tuple[float, ...]:
    """``p`` as a point of R^n (``as_point``), refused when Q(p) cannot be solved.

    A point whose |lambda|^2, the diagonal shift of Q(lambda), lies above
    2^500 raises ValueError naming it: past that the solvers' squares leave
    the float range (points beyond about 1.8e75).
    """
    lam = as_point(p, n)
    if sum(l * l for l in lam) > _SQUARE_RANGE:
        raise ValueError(f"lambda {lam} lies too far out: |lambda|^2 is above 2^500, "
                         "past which Q(lambda) cannot be solved in floating point")
    return lam


def amu_at(tup: OperatorTuple, lam, sigma: float, eps: float) -> AmuCertificate:
    """AMU certificate of the localization ground state at ``lam``; one point of ``amu_batch``."""
    return amu_batch(tup, [lam], sigma, eps)[0]


def amu_batch(tup: OperatorTuple, points, sigma: float, eps: float) -> list[AmuCertificate]:
    """AMU certificates of the localization ground states at ``points``.

    The one certification routine: one verified lowest eigenpair of Q per
    point (a single band solve for all of them where ``uses_band_path``
    holds), then ``amu_check`` of that state at (lambda, sigma, eps). A
    point's certificate is bit for bit the same alone as in any batch.

    Before any solve, a point too far out for Q(lambda) to be solved
    raises ValueError naming it (``_solvable_point``).
    """
    lams = [_solvable_point(p, tup.n) for p in points]
    states = _ground_states(tup, lams)
    return [amu_check(tup, state, lam, sigma, eps) for state, lam in zip(states, lams)]


def solve_simplex_lsq(points: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||target - alpha @ points|| over the probability simplex.

    Wolfe's nearest-point algorithm (P. Wolfe, "Finding the nearest point in
    a polytope", Math. Programming 11, 1976) on q_k = points_k - target. Its
    corral is an affinely independent set of at most n+1 points holding x.
    Each major cycle adds the point minimizing <q_k, x> (lowest index on
    ties); minor cycles step toward the corral's affine least-norm point,
    dropping points whose weight reaches 0. It returns only when Wolfe's
    test holds, |x|^2 - min_k <q_k, x> <= 1e-13 max_k |q_k|^2, a certificate:
    x is within the square root of that gap of the true nearest point. At
    most n+1 weights are nonzero. Returns (alpha, residual = |x|).

    Raises DimensionMismatch when the target's coordinate count differs from
    the points', ValueError for zero points or non-finite input, and
    NumericalError if the corral turns affinely dependent or the major
    cycles outnumber the corrals of at most n+1 points (|x| falls strictly
    each cycle, so in exact arithmetic no corral comes back).
    """
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p.reshape(-1, 1)
    t = np.asarray(target, dtype=float).reshape(-1)
    if p.shape[1] != t.shape[0]:
        raise DimensionMismatch(
            f"points have {p.shape[1]} coordinates, target has {t.shape[0]}"
        )
    m, n = p.shape
    if m == 0:
        raise ValueError("need at least one point")
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise ValueError("points and target must be finite")

    q = p - t
    sq = (q * q).sum(axis=1)
    scale = float(sq.max())
    corral = np.array([int(np.argmin(sq))])
    lam = np.ones(1)
    x = q[corral[0]]
    for _ in range(sum(math.comb(m, k) for k in range(1, min(m, n + 1) + 1))):
        dots = q @ x
        j = int(np.argmin(dots))
        if float(x @ x) - dots[j] <= _WOLFE_OPTIMALITY * scale:
            alpha = np.zeros(m)
            alpha[corral] = lam
            return alpha, float(np.sqrt(x @ x))
        corral = np.append(corral, j)
        lam = np.append(lam, 0.0)
        while True:
            # Affine least-norm weights, by least squares over the edges from
            # the first corral point, so no Gram matrix squares their condition.
            edges = (q[corral[1:]] - q[corral[0]]).T
            a, _, rank, _ = np.linalg.lstsq(edges, -q[corral[0]], rcond=_WOLFE_INDEPENDENCE)
            if rank < edges.shape[1]:
                raise NumericalError(f"{corral.size} corral points are affinely dependent")
            affine = np.append(1.0 - a.sum(), a)
            if affine.min() >= 0.0:
                lam = affine
                break
            neg = np.flatnonzero(affine < 0.0)
            ratios = lam[neg] / (lam[neg] - affine[neg])
            theta = float(ratios.min())
            lam = (1.0 - theta) * lam + theta * affine
            lam[neg[np.argmin(ratios)]] = 0.0  # the blocking point leaves: minor cycles end
            keep = lam > _WOLFE_ZERO
            corral, lam = corral[keep], lam[keep] / lam[keep].sum()
        x = lam @ q[corral]
    raise NumericalError("Wolfe's algorithm revisited a corral; no certified weights")


@dataclass(frozen=True)
class SuperpositionPlan:
    """Weighted superposition of certified states aimed at a target point.

    ``state`` is sum_k sqrt(weights_k) v_k over the orthonormalized source
    states ``states``, whose expectation points are ``source_points``;
    ``achieved_distance`` is ||target - exp(state)||_2. ``cross_bound`` is,
    per axis j, 2 sum_{k<l} sqrt(w_k w_l) min(sd_j(v_k), sd_j(v_l)): a bound
    on |exp_j(state) - sum_k w_k source_points_kj| that holds whatever global
    phase each source carries, since |<v_k, T_j v_l>| <= sd_j(v_l) for
    orthonormal v_k, v_l.
    """

    target: tuple[float, ...]
    weights: np.ndarray
    source_points: np.ndarray
    states: np.ndarray
    state: VectorState
    report: MeasurementReport
    achieved_distance: float
    cross_bound: tuple[float, ...]


def superpose(tup: OperatorTuple, certs, mu) -> SuperpositionPlan:
    """Aim a superposition of certified states at the expectation point ``mu``.

    The sources are orthonormalized by ``gram_schmidt`` (duplicates raise
    NearDependence) and measured again. The weights, nonzero on at most n+1
    sources, are the certified nearest-point weights of ``solve_simplex_lsq``
    over their expectation points; mu must lie within ``TOL.hull_membership``
    of their hull, otherwise HullDistanceError reports the distance.
    """
    certs = list(certs)
    mu_arr = np.array(as_point(mu, tup.n, "target"))
    for c in certs:
        if c.state.dim != tup.dim:
            raise DimensionMismatch("certificate state dim does not match tuple dim")

    vectors = gram_schmidt([c.state.vector for c in certs])
    reports = [measure(tup, VectorState(v)) for v in vectors]
    xi = np.array([r.exp for r in reports], dtype=float)
    sd = np.array([r.sd for r in reports], dtype=float)

    weights, residual = solve_simplex_lsq(xi, mu_arr)
    if residual > TOL.hull_membership:
        raise HullDistanceError(residual, TOL.hull_membership)

    basis = np.stack(vectors, axis=1)
    cross = np.zeros(tup.n)
    for k, l in itertools.combinations(range(len(vectors)), 2):
        cross += 2.0 * np.sqrt(weights[k] * weights[l]) * np.minimum(sd[k], sd[l])
    state = VectorState.normalized(basis @ np.sqrt(weights))
    report = measure(tup, state)
    achieved = float(np.linalg.norm(mu_arr - np.asarray(report.exp)))
    return SuperpositionPlan(
        target=tuple(float(x) for x in mu_arr),
        weights=weights,
        source_points=xi,
        states=basis,
        state=state,
        report=report,
        achieved_distance=achieved,
        cross_bound=tuple(float(c) for c in cross),
    )

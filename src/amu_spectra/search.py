"""Searching for AMU states: localization, ground states, superposition.

A target point lambda is certified through the ground state of the
localization operator Q(lambda) = sum_j (T_j - lambda_j I)^2: its energy
dominates the total variance of the state, so a small ground energy
certifies small standard deviations. Q is built as the pencil
S - 2 sum_j lambda_j T_j + |lambda|^2 I from the tuple's cached
S = sum_j T_j^2, so a point costs one ``eigh`` and nothing else of order
dim^3: ``linalg.ground_eigenpair`` verifies only the lowest pair, the
energy is summed as sum_j ||(T_j - lambda_j) v||^2 so the pencil's
cancellation never reaches it, and the state's global phase is fixed
(largest-magnitude entry real and positive) rather than left to LAPACK.

Superposition builds a state whose joint expectations hit a convex
combination of previously certified expectation points, with the weights
found by least squares over the probability simplex.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .errors import DimensionMismatch, HullDistanceError, NumericalError
from .linalg import HermitianMatrix, gram_schmidt, ground_eigenpair
from .observables import (
    AmuCertificate,
    MeasurementReport,
    OperatorTuple,
    VectorState,
    amu_check,
    as_point,
    measure,
)

# Iteration cap of the projected-gradient phase of ``solve_simplex_lsq``.
SIMPLEX_MAX_ITER = 20000

__all__ = [
    "LocalizationOperator",
    "SuperpositionPlan",
    "localization_operator",
    "ground_state",
    "amu_at",
    "project_simplex",
    "solve_simplex_lsq",
    "superpose",
]


@dataclass(frozen=True)
class LocalizationOperator:
    """Q(lambda) = sum_j (T_j - lambda_j I)^2, positive semidefinite."""

    lam: tuple[float, ...]
    matrix: HermitianMatrix


def localization_operator(tup: OperatorTuple, lam) -> LocalizationOperator:
    """Q(lambda) as the pencil S - 2 sum_j lambda_j T_j + |lambda|^2 I.

    S = sum_j T_j^2 is built once per tuple (``OperatorTuple.square_sum``).
    S and every T_j are exactly Hermitian, and so is each step of the sum,
    so Q is exactly Hermitian by construction.
    """
    lam = as_point(lam, tup.n)
    q = tup.square_sum.array.copy()
    for op, l in zip(tup.ops, lam):
        q -= (2.0 * l) * op.array
    q.flat[:: tup.dim + 1] += sum(l * l for l in lam)
    return LocalizationOperator(lam, HermitianMatrix(q))


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


def ground_state(tup: OperatorTuple, lam) -> tuple[VectorState, float]:
    """Lowest eigenpair of the localization operator at ``lam``.

    Returns (state, energy). The eigenvector comes from
    ``linalg.ground_eigenpair`` with its global phase fixed so that its
    largest-magnitude entry is real and positive. The energy is
    sum_j ||(T_j - lambda_j) v||^2, a sum of squares. It bounds the total
    variance of the state from above and the squared distance from lam to
    the joint numerical range from below.
    """
    loc = localization_operator(tup, lam)
    lowest, v = ground_eigenpair(loc.matrix)
    if lowest < TOL.psd_floor:
        raise NumericalError(f"localization operator has eigenvalue {lowest:.3e} < 0")
    state = VectorState.normalized(_canonical_phase(v))
    energy = 0.0
    for op, l in zip(tup.ops, loc.lam):
        r = op.array @ state.vector - l * state.vector
        energy += float(np.vdot(r, r).real)
    return state, energy


def amu_at(tup: OperatorTuple, lam, sigma: float, eps: float) -> AmuCertificate:
    """AMU certificate of the ground state of the localization operator at ``lam``.

    One Q(lambda), one verified lowest eigenpair, then ``amu_check`` of that
    state at (lam, sigma, eps).
    """
    state, _ = ground_state(tup, lam)
    return amu_check(tup, state, lam, sigma, eps)


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based, exact).

    Works on ``y - max(y)``: the simplex has sum 1, so shifting every entry
    by one constant leaves the projection unchanged, and after the shift the
    largest entry always passes the threshold test, however large ``y`` is.
    Raises ValueError unless ``y`` is a non-empty finite vector.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0 or not np.isfinite(y).all():
        raise ValueError("project_simplex needs a non-empty finite vector")
    y = y - y.max()
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, y.shape[0] + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(y - theta, 0.0)


def solve_simplex_lsq(points: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||target - alpha @ points|| over the probability simplex.

    Accelerated projected gradient, stopped when a step past iteration 50
    moves every weight by less than 1e-14, or after ``SIMPLEX_MAX_ITER``
    iterations. An active-set polish then solves the equality-constrained
    problem on the support (weights above 1e-10), dropping the most
    negative weight until the solution is feasible, and keeps it when it
    does not raise the objective by more than 1e-15. No optimality gap is
    certified. Returns (alpha, residual).

    Raises DimensionMismatch when the target's coordinate count differs from
    the points', and ValueError for zero points or non-finite input.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p.reshape(-1, 1)
    t = np.asarray(target, dtype=float).reshape(-1)
    if p.shape[1] != t.shape[0]:
        raise DimensionMismatch(
            f"points have {p.shape[1]} coordinates, target has {t.shape[0]}"
        )
    m = p.shape[0]
    if m == 0:
        raise ValueError("need at least one point")
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise ValueError("points and target must be finite")
    if m == 1:
        return np.array([1.0]), float(np.linalg.norm(p[0] - t))

    gram = p @ p.T
    lin = p @ t
    lipschitz = max(float(np.linalg.eigvalsh(gram)[-1]), 1e-30)

    def objective(alpha: np.ndarray) -> float:
        return float(np.linalg.norm(p.T @ alpha - t) ** 2)

    x = np.full(m, 1.0 / m)
    y = x.copy()
    momentum = 1.0
    for it in range(SIMPLEX_MAX_ITER):
        grad = gram @ y - lin
        x_new = project_simplex(y - grad / lipschitz)
        momentum_new = (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum)) / 2.0
        y = x_new + ((momentum - 1.0) / momentum_new) * (x_new - x)
        step = float(np.max(np.abs(x_new - x)))
        x = x_new
        momentum = momentum_new
        if it > 50 and step < 1e-14:
            break

    best = x
    best_obj = objective(best)
    support = best > 1e-10
    for _ in range(m):
        idxs = np.flatnonzero(support)
        if idxs.size == 0:
            break
        s = idxs.size
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = gram[np.ix_(idxs, idxs)]
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        rhs = np.concatenate([lin[idxs], [1.0]])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        a = sol[:s]
        if a.min() < -1e-12:
            support = support.copy()
            support[idxs[int(np.argmin(a))]] = False
            continue
        candidate = np.zeros(m)
        candidate[idxs] = np.maximum(a, 0.0)
        total = candidate.sum()
        if total <= 0:
            break
        candidate /= total
        if objective(candidate) <= best_obj + 1e-15:
            best = candidate
            best_obj = objective(candidate)
        break

    return best, float(np.sqrt(max(best_obj, 0.0)))


@dataclass(frozen=True)
class SuperpositionPlan:
    """Weighted superposition of certified states aimed at a target point.

    ``state`` is sum_k sqrt(weights_k) v_k over the (orthonormalized)
    source states; ``achieved_distance`` is ||target - exp(state)||_2.
    """

    target: tuple[float, ...]
    weights: np.ndarray
    source_points: np.ndarray
    states: np.ndarray
    state: VectorState
    report: MeasurementReport
    achieved_distance: float

    def to_json_dict(self) -> dict:
        return {
            "target": list(self.target),
            "weights": [float(w) for w in self.weights],
            "source_points": [[float(x) for x in row] for row in self.source_points],
            "exp": list(self.report.exp),
            "sd": list(self.report.sd),
            "achieved_distance": self.achieved_distance,
            "state": self.state.to_json_list(),
        }


def superpose(tup: OperatorTuple, certs, mu) -> SuperpositionPlan:
    """Aim a superposition of certified states at the expectation point ``mu``.

    The weights solve the simplex least-squares problem over the source
    expectation points; mu must lie within ``TOL.hull_membership`` of
    their convex hull, otherwise HullDistanceError reports the distance.
    Source states are reorthogonalized (and re-measured) when any pairwise
    overlap exceeds ``TOL.superpose_orthogonality``.
    """
    certs = list(certs)
    if not certs:
        raise ValueError("need at least one certificate")
    mu_arr = np.array(as_point(mu, tup.n, "target"))
    for c in certs:
        if c.state.dim != tup.dim:
            raise DimensionMismatch("certificate state dim does not match tuple dim")

    vectors = [c.state.vector for c in certs]
    xi = np.array([c.report.exp for c in certs], dtype=float)
    if len(vectors) > 1:
        basis = np.stack(vectors, axis=1)
        gram = basis.conj().T @ basis
        off = gram - np.diag(np.diagonal(gram))
        if float(np.max(np.abs(off))) > TOL.superpose_orthogonality:
            vectors = gram_schmidt(vectors)
            xi = np.array(
                [measure(tup, VectorState(v)).exp for v in vectors], dtype=float
            )

    weights, residual = solve_simplex_lsq(xi, mu_arr)
    if residual > TOL.hull_membership:
        raise HullDistanceError(residual, TOL.hull_membership)

    combo = np.zeros(tup.dim, dtype=np.complex128)
    for w, v in zip(weights, vectors):
        if w > 0:
            combo += np.sqrt(w) * v
    state = VectorState.normalized(combo)
    report = measure(tup, state)
    achieved = float(np.linalg.norm(mu_arr - np.asarray(report.exp)))
    return SuperpositionPlan(
        target=tuple(float(x) for x in mu_arr),
        weights=weights,
        source_points=xi,
        states=np.stack(vectors, axis=1),
        state=state,
        report=report,
        achieved_distance=achieved,
    )

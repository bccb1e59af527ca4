"""Searching for AMU states: localization, joint diagonalization, superposition.

The primary search route at a target point lambda is the ground state of
the localization operator Q(lambda) = sum_j (T_j - lambda_j I)^2: its
energy dominates the total variance of the state, so a small ground
energy certifies small standard deviations. The secondary route runs a
Jacobi-style approximate joint diagonalization and draws candidate states
from the clustered near-eigenvector subspaces; whichever candidate
achieves the smaller worst-case sd wins.

Superposition builds a state whose joint expectations hit a convex
combination of previously certified expectation points, with the weights
found by least squares over the probability simplex.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .errors import DimensionMismatch, HullDistanceError, NumericalError
from .linalg import HermitianMatrix, eig_hermitian, gram_schmidt
from .observables import (
    AmuCertificate,
    MeasurementReport,
    OperatorTuple,
    VectorState,
    amu_check,
    measure,
)

__all__ = [
    "LocalizationOperator",
    "DigitalDecomposition",
    "SuperpositionPlan",
    "localization_operator",
    "ground_state",
    "amu_at",
    "joint_diagonalize",
    "project_simplex",
    "solve_simplex_lsq",
    "superpose",
]


@dataclass(frozen=True)
class LocalizationOperator:
    """Q(lambda) = sum_j (T_j - lambda_j I)^2, positive semidefinite."""

    lam: tuple[float, ...]
    matrix: HermitianMatrix


def _as_lambda(tup: OperatorTuple, lam) -> tuple[float, ...]:
    arr = np.asarray(lam, dtype=float).reshape(-1)
    if arr.shape[0] != tup.n:
        raise DimensionMismatch(
            f"lambda has {arr.shape[0]} coordinates, tuple has n={tup.n}"
        )
    return tuple(float(x) for x in arr)


def localization_operator(tup: OperatorTuple, lam) -> LocalizationOperator:
    lam = _as_lambda(tup, lam)
    dim = tup.dim
    q = np.zeros((dim, dim), dtype=np.complex128)
    eye = np.eye(dim)
    for op, l in zip(tup.ops, lam):
        shifted = op.array - l * eye
        q += shifted @ shifted
    return LocalizationOperator(lam, HermitianMatrix(q))


def ground_state(tup: OperatorTuple, lam) -> tuple[VectorState, float]:
    """Lowest eigenpair of the localization operator at ``lam``.

    Returns (state, energy). The energy bounds the total variance of the
    state from above and the squared distance from lam to the joint
    numerical range from below.
    """
    loc = localization_operator(tup, lam)
    dec = eig_hermitian(loc.matrix)
    energy = float(dec.eigenvalues[0])
    if energy < TOL.psd_floor:
        raise NumericalError(f"localization operator has eigenvalue {energy:.3e} < 0")
    state = VectorState.normalized(dec.eigenvectors[:, 0])
    return state, max(energy, 0.0)


@dataclass(frozen=True)
class DigitalDecomposition:
    """Result of an approximate joint diagonalization.

    ``u`` is the accumulated unitary; ``diag_vectors`` stacks the rotated
    diagonals (row i is the n-vector of diagonal entries at index i);
    ``clusters`` partitions the indices by single linkage at the cluster
    radius, ordered by smallest member; ``cluster_points`` are the
    per-cluster means of the diagonal vectors; ``residual`` is the square
    root of the remaining off-diagonal energy.
    """

    u: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    cluster_points: np.ndarray
    diag_vectors: np.ndarray
    residual: float
    off_energy_history: tuple[float, ...]
    sweeps: int


def _off_energy(mats: list[np.ndarray]) -> float:
    """Sum of |a_pq|^2 over p != q and all observables, summed directly (exactly 0 if diagonal)."""
    total = 0.0
    for a in mats:
        off = a - np.diag(np.diagonal(a))
        total += float(np.vdot(off, off).real)
    return total


def _single_linkage(points: np.ndarray, radius: float) -> tuple[tuple[int, ...], ...]:
    m = points.shape[0]
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    r2 = radius * radius
    for i in range(m):
        for j in range(i + 1, m):
            if d2[i, j] <= r2:
                ri, rj = find(i), find(j)
                if ri != rj:
                    # Tie-break toward the lowest index root.
                    if rj < ri:
                        ri, rj = rj, ri
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    ordered = sorted(groups.values(), key=lambda g: g[0])
    return tuple(tuple(g) for g in ordered)


def joint_diagonalize(
    tup: OperatorTuple,
    max_sweeps: int = 60,
    tol: float = 1e-12,
    cluster_radius: float = 0.1,
) -> DigitalDecomposition:
    """Jacobi sweeps of joint complex rotations over index pairs.

    Each pair (p, q) gets the single unitary rotation that maximizes the
    combined diagonal energy of all observables at once (the rotation
    angles come from the top eigenvector of a 3x3 moment matrix of the
    pair entries). Sweeps stop when the off-diagonal energy improves by
    less than ``tol`` or ``max_sweeps`` is reached; the off-diagonal
    energy never increases.

    ``cluster_radius`` is the single-linkage radius for grouping the
    rotated diagonal n-vectors; callers working at resolution eta
    conventionally pass eta / 2.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dim = tup.dim
    mats = [op.array.copy() for op in tup.ops]
    u = np.eye(dim, dtype=np.complex128)
    history = [_off_energy(mats)]
    sweeps_done = 0
    for _ in range(max_sweeps):
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                g3 = np.zeros((3, 3))
                for a in mats:
                    z = a[p, q]
                    h = np.array([a[p, p].real - a[q, q].real, 2.0 * z.real, 2.0 * z.imag])
                    g3 += np.outer(h, h)
                vec = np.linalg.eigh(g3)[1][:, -1]
                if vec[0] < 0:
                    vec = -vec
                x, y, zc = float(vec[0]), float(vec[1]), float(vec[2])
                denom = np.sqrt(2.0 * (x + 1.0))
                if denom < 1e-12:
                    continue
                c = float(np.sqrt((x + 1.0) / 2.0))
                s = complex(y, -zc) / denom
                if abs(s) < 1e-14:
                    continue
                cs = np.conj(s)
                for a in mats:
                    rp = a[p, :].copy()
                    rq = a[q, :].copy()
                    a[p, :] = c * rp + cs * rq
                    a[q, :] = -s * rp + c * rq
                    cp = a[:, p].copy()
                    cq = a[:, q].copy()
                    a[:, p] = c * cp + s * cq
                    a[:, q] = -cs * cp + c * cq
                up = u[:, p].copy()
                uq = u[:, q].copy()
                u[:, p] = c * up + s * uq
                u[:, q] = -cs * up + c * uq
        sweeps_done += 1
        current = _off_energy(mats)
        previous = history[-1]
        if current > previous * (1.0 + 1e-6) + 1e-9:
            raise NumericalError(
                f"off-diagonal energy increased across a sweep: "
                f"{previous:.6e} -> {current:.6e}"
            )
        history.append(current)
        if previous - current < tol:
            break
    diag_vectors = np.stack([np.diagonal(a).real for a in mats], axis=1)
    clusters = _single_linkage(diag_vectors, float(cluster_radius))
    cluster_points = np.array([diag_vectors[list(c)].mean(axis=0) for c in clusters])
    return DigitalDecomposition(
        u=u,
        clusters=clusters,
        cluster_points=cluster_points,
        diag_vectors=diag_vectors,
        residual=float(np.sqrt(max(history[-1], 0.0))),
        off_energy_history=tuple(history),
        sweeps=sweeps_done,
    )


def amu_at(
    tup: OperatorTuple,
    lam,
    sigma: float,
    eps: float,
    decomposition: DigitalDecomposition | None = None,
) -> AmuCertificate:
    """Best AMU certificate at ``lam``: ground state vs cluster candidates.

    The ground state of the localization operator is always evaluated.
    When a digital decomposition is supplied, each cluster contributes the
    minimal-energy vector from its rotated subspace, and the certificate
    with the smallest worst-case sd is returned.
    """
    state, _ = ground_state(tup, lam)
    best = amu_check(tup, state, lam, sigma, eps)
    if decomposition is not None:
        if decomposition.u.shape[0] != tup.dim:
            raise DimensionMismatch("decomposition dim does not match tuple dim")
        qarr = localization_operator(tup, lam).matrix.array
        for cluster in decomposition.clusters:
            basis = decomposition.u[:, list(cluster)]
            small = basis.conj().T @ qarr @ basis
            small = (small + small.conj().T) / 2.0
            coeffs = np.linalg.eigh(small)[1][:, 0]
            candidate = VectorState.normalized(basis @ coeffs)
            cert = amu_check(tup, candidate, lam, sigma, eps)
            if cert.max_sd < best.max_sd:
                best = cert
    return best


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based, exact)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, y.shape[0] + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(y - theta, 0.0)


def solve_simplex_lsq(
    points: np.ndarray,
    target: np.ndarray,
    *,
    max_iter: int = 20000,
) -> tuple[np.ndarray, float]:
    """Minimize ||target - alpha @ points|| over the probability simplex.

    Accelerated projected gradient followed by an active-set polish that
    solves the equality-constrained problem on the detected support
    exactly. Desk-scale accuracy: the returned objective is within
    ``TOL.simplex_accuracy`` of optimal. Returns (alpha, residual).
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
    for it in range(max_iter):
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
    mu_arr = np.asarray(mu, dtype=float).reshape(-1)
    if mu_arr.shape[0] != tup.n:
        raise DimensionMismatch(f"target has {mu_arr.shape[0]} coordinates, tuple has n={tup.n}")
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

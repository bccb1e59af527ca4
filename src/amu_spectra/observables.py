"""Observable tuples, vector states, and measurement functionals.

An observable tuple is a finite family of Hermitian matrices on a common
space together with a declared norm bound M. States are unit vectors. The
measurement functionals are

    exp_T(v)  = <T v, v>
    var_T(v)  = <(T - exp I)^2 v, v>  =  ||(T - exp I) v||^2
    sd_T(v)   = sqrt(var_T(v))

and a state is an AMU member at level sigma when every sd is strictly
below sigma.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .errors import DimensionMismatch, NumericalError
from .linalg import HermitianMatrix, operator_norm

__all__ = [
    "VectorState",
    "OperatorTuple",
    "MeasurementReport",
    "AmuCertificate",
    "expectation",
    "variance_sd",
    "measure",
    "amu_check",
    "commutator_profile",
]


class VectorState:
    """Unit vector in C^dim (norm within ``TOL.unit_norm`` of 1)."""

    __slots__ = ("vector",)

    def __init__(self, vector):
        v = np.array(vector, dtype=np.complex128).reshape(-1)
        if v.shape[0] == 0:
            raise ValueError("empty state")
        if not np.all(np.isfinite(v)):
            raise ValueError("state has non-finite entries")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > TOL.unit_norm:
            raise ValueError(f"state norm {nrm:.15g} is not 1 within {TOL.unit_norm:.1e}")
        v.setflags(write=False)
        self.vector = v

    @classmethod
    def normalized(cls, vector) -> "VectorState":
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / nrm)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def to_json_list(self) -> list[float]:
        """Real and imaginary parts interleaved: [re_0, im_0, re_1, im_1, ...]."""
        return self.vector.view(np.float64).tolist()

    def __repr__(self) -> str:
        return f"VectorState(dim={self.dim})"


class OperatorTuple:
    """Hermitian observables on a common space with a norm bound.

    ``bound`` is the constant M with ||T_j|| <= M (checked with slack
    ``TOL.tuple_norm_slack``). It controls the grid range in scans.
    """

    __slots__ = ("ops", "bound")

    def __init__(self, ops, bound: float = 1.0):
        converted = tuple(
            op if isinstance(op, HermitianMatrix) else HermitianMatrix(op) for op in ops
        )
        if not converted:
            raise ValueError("need at least one observable")
        dims = {op.dim for op in converted}
        if len(dims) != 1:
            raise DimensionMismatch(
                f"observables have mixed dimensions {sorted(dims)}"
            )
        bound = float(bound)
        if bound <= 0:
            raise ValueError("bound must be positive")
        for j, op in enumerate(converted):
            nrm = operator_norm(op)
            if nrm > bound + TOL.tuple_norm_slack:
                raise ValueError(
                    f"observable {j} has norm {nrm:.9f}, above the bound {bound}"
                )
        self.ops = converted
        self.bound = bound

    @property
    def n(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    def arrays(self) -> list[np.ndarray]:
        return [op.array for op in self.ops]

    def __repr__(self) -> str:
        return f"OperatorTuple(n={self.n}, dim={self.dim}, bound={self.bound})"


@dataclass(frozen=True)
class MeasurementReport:
    """Per-observable expectations, variances, and standard deviations."""

    exp: tuple[float, ...]
    var: tuple[float, ...]
    sd: tuple[float, ...]

    @property
    def max_sd(self) -> float:
        return max(self.sd)


@dataclass(frozen=True)
class AmuCertificate:
    """Measurement of a state against a target point with AMU flags.

    ``amu_member`` is max_j sd_j < sigma (strict); ``expectation_close``
    is max_j |exp_j - lambda_j| < eps (strict).
    """

    lam: tuple[float, ...]
    state: VectorState
    report: MeasurementReport
    sigma: float
    eps: float
    amu_member: bool
    expectation_close: bool

    @property
    def max_sd(self) -> float:
        return self.report.max_sd

    @property
    def max_exp_error(self) -> float:
        return max(abs(e - l) for e, l in zip(self.report.exp, self.lam))

    def to_json_dict(self) -> dict:
        return {
            "lambda": [float(x) for x in self.lam],
            "sigma": self.sigma,
            "eps": self.eps,
            "amu_member": self.amu_member,
            "expectation_close": self.expectation_close,
            "exp": list(self.report.exp),
            "var": list(self.report.var),
            "sd": list(self.report.sd),
            "state": self.state.to_json_list(),
        }


def _check_dim(op: HermitianMatrix, state: VectorState) -> None:
    if op.dim != state.dim:
        raise DimensionMismatch(
            f"operator dim {op.dim} does not match state dim {state.dim}"
        )


def expectation(op: HermitianMatrix, state: VectorState) -> float:
    """<T v, v> for Hermitian T; the imaginary part must be noise-level."""
    _check_dim(op, state)
    val = complex(np.vdot(state.vector, op.array @ state.vector))
    if abs(val.imag) > TOL.imag_expectation:
        raise NumericalError(
            f"expectation has imaginary part {val.imag:.3e} for a Hermitian operator"
        )
    return float(val.real)


def variance_sd(op: HermitianMatrix, state: VectorState) -> tuple[float, float]:
    """Variance and standard deviation about the expectation.

    Computed along two algebraically equal paths, ||(T - e)v||^2 and
    <(T - e)^2 v, v>, which must agree within ``TOL.cross_check``.
    """
    e = expectation(op, state)
    shifted = op.array @ state.vector - e * state.vector
    var_direct = float(np.vdot(shifted, shifted).real)
    var_quad = float(np.vdot(state.vector, op.array @ shifted - e * shifted).real)
    if abs(var_direct - var_quad) > TOL.cross_check:
        raise NumericalError(
            f"variance paths disagree: {var_direct:.15e} vs {var_quad:.15e}"
        )
    var = var_direct
    if var < 0.0:
        if var < -TOL.variance_clamp:
            raise NumericalError(f"variance {var:.3e} is negative beyond clamp")
        var = 0.0
    return var, float(np.sqrt(var))


def measure(tup: OperatorTuple, state: VectorState) -> MeasurementReport:
    """Expectation, variance, and sd of ``state`` for every observable."""
    exps: list[float] = []
    vars_: list[float] = []
    sds: list[float] = []
    for op in tup.ops:
        e = expectation(op, state)
        v, s = variance_sd(op, state)
        exps.append(e)
        vars_.append(v)
        sds.append(s)
    return MeasurementReport(tuple(exps), tuple(vars_), tuple(sds))


def amu_check(
    tup: OperatorTuple,
    state: VectorState,
    lam,
    sigma: float,
    eps: float,
) -> AmuCertificate:
    """Measure ``state`` and certify AMU membership at level sigma.

    Both flags use strict inequalities; the certificate records the full
    measurement so callers can audit margins.
    """
    lam = tuple(float(x) for x in np.asarray(lam, dtype=float).reshape(-1))
    if len(lam) != tup.n:
        raise DimensionMismatch(f"lambda has {len(lam)} coordinates, tuple has n={tup.n}")
    if not (sigma > 0 and eps > 0):
        raise ValueError("sigma and eps must be positive")
    report = measure(tup, state)
    member = bool(max(report.sd) < sigma)
    close = bool(max(abs(e - l) for e, l in zip(report.exp, lam)) < eps)
    return AmuCertificate(lam, state, report, float(sigma), float(eps), member, close)


def commutator_profile(tup: OperatorTuple) -> np.ndarray:
    """Matrix of commutator norms ||T_i T_j - T_j T_i||, symmetric, zero diagonal."""
    n = tup.n
    arrs = tup.arrays()
    prof = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            nrm = operator_norm(arrs[i] @ arrs[j] - arrs[j] @ arrs[i])
            prof[i, j] = nrm
            prof[j, i] = nrm
    return prof

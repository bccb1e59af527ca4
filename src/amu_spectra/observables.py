"""Observable tuples, vector states, and measurement functionals.

An observable tuple is a finite family of Hermitian matrices on a common
space together with a declared norm bound M. States are unit vectors. The
measurement functionals are

    exp_T(v)  = <T v, v>
    var_T(v)  = <(T - exp I)^2 v, v>  =  ||(T - exp I) v||^2
    sd_T(v)   = sqrt(var_T(v))

and a state is an AMU member at level sigma when every sd is strictly
below sigma. ``commutator_profile`` gives the norm of each commutator
[T_i, T_j], which ``models gen`` records in a tuple file's meta.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .errors import DimensionMismatch, NumericalError
from .linalg import HermitianMatrix, half_bandwidth, operator_norm

__all__ = [
    "VectorState",
    "OperatorTuple",
    "MeasurementReport",
    "AmuCertificate",
    "as_point",
    "measure",
    "amu_check",
    "commutator_profile",
]


def as_point(values, n: int, name: str = "lambda") -> tuple[float, ...]:
    """Coordinates of a point in R^n as floats; ``name`` labels the errors.

    Raises DimensionMismatch when the count is not ``n`` and ValueError
    naming the first coordinate that is not finite.
    """
    point = tuple(float(x) for x in np.asarray(values, dtype=float).reshape(-1))
    if len(point) != n:
        raise DimensionMismatch(f"{name} has {len(point)} coordinates, tuple has n={n}")
    for i, x in enumerate(point):
        if not math.isfinite(x):
            raise ValueError(f"{name} has non-finite coordinate {i}: {x}")
    return point


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
    ``TOL.tuple_norm_slack``); it must be positive and finite. It controls
    the grid range in scans.
    """

    __slots__ = ("ops", "bound", "_square_sum", "_half_bandwidth")

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
        if not 0.0 < bound < np.inf:
            raise ValueError(f"bound must be positive and finite, got {bound}")
        for j, op in enumerate(converted):
            nrm = operator_norm(op)
            # Written so that a NaN norm fails the check too.
            if not nrm <= bound + TOL.tuple_norm_slack:
                raise ValueError(
                    f"observable {j} has norm {nrm:.9f}, not within the bound {bound}"
                )
        self.ops = converted
        self.bound = bound
        self._square_sum = None
        self._half_bandwidth = None

    @property
    def n(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    def arrays(self) -> list[np.ndarray]:
        return [op.array for op in self.ops]

    @property
    def square_sum(self) -> HermitianMatrix:
        """S = sum_j T_j^2, symmetrized, built on first use.

        Safe for concurrent readers: every thread computes the same value,
        so it does not matter which one stores it first.
        """
        got = self._square_sum
        if got is None:
            got = HermitianMatrix(sum(op.array @ op.array for op in self.ops))
            self._square_sum = got
        return got

    @property
    def half_bandwidth(self) -> int:
        """Largest half-bandwidth over every T_j and S, so that of every Q(lambda); cached like S."""
        got = self._half_bandwidth
        if got is None:
            got = max(half_bandwidth(a) for a in (*self.arrays(), self.square_sum.array))
            self._half_bandwidth = got
        return got

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


def _certificate_texts(certs):
    """The JSON text of each certificate's scalars, in ``AmuCertificate.to_json_dict`` order.

    Numbers are ``float.__repr__`` and flags ``true`` or ``false``, as
    ``write_json`` writes them. A certificate holding a value that is not
    finite, which JSON spells otherwise, raises TypeError, so its chunk is
    written value by value.
    """
    for cert in certs:
        report = cert.report
        values = (*cert.lam, cert.sigma, cert.eps, *report.exp, *report.var, *report.sd,
                  *cert.state.to_json_list())
        if not math.isfinite(sum(values)):
            raise TypeError("a certificate value is not finite")
        texts = tuple(map(float.__repr__, values))
        flags = tuple("true" if flag else "false"
                      for flag in (cert.amu_member, cert.expectation_close))
        k = len(cert.lam) + 2
        yield texts[:k] + flags + texts[k:]


def _check_dim(op: HermitianMatrix, state: VectorState) -> None:
    if op.dim != state.dim:
        raise DimensionMismatch(
            f"operator dim {op.dim} does not match state dim {state.dim}"
        )


def _moments(op: HermitianMatrix, state: VectorState, bound: float) -> tuple[float, float, float]:
    """Expectation, variance and sd about the expectation, from two products with T.

    The imaginary part of <T v, v> must be noise-level, and the variance is
    computed along two algebraically equal paths, ||(T - e)v||^2 and
    <(T - e)^2 v, v>, which must agree. Rounding grows with the operator, so
    with s = max(1, ``bound``) these checks allow ``TOL.imag_expectation`` * s,
    ``TOL.cross_check`` * s^2 and a negative variance of ``TOL.variance_clamp`` * s^2.
    """
    _check_dim(op, state)
    scale = max(1.0, bound)
    tv = op.array @ state.vector
    val = complex(np.vdot(state.vector, tv))
    if abs(val.imag) > TOL.imag_expectation * scale:
        raise NumericalError(
            f"expectation has imaginary part {val.imag:.3e} for a Hermitian operator"
        )
    e = float(val.real)
    shifted = tv - e * state.vector
    var_direct = float(np.vdot(shifted, shifted).real)
    var_quad = float(np.vdot(state.vector, op.array @ shifted - e * shifted).real)
    if abs(var_direct - var_quad) > TOL.cross_check * scale**2:
        raise NumericalError(
            f"variance paths disagree: {var_direct:.15e} vs {var_quad:.15e}"
        )
    var = var_direct
    if var < 0.0:
        if var < -TOL.variance_clamp * scale**2:
            raise NumericalError(f"variance {var:.3e} is negative beyond clamp")
        var = 0.0
    return e, var, float(np.sqrt(var))


def measure(tup: OperatorTuple, state: VectorState) -> MeasurementReport:
    """Expectation, variance, and sd of ``state`` for every observable.

    Two products with each T_j: T v for the expectation, then T (T - e) v
    for the variance cross-check.
    """
    exps, vars_, sds = zip(*(_moments(op, state, tup.bound) for op in tup.ops))
    return MeasurementReport(exps, vars_, sds)


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
    lam = as_point(lam, tup.n)
    if not (0.0 < sigma < math.inf and 0.0 < eps < math.inf):
        raise ValueError("sigma and eps must be positive and finite")
    report = measure(tup, state)
    member = bool(max(report.sd) < sigma)
    close = bool(max(abs(e - l) for e, l in zip(report.exp, lam)) < eps)
    return AmuCertificate(lam, state, report, float(sigma), float(eps), member, close)


def commutator_profile(tup: OperatorTuple) -> np.ndarray:
    """Matrix of commutator norms ||T_i T_j - T_j T_i||, symmetric, zero diagonal."""
    arrs = tup.arrays()
    prof = np.zeros((tup.n, tup.n), dtype=float)
    for i, j in itertools.combinations(range(tup.n), 2):
        prof[i, j] = prof[j, i] = operator_norm(arrs[i] @ arrs[j] - arrs[j] @ arrs[i])
    return prof

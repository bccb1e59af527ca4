"""States, operator tuples, measurement statistics, AMU certificates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amu_spectra import (
    DimensionMismatch,
    HermitianMatrix,
    ModelSpec,
    NumericalError,
    OperatorTuple,
    VectorState,
    amu_at,
    amu_check,
    commutator_profile,
    generate,
    measure,
    superpose,
    theta_product,
)
from amu_spectra.observables import as_point
from conftest import random_hermitian


def diag_pair() -> OperatorTuple:
    return OperatorTuple((np.diag([0.0, 1.0]), np.diag([0.0, 1.0])), bound=1.0)


def test_vector_state_requires_unit_norm():
    with pytest.raises(ValueError):
        VectorState(np.array([1.0, 1.0]))
    v = VectorState.normalized(np.array([1.0, 1.0]))
    assert np.linalg.norm(v.vector) == pytest.approx(1.0, abs=1e-15)


def test_vector_state_rejects_zero():
    with pytest.raises(ValueError):
        VectorState.normalized(np.zeros(4))


def test_operator_tuple_validates_dimensions():
    with pytest.raises(DimensionMismatch):
        OperatorTuple((np.eye(2), np.eye(3)), bound=1.0)


def test_operator_tuple_enforces_bound():
    with pytest.raises(ValueError):
        OperatorTuple((2.0 * np.eye(2),), bound=1.0)
    # At the bound is fine, also near the float limit.
    OperatorTuple((np.eye(2),), bound=1.0)
    OperatorTuple([[[1e308, 0.0], [0.0, 1.0]]], bound=1e308)
    for bound in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            OperatorTuple((np.eye(2),), bound=bound)


def test_operator_tuple_rejects_nan_norm(monkeypatch):
    import amu_spectra.observables as observables

    monkeypatch.setattr(observables, "operator_norm", lambda op: float("nan"))
    with pytest.raises(ValueError, match="norm nan"):
        OperatorTuple((np.eye(2),), bound=1.0)


def one_observable(op) -> OperatorTuple:
    """One-observable tuple, so ``measure`` reports that observable alone."""
    return OperatorTuple((op,), bound=2.0)


def test_expectation_hand_value():
    t = HermitianMatrix(np.diag([0.0, 1.0]))
    x = VectorState.normalized(np.array([1.0, 1.0]))
    assert measure(one_observable(t), x).exp[0] == pytest.approx(0.5, abs=1e-15)


def test_variance_hand_value():
    # Half-half mixture of eigenvalues 0 and 1: var 1/4, sd 1/2.
    t = HermitianMatrix(np.diag([0.0, 1.0]))
    x = VectorState.normalized(np.array([1.0, 1.0]))
    rep = measure(one_observable(t), x)
    assert rep.var[0] == pytest.approx(0.25, abs=1e-14)
    assert rep.sd[0] == pytest.approx(0.5, abs=1e-14)


def test_variance_zero_on_eigenvector():
    t = HermitianMatrix(np.diag([2.0, -1.0]))
    x = VectorState(np.array([1.0, 0.0]))
    rep = measure(one_observable(t), x)
    assert rep.var[0] == 0.0 and rep.sd[0] == 0.0


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=40))
def test_variance_paths_agree(dim, seed):
    t = HermitianMatrix(random_hermitian(dim, seed=seed))
    rng = np.random.default_rng(seed + 999)
    x = VectorState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    rep = measure(one_observable(t), x)
    e = float(np.vdot(x.vector, t.array @ x.vector).real)
    assert rep.exp[0] == pytest.approx(e, abs=1e-12)
    direct = float(np.linalg.norm((t.array - e * np.eye(dim)) @ x.vector) ** 2)
    assert rep.var[0] == pytest.approx(direct, abs=1e-10)
    assert rep.sd[0] == pytest.approx(np.sqrt(max(direct, 0.0)), abs=1e-10)


def test_measure_reports_all_axes():
    tup = diag_pair()
    x = VectorState.normalized(np.array([1.0, 1.0]))
    rep = measure(tup, x)
    assert rep.exp == pytest.approx((0.5, 0.5), abs=1e-15)
    assert rep.sd == pytest.approx((0.5, 0.5), abs=1e-15)
    assert rep.max_sd == pytest.approx(0.5, abs=1e-15)


class _CountingArray(np.ndarray):
    """Matrix that counts its products with a vector."""

    products = 0

    def __matmul__(self, other):
        _CountingArray.products += 1
        return np.asarray(self) @ other


def test_measure_matches_functionals_with_two_products_per_observable():
    tup = OperatorTuple(
        tuple(random_hermitian(9, seed=s) for s in (4, 5, 6)), bound=1.0
    )
    rng = np.random.default_rng(8)
    x = VectorState.normalized(rng.normal(size=9) + 1j * rng.normal(size=9))
    rep = measure(tup, x)
    for j, op in enumerate(tup.ops):
        alone = measure(one_observable(op), x)
        assert (rep.exp[j], rep.var[j], rep.sd[j]) == (
            alone.exp[0], alone.var[0], alone.sd[0]
        )

    counted = HermitianMatrix(tup.ops[0].array)
    object.__setattr__(counted, "array", tup.ops[0].array.view(_CountingArray))
    single_tup = OperatorTuple((counted,), bound=1.0)
    _CountingArray.products = 0
    single = measure(single_tup, x)
    assert _CountingArray.products == 2
    assert single.exp[0] == rep.exp[0] and single.var[0] == rep.var[0]


def large_bound_pair() -> OperatorTuple:
    """Spectra in [-1e4, 1e4]: rounding in the variance paths exceeds 1e-10."""
    return generate(ModelSpec("perturbed_commuting", 64, n=2, seed=3, params={
        "eigen_low": -1e4, "eigen_high": 1e4, "perturbation": 2000.0}))


class _SkewedArray(np.ndarray):
    """Matrix whose second product with a vector comes out ``skew`` too large."""

    products = 0
    skew = 0.0

    def __matmul__(self, other):
        _SkewedArray.products += 1
        out = np.asarray(self) @ other
        return out * (1.0 + _SkewedArray.skew) if _SkewedArray.products == 2 else out


@pytest.mark.parametrize("skew, disagrees", [(1e-14, False), (1e-6, True)])
def test_measure_variance_cross_check_at_large_bound(skew, disagrees):
    tup = large_bound_pair()
    state = amu_at(tup, (1000.0, 2000.0), 1.0, 1.0).state
    skewed = HermitianMatrix(tup.ops[1].array)
    object.__setattr__(skewed, "array", tup.ops[1].array.view(_SkewedArray))
    single = OperatorTuple((skewed,), bound=tup.bound)
    _SkewedArray.products, _SkewedArray.skew = 0, skew
    # The paths then differ by about skew * 6.8e5: 7e-9 passes and 0.7 fails
    # the scaled tolerance 1e-10 * M^2 ~ 1e-2 (the unscaled 1e-10 rejects both).
    if disagrees:
        with pytest.raises(NumericalError, match="variance paths disagree"):
            measure(single, state)
    else:
        assert measure(single, state).var[0] == pytest.approx(6.8361866e5, rel=1e-6)


def test_measure_past_a_squared_bound_beyond_float_range():
    # M^2 = 4e400 is beyond float range. An eigenstate has variance 0; an
    # even mix of the ends has variance 1e400, which no float holds: numpy
    # warns of the overflow, and the NaN or infinite variance is refused.
    tup = OperatorTuple((np.diag([1e200, -1e200]), np.diag([-1e200, 1e200])), bound=2e200)
    report = measure(tup, VectorState(np.array([1.0, 0.0])))
    assert report.exp == (1e200, -1e200) and report.var == (0.0, 0.0)
    mix = VectorState.normalized(np.array([1.0, 1.0]))
    with pytest.warns(RuntimeWarning), pytest.raises(NumericalError, match="paths disagree"):
        measure(tup, mix)


def test_amu_check_strict_inequalities():
    # Thresholds equal to the measured values must fail (strict <); the
    # next representable floats above them must pass.
    tup = diag_pair()
    x = VectorState(np.array([0.6, 0.8]))
    probe = amu_check(tup, x, (0.0, 0.0), sigma=1.0, eps=1.0)
    sd, err = probe.max_sd, probe.max_exp_error
    assert sd > 0 and err > 0
    tight = amu_check(tup, x, (0.0, 0.0), sigma=sd, eps=err)
    assert not tight.amu_member
    assert not tight.expectation_close
    loose = amu_check(
        tup, x, (0.0, 0.0), sigma=np.nextafter(sd, 2.0), eps=np.nextafter(err, 2.0)
    )
    assert loose.amu_member and loose.expectation_close


def test_amu_check_rejects_nonpositive_thresholds():
    tup = diag_pair()
    x = VectorState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        amu_check(tup, x, (0.0, 0.0), sigma=0.0, eps=0.1)
    with pytest.raises(ValueError):
        amu_check(tup, x, (0.0, 0.0), sigma=0.1, eps=-1.0)
    # A certificate with an infinite threshold would not be JSON.
    for sigma, eps in ((np.inf, 0.1), (0.1, float("1e400")), (np.nan, 0.1)):
        with pytest.raises(ValueError, match="positive and finite"):
            amu_check(tup, x, (0.0, 0.0), sigma=sigma, eps=eps)


def test_amu_check_expectation_flag():
    tup = diag_pair()
    x = VectorState(np.array([1.0, 0.0]))
    cert = amu_check(tup, x, (0.4, 0.0), sigma=0.1, eps=0.39)
    assert cert.amu_member
    assert not cert.expectation_close
    assert cert.max_exp_error == pytest.approx(0.4, abs=1e-15)


def test_amu_certificate_json_shape():
    tup = diag_pair()
    x = VectorState(np.array([1.0, 0.0]))
    cert = amu_check(tup, x, (0.0, 0.0), sigma=0.1, eps=0.1)
    d = cert.to_json_dict()
    assert d["lambda"] == [0.0, 0.0]
    assert d["amu_member"] is True
    assert len(d["state"]) == 2 * tup.dim
    assert d["sd"] == [0.0, 0.0]


def test_commutator_profile_commuting_is_zero(commuting_16):
    prof = commutator_profile(commuting_16)
    assert prof.shape == (2, 2)
    assert prof.max() <= 1e-12


def test_commutator_profile_shift_pair(shift_pair_64):
    prof = commutator_profile(shift_pair_64)
    assert prof[0, 1] == pytest.approx(0.5, abs=1e-10)
    assert prof[0, 0] == 0.0


def test_as_point_checks_count_and_finiteness():
    assert as_point(np.array([[0.5], [-1]]), 2) == (0.5, -1.0)
    with pytest.raises(DimensionMismatch, match="lambda has 3 coordinates, tuple has n=2"):
        as_point((0.0, 0.0, 0.0), 2)
    with pytest.raises(ValueError, match="non-finite") as info:
        as_point((np.nan, 0.0), 2)
    assert not isinstance(info.value, DimensionMismatch)
    with pytest.raises(ValueError, match="target has non-finite coordinate 1: inf"):
        as_point((0.0, np.inf), 2, "target")


def _point_entry_points():
    tup = diag_pair()
    state = VectorState(np.array([1.0, 0.0]))
    cert = amu_check(tup, state, (0.0, 0.0), 0.1, 0.1)
    return {
        "amu_check": lambda p: amu_check(tup, state, p, 0.1, 0.1),
        "amu_at": lambda p: amu_at(tup, p, 0.1, 0.1),
        "superpose": lambda p: superpose(tup, [cert], p),
        "theta_product": lambda p: theta_product(tup, p, 0.5),
    }


@pytest.mark.parametrize("name", ["amu_check", "amu_at", "superpose", "theta_product"])
def test_point_arguments_reject_wrong_count_and_nan(name):
    call = _point_entry_points()[name]
    with pytest.raises(DimensionMismatch):
        call((0.0,))
    with pytest.raises(ValueError, match="non-finite"):
        call((np.nan, 0.0))

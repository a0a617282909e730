import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from numpy.testing import assert_allclose

from flatlimit import (
    CubatureRule,
    FunctionalSpec,
    KernelSpec,
    NotUnisolventError,
    NumericalInconsistencyError,
    PointSet,
    PrecisionConfig,
    optimal_weights,
    phi_weights,
    polynomial_weights,
    unisolvency_check,
    worst_case_error,
)

EXT = PrecisionConfig.extended(128)


def test_point_evaluation_recovered_exactly():
    """When the target functional is evaluation at one of the nodes, the
    optimal rule is the delta there and the error vanishes."""
    k = KernelSpec.gaussian(2.0)
    X = PointSet.from_1d([-1.0, 0.5, 2.0])
    L = FunctionalSpec.point_eval(0.5)
    sol = optimal_weights(k, L, X)
    assert_allclose(sol.rule.weights_float(), [0.0, 1.0, 0.0], atol=1e-10)
    rep = worst_case_error(k, L, sol.rule, assume_optimal=True)
    assert float(rep.wce) <= 1e-7


def test_single_point_rule_for_standard_normal():
    # closed form: wce^2 = sqrt(1/3) - 1/2 for one node at the origin, unit
    # length scale
    k = KernelSpec.gaussian(1.0)
    L = FunctionalSpec.gaussian_measure(1)
    X = PointSet.from_1d([0.0])
    sol = optimal_weights(k, L, X)
    assert_allclose(sol.rule.weights_float(), [math.sqrt(0.5)], rtol=1e-14)
    rep = worst_case_error(k, L, sol.rule, assume_optimal=True)
    assert_allclose(float(rep.wce), math.sqrt(math.sqrt(1.0 / 3.0) - 0.5), rtol=1e-12)
    assert_allclose(float(rep.wce), 0.2781191636504497, rtol=1e-12)


def test_zero_weights_error_is_norm_of_functional():
    k = KernelSpec.gaussian(3.0)
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    rep = worst_case_error(k, L, CubatureRule(X, (0.0, 0.0, 0.0)))
    assert_allclose(float(rep.wce), math.sqrt(float(rep.initial_term)), rtol=1e-15)


def test_report_decomposition_is_consistent():
    k = KernelSpec.gaussian(2.0)
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    rep = worst_case_error(k, L, CubatureRule(X, (0.3, 1.1, 0.4)), EXT)
    with mp.workprec(160):
        recon = rep.initial_term - 2 * rep.cross_term + rep.quadratic_form
        assert abs(rep.radicand - recon) <= mp.mpf(10) ** -30
        assert abs(rep.wce ** 2 - rep.radicand) <= mp.mpf(10) ** -30


@given(
    dw=st.tuples(
        st.floats(-0.1, 0.1, allow_nan=False),
        st.floats(-0.1, 0.1, allow_nan=False),
        st.floats(-0.1, 0.1, allow_nan=False),
    )
)
@settings(deadline=None, max_examples=25)
def test_optimal_weights_minimize_over_perturbations(dw):
    k = KernelSpec.gaussian(2.0)
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    sol = optimal_weights(k, L, X, EXT)
    base = worst_case_error(k, L, sol.rule, EXT, assume_optimal=True).wce
    w = tuple(float(a) + d for a, d in zip(sol.rule.weights_float(), dw))
    pert = worst_case_error(k, L, CubatureRule(X, w), EXT).wce
    # the difference is formed before comparing so high-precision noise far
    # below the ambient resolution of base cannot flip the sign check
    assert pert - base >= -mp.mpf(2) ** -80


def test_any_fixed_weights_lower_bounded_by_optimal():
    """The optimal-weight error is a lower bound for every rule on the same
    nodes, which yields a computable certificate."""
    k = KernelSpec.gaussian(1.5)
    L = FunctionalSpec.gaussian_measure(1)
    X = PointSet.from_1d([-1.2, 0.1, 0.8])
    opt = worst_case_error(k, L, optimal_weights(k, L, X, EXT).rule, EXT, assume_optimal=True)
    for w in [(0.2, 0.5, 0.2), (1.0, 0.0, 0.0), (-0.3, 1.2, 0.4)]:
        rep = worst_case_error(k, L, CubatureRule(X, w), EXT)
        assert rep.wce >= opt.wce


def test_assume_optimal_rejects_non_optimal_weights():
    k = KernelSpec.gaussian(2.0)
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    with pytest.raises(NumericalInconsistencyError):
        worst_case_error(k, L, CubatureRule(X, (0.9, 0.1, 0.7)), EXT, assume_optimal=True)


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), EXT])
def test_worst_case_error_reuses_the_weight_solution(monkeypatch, prec):
    import flatlimit.cubature as cubature

    k = KernelSpec.gaussian(3.0)
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-0.9, -0.2, 0.4, 1.0])
    sol = optimal_weights(k, L, X, prec)
    bare = worst_case_error(k, L, sol.rule, prec, assume_optimal=True)
    calls = {"gram_matrix": 0, "kernel_embedding": 0}
    for name in calls:
        original = getattr(cubature, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cubature, name, counted)
    reused = worst_case_error(k, L, sol, prec, assume_optimal=True)
    assert calls == {"gram_matrix": 0, "kernel_embedding": 0}
    for term in ("wce", "initial_term", "cross_term", "quadratic_form", "radicand"):
        assert getattr(reused, term) == getattr(bare, term)
    assert reused.condition == sol.condition
    with pytest.raises(ValueError):
        worst_case_error(KernelSpec.gaussian(4.0), L, sol, prec)
    with pytest.raises(ValueError):
        worst_case_error(k, FunctionalSpec.gaussian_measure(1), sol, prec)


def test_simpson_weights_from_polynomial_exactness():
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    sol = polynomial_weights(L, X, 2, EXT)
    w = sol.rule.weights_float()
    assert_allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], rtol=1e-14)


def test_polynomial_weights_integrate_polynomials_exactly():
    L = FunctionalSpec.lebesgue_box(0.0, 2.0)
    X = PointSet.from_1d([0.0, 0.5, 1.7])
    sol = polynomial_weights(L, X, 2, EXT)
    for c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, -2.0, 1.5)):
        f = lambda x: c[0] + c[1] * x + c[2] * x * x
        exact = 2 * c[0] + 2 * c[1] + c[2] * 8.0 / 3.0
        assert_allclose(float(sol.rule.apply(f)), exact, rtol=1e-12)


def test_polynomial_weights_require_square_problem():
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    with pytest.raises(ValueError):
        polynomial_weights(L, PointSet.from_1d([-1.0, 1.0]), 2)
    with pytest.raises(ValueError):
        polynomial_weights(L, PointSet.from_1d([-1.0, 0.0, 0.5, 1.0]), 2)


def test_polynomial_weights_not_unisolvent_nodes():
    L = FunctionalSpec.lebesgue_box((-1.0, -1.0), (1.0, 1.0))
    collinear = PointSet.from_points([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
    with pytest.raises(NotUnisolventError):
        polynomial_weights(L, collinear, 1)


def test_phi_weights_match_direct_collocation():
    """Independent check: build the collocation system by hand with numpy and
    compare the weights."""
    ell = 30.0
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    sol = phi_weights(L, ell, X, 2, EXT)

    from flatlimit import damped_moment, enumerate_multi_indices, phi_basis_eval

    idx = enumerate_multi_indices(1, 2)
    A = np.array([[float(phi_basis_eval(ell, a, x)) for x in (-1.0, 0.0, 1.0)] for a in idx])
    rhs = np.array([float(damped_moment(L, ell, a, EXT)) for a in idx])
    w_direct = np.linalg.solve(A, rhs)
    assert_allclose(sol.rule.weights_float(), w_direct, rtol=1e-12)


def test_phi_weight_mass_stays_bounded_in_flat_limit():
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    masses = []
    for ell in (1.0, 10.0, 1e3, 1e6):
        prec = PrecisionConfig.extended(max(128, int(64 + 2 * 3 * math.log2(ell))))
        sol = phi_weights(L, ell, X, 2, prec)
        masses.append(sum(abs(w) for w in sol.rule.weights_float()))
    assert all(m <= 2.5 for m in masses)
    # the phi weights converge to the Simpson weights, total mass 2
    assert_allclose(masses[-1], 2.0, rtol=1e-6)


def test_flat_limit_sandwich_and_rate():
    """On symmetric nodes the optimal error is squeezed between zero and the
    phi-basis error, and decays at least as fast as ell^-3."""
    k_of = KernelSpec.gaussian
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    ells = [10.0, 30.0, 100.0, 300.0, 1000.0]
    errs = []
    for ell in ells:
        prec = PrecisionConfig.extended(max(128, int(64 + 2 * 3 * math.log2(ell)) + 32))
        k = k_of(ell)
        w_opt = optimal_weights(k, L, X, prec)
        w_phi = phi_weights(L, ell, X, 2, prec)
        e_opt = worst_case_error(k, L, w_opt.rule, prec, assume_optimal=True).wce
        e_phi = worst_case_error(k, L, w_phi.rule, prec).wce
        assert e_opt <= e_phi
        errs.append(float(e_opt))
    slope = np.polyfit(np.log(ells), np.log(errs), 1)[0]
    assert slope <= -2.8


def test_unisolvency_classifications():
    ok = unisolvency_check(PointSet.from_1d([-1.0, 0.0, 1.0]), 2)
    assert ok.status == "unisolvent"
    assert math.isfinite(ok.condition)

    collinear = unisolvency_check(
        PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]), 1
    )
    assert collinear.status == "not_unisolvent"

    nearly = unisolvency_check(
        PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-14)]), 1
    )
    assert nearly.status == "ill_conditioned"


def test_unisolvency_requires_square_count():
    with pytest.raises(ValueError):
        unisolvency_check(PointSet.from_1d([0.0, 1.0]), 2)


def test_machine_and_extended_agree_at_modest_flatness():
    k = KernelSpec.gaussian(3.0)
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    w_m = optimal_weights(k, L, X).rule.weights_float()
    w_e = optimal_weights(k, L, X, EXT).rule.weights_float()
    assert_allclose(w_m, w_e, rtol=1e-10)

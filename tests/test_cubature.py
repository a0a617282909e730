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


def chebyshev(n):
    half = [math.cos((2 * k + 1) * math.pi / (2 * n)) for k in range(n // 2)]
    return sorted([-x for x in half] + ([0.0] if n % 2 else []) + half)


def assert_matches_gram_form(k, L, rule, prec):
    """residual_wce at ``prec`` against the Gram form of worst_case_error
    at 2 bits + 64, to a relative 2^-(bits - 8)."""
    from flatlimit import residual_wce

    e = residual_wce(k, L, rule, prec)
    oracle_bits = 2 * prec.bits + 64
    ref = worst_case_error(k, L, rule, PrecisionConfig.extended(oracle_bits)).wce
    with mp.workprec(oracle_bits):
        assert abs(mp.mpf(e) - ref) <= mp.mpf(2) ** (8 - prec.bits) * ref, (float(e), float(ref))


@pytest.mark.parametrize("measure", ["box", "normal"])
@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize("ell", [1.0, 1e2, 1e4])
def test_residual_wce_matches_the_gram_form(measure, n, ell):
    from flatlimit import auto_precision_bits

    L = FunctionalSpec.lebesgue_box(-1.0, 1.0) if measure == "box" else FunctionalSpec.gaussian_measure(1)
    X = PointSet.from_1d([-1.0, 0.0, 1.0] if n == 3 else chebyshev(n))
    k = KernelSpec.gaussian(ell)
    prec = PrecisionConfig.extended(auto_precision_bits(ell, n))
    assert_matches_gram_form(k, L, optimal_weights(k, L, X, prec).rule, prec)


TWO_D_POINTS = {
    3: [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    6: [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5), (-0.8, 0.7), (0.8, 0.6), (0.1, -0.9)],
}


@pytest.mark.parametrize("measure", ["box", "normal"])
@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("ell", [1.0, 1e2])
def test_residual_wce_matches_the_gram_form_in_2d(measure, n, ell):
    from flatlimit import auto_precision_bits

    L = (
        FunctionalSpec.lebesgue_box((-1.0, -1.0), (1.0, 1.0))
        if measure == "box"
        else FunctionalSpec.gaussian_measure(2)
    )
    X = PointSet.from_points(TWO_D_POINTS[n])
    k = KernelSpec.gaussian(ell)
    prec = PrecisionConfig.extended(auto_precision_bits(ell, n))
    assert_matches_gram_form(k, L, optimal_weights(k, L, X, prec).rule, prec)


def test_residual_wce_of_arbitrary_rules_and_point_evaluation():
    """Not only optimal weights: any rule, a point functional, and the
    machine lane, which rounds the extended evaluation to float64."""
    from flatlimit import residual_wce

    X = PointSet.from_1d([-1.2, 0.1, 0.8])
    rule = CubatureRule(X, (0.2, 0.5, 0.2))
    for L in (FunctionalSpec.gaussian_measure(1), FunctionalSpec.lebesgue_box(-0.5, 2.0), FunctionalSpec.point_eval(0.3)):
        for ell in (0.7, 1.5, 40.0):
            assert_matches_gram_form(KernelSpec.gaussian(ell), L, rule, EXT)
            machine = residual_wce(KernelSpec.gaussian(ell), L, rule)
            assert isinstance(machine, float)
            assert machine == pytest.approx(float(residual_wce(KernelSpec.gaussian(ell), L, rule, EXT)), rel=2**-50)
    # an exact rule ends at the roundoff floor of the capped precision
    exact = CubatureRule(X, (0.0, 1.0, 0.0))
    assert residual_wce(KernelSpec.gaussian(2.0), FunctionalSpec.point_eval(0.1), exact, EXT) <= mp.mpf(2) ** -384


def test_residual_wce_tail_bound_runs_past_a_fixed_truncation():
    """Under N(0, 1) at ell = 1 the coefficients decay only like 2^(-k/2),
    so a 192-bit wce needs more than 150 basis functions: stopping at any
    fixed degree below the bound's misses the 2^-184 agreement."""
    k = KernelSpec.gaussian(1.0)
    L = FunctionalSpec.gaussian_measure(1)
    prec = PrecisionConfig.extended(192)
    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    assert_matches_gram_form(k, L, optimal_weights(k, L, X, prec).rule, prec)


def test_residual_wce_rejects_other_kernels_and_the_numeric_oracle():
    from flatlimit import residual_wce

    X = PointSet.from_1d([-1.0, 0.0, 1.0])
    rule = CubatureRule(X, (0.3, 1.4, 0.3))
    with pytest.raises(ValueError):
        residual_wce(KernelSpec.exponential(2.0), FunctionalSpec.lebesgue_box(-1.0, 1.0), rule)
    with pytest.raises(ValueError):
        residual_wce(KernelSpec.gaussian(2.0), FunctionalSpec.numeric_oracle(lambda t: 1.0, -1.0, 1.0), rule)
    with pytest.raises(ValueError):
        residual_wce(KernelSpec.gaussian(2.0), FunctionalSpec.gaussian_measure(2), rule)


def test_residual_recurrences_match_their_definitions():
    """The fixed-point recurrences of the residual sum against the
    functions they stand for: the basis at a point is phi_basis_eval, and
    a coefficient is damped_moment, each over sqrt(k!) l^k."""
    from flatlimit import MultiIndex, damped_moment, phi_basis_eval
    from flatlimit.cubature import _axis_coefficients, _phi_columns

    ell, F = 0.7, 200
    prec = PrecisionConfig.extended(F + 32)
    sites = [(0.3, -1.2), (2.0, 0.0)]
    columns = _phi_columns(sites, ell, F)
    box = FunctionalSpec.lebesgue_box((-2.0, 0.3), (0.5, 2.5))
    gens = {
        "box0": (_axis_coefficients(box, 0, ell, F), FunctionalSpec.lebesgue_box(-2.0, 0.5)),
        "box1": (_axis_coefficients(box, 1, ell, F), FunctionalSpec.lebesgue_box(0.3, 2.5)),
        "normal": (_axis_coefficients(FunctionalSpec.gaussian_measure(2), 1, ell, F), FunctionalSpec.gaussian_measure(1)),
    }
    with prec.workprec():
        for k in range(13):
            norm = mp.sqrt(mp.factorial(k)) * mp.mpf(ell) ** k
            tol = mp.mpf(2) ** (24 - F)
            for site, values in zip(sites, next(columns)):
                for x, v in zip(site, values):
                    exact = phi_basis_eval(ell, MultiIndex((k,)), x, prec) / norm
                    assert abs(mp.ldexp(v, -F) - exact) <= tol, (k, x)
            for name, (gen, factor) in gens.items():
                exact = damped_moment(factor, ell, MultiIndex((k,)), prec) / norm
                assert abs(mp.ldexp(next(gen), -F) - exact) <= tol, (k, name)


def test_sweeps_take_the_residual_only_where_its_sum_is_short():
    """The flat regime takes the residual; a length scale small next to
    the box, a slowly decaying Gaussian measure, and d = 2 below the very
    flat end keep the Gram form, whose sum would run to thousands of
    basis functions."""
    from flatlimit.cubature import _residual_form

    def selected(L, points, ell, bits):
        k, prec = KernelSpec.gaussian(ell), PrecisionConfig.extended(bits)
        return _residual_form(k, L, optimal_weights(k, L, PointSet.from_points(points), prec).rule, prec)

    box, normal = FunctionalSpec.lebesgue_box(-1.0, 1.0), FunctionalSpec.gaussian_measure(1)
    simpson = [(-1.0,), (0.0,), (1.0,)]
    assert selected(box, simpson, 1.0, 64) and selected(normal, simpson, 1.0, 64)
    assert selected(box, simpson, 0.3, 64)
    assert not selected(box, simpson, 0.05, 64)
    assert not selected(normal, simpson, 0.5, 64)
    assert not selected(FunctionalSpec.gaussian_measure(2), TWO_D_POINTS[3], 1.0, 64)
    assert not _residual_form(
        KernelSpec.exponential(2.0), box, CubatureRule(PointSet.from_points(simpson), (0.3, 1.4, 0.3)), EXT
    )


def damped_system_oracle(nodes, ell, bits=2000):
    """The phi weights from the damped collocation system itself, with the
    box moments int_-1^1 exp(-x^2/(2 l^2)) x^k dx = c^-s gamma(s, c)
    (c = 1/(2 l^2), s = (k+1)/2, zero for odd k), solved by mp.lu_solve."""
    with mp.workprec(bits):
        c = 1 / (2 * mp.mpf(ell) ** 2)
        n = len(nodes)
        A, b = mp.matrix(n, n), mp.matrix(n, 1)
        for k in range(n):
            for i, x in enumerate(nodes):
                A[k, i] = mp.exp(-c * mp.mpf(x) ** 2) * mp.mpf(x) ** k
            s = mp.mpf(k + 1) / 2
            b[k] = 0 if k % 2 else c ** -s * mp.gammainc(s, 0, c)
        return mp.lu_solve(A, b)


@pytest.mark.parametrize("nodes", [(-1.0, 0.0, 1.0), (-0.5, 0.0, 0.5)])
@pytest.mark.parametrize("ell", [0.03, 0.05, 0.08, 0.1])
def test_phi_weights_at_small_length_scales_match_the_damped_system(nodes, ell):
    """Down to l = 0.03 the damping exp(-x^2 / (2 l^2)) reaches e^-556 at
    the outer nodes, yet the weights at 64 bits keep about 54 bits."""
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    sol = phi_weights(L, ell, PointSet.from_1d(nodes), 2, PrecisionConfig.extended(64))
    exact = damped_system_oracle(nodes, ell)
    with mp.workprec(2000):
        for w, r in zip(sol.weights, exact):
            assert abs(mp.mpf(w) - r) <= mp.mpf(2) ** -54 * abs(r)

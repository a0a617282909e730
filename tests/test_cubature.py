import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from numpy.testing import assert_allclose

from flatlimit import (
    CubatureRule,
    FunctionalSpec,
    NotUnisolventError,
    NumericalInconsistencyError,
    NumericallyIndefiniteError,
    PointSet,
    PrecisionConfig,
    auto_precision_bits,
    linalg,
    optimal_weights,
    phi_weights,
    polynomial_weights,
    unisolvency_check,
    worst_case_error,
)
from gram_oracle import assert_wce_matches, gaussian_gram_condition

EXT = PrecisionConfig.extended(128)


def test_point_evaluation_recovered_exactly():
    """When the target functional is evaluation at one of the nodes, the
    optimal rule is the delta there and the error vanishes."""
    k = 2.0
    X = PointSet.from_points([-1.0, 0.5, 2.0])
    L = FunctionalSpec.point_eval(0.5)
    sol = optimal_weights(k, L, X)
    assert_allclose(sol.rule.weights_float(), [0.0, 1.0, 0.0], atol=1e-10)
    rep = worst_case_error(k, L, sol.rule, assume_optimal=True)
    assert float(rep.wce) <= 1e-7


def test_single_point_rule_for_standard_normal():
    # closed form: wce^2 = sqrt(1/3) - 1/2 for one node at the origin, unit
    # length scale
    k = 1.0
    L = FunctionalSpec.gaussian_measure(1)
    X = PointSet.from_points([0.0])
    sol = optimal_weights(k, L, X)
    assert_allclose(sol.rule.weights_float(), [math.sqrt(0.5)], rtol=1e-14)
    rep = worst_case_error(k, L, sol.rule, assume_optimal=True)
    assert_allclose(float(rep.wce), math.sqrt(math.sqrt(1.0 / 3.0) - 0.5), rtol=1e-12)
    assert_allclose(float(rep.wce), 0.2781191636504497, rtol=1e-12)


def test_zero_weights_error_is_norm_of_functional():
    k = 3.0
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    rep = worst_case_error(k, L, CubatureRule(X, (0.0, 0.0, 0.0)))
    assert_allclose(float(rep.wce), math.sqrt(float(rep.initial_term)), rtol=1e-15)


def test_report_decomposition_is_consistent():
    k = 2.0
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
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
    k = 2.0
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
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
    k = 1.5
    L = FunctionalSpec.gaussian_measure(1)
    X = PointSet.from_points([-1.2, 0.1, 0.8])
    opt = worst_case_error(k, L, optimal_weights(k, L, X, EXT).rule, EXT, assume_optimal=True)
    for w in [(0.2, 0.5, 0.2), (1.0, 0.0, 0.0), (-0.3, 1.2, 0.4)]:
        rep = worst_case_error(k, L, CubatureRule(X, w), EXT)
        assert rep.wce >= opt.wce


def test_assume_optimal_rejects_non_optimal_weights():
    k = 2.0
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    with pytest.raises(NumericalInconsistencyError):
        worst_case_error(k, L, CubatureRule(X, (0.9, 0.1, 0.7)), EXT, assume_optimal=True)


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), EXT])
def test_worst_case_error_reuses_the_weight_solution(prec):
    """A solution supplies its rule and its Gram condition; the terms are
    those of the bare rule."""
    k = 3.0
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-0.9, -0.2, 0.4, 1.0])
    sol = optimal_weights(k, L, X, prec)
    bare = worst_case_error(k, L, sol.rule, prec, assume_optimal=True)
    reused = worst_case_error(k, L, sol, prec, assume_optimal=True)
    for term in ("wce", "initial_term", "cross_term", "quadratic_form", "radicand"):
        assert getattr(reused, term) == getattr(bare, term)
    assert reused.condition == sol.condition
    with pytest.raises(ValueError):
        worst_case_error(4.0, L, sol, prec)
    with pytest.raises(ValueError):
        worst_case_error(k, FunctionalSpec.gaussian_measure(1), sol, prec)


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), EXT], ids=["machine", "extended"])
def test_bare_rule_reports_the_gram_condition_of_its_weight_solution(prec):
    """The wce of a bare rule takes its Gram condition at the first pass's
    precision 2 bits + 32, where optimal_weights solves: on {-1, 0, 1} at
    l = 1e4, where kappa(G) is about 1.2e17, a float64 LU read 1.08e17."""
    k = 1e4
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    sol = optimal_weights(k, L, PointSet.from_points([-1.0, 0.0, 1.0]), prec)
    assert worst_case_error(k, L, sol.rule, prec).condition == sol.condition


@pytest.mark.parametrize("ell", [1.0, 1e2, 1e4])
def test_gram_condition_matches_the_closed_form_inverse(ell):
    """The Gram condition of optimal_weights on 10 mirrored Chebyshev nodes
    at the auto bits b, from one substitution through the Cholesky factor,
    matches ||G|| ||G^-1|| of the closed-form G and mp.inverse at 3 b + 64
    to a relative 2^-50; at l = 1e4 it is about 6e82."""
    points = PointSet.from_points(chebyshev(10))
    bits = auto_precision_bits(ell, len(points))
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    sol = optimal_weights(ell, L, points, PrecisionConfig.extended(bits))
    ref = gaussian_gram_condition(ell, points, bits)
    with mp.workprec(3 * bits + 64):
        assert abs(sol.condition - ref) <= mp.mpf(2) ** -50 * ref, (sol.condition, float(ref))


def random_gaussian_gram_cases(count, seed):
    """Sorted 1-D node sets of 2 to 12 points, at least 1 / n apart on
    [-1, 1], each with a log-uniform length scale in [0.1, 1e3], on
    [-1, 1] or under N(0, 1)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(2, 12)
        points = PointSet.from_points([-1 + 2 * (k + 0.25 + rng.random() / 2) / n for k in range(n)])
        L = rng.choice([FunctionalSpec.lebesgue_box(-1.0, 1.0), FunctionalSpec.gaussian_measure(1)])
        cases.append((points, L, 10 ** rng.uniform(-1, 3)))
    return cases


GRAM_CASES = random_gaussian_gram_cases(60, 2021)


@pytest.mark.parametrize(
    "points,L,ell", GRAM_CASES, ids=[f"n{len(p)}-{L.kind}-ell{ell:.3g}" for p, L, ell in GRAM_CASES]
)
def test_gaussian_gram_condition_by_total_positivity(points, L, ell):
    """The premise of the Gram condition in one substitution: the Gaussian
    Gram matrix on sorted distinct points is strictly totally positive, so
    its inverse (mp.inverse 200 bits above the solve) has the checkerboard
    sign pattern (-1)^(i+j) (G^-1)_ij > 0.  The condition read from
    ||G^-1 s|| then equals, to the float, the one SolveResult forms from
    the whole inverse, which reading it does not form.  ||G|| from the
    candidate rows is the one summed over all rows, bit for bit."""
    prec = PrecisionConfig.extended(auto_precision_bits(ell, len(points)))
    sol = optimal_weights(ell, L, points, prec)
    with mp.workprec(sol.solve.precision.bits):
        assert linalg._inf_norm(sol.solve.matrix) == linalg._inf_norm_mp(sol.solve.matrix)
    with mp.workprec(sol.solve.precision.bits + 200):
        inv = mp.inverse(mp.matrix([[mp.make_mpf(g) for g in row] for row in sol.solve.matrix]))
        assert all((-1) ** (i + j) * inv[i, j] > 0 for i in range(len(points)) for j in range(len(points)))
    condition = sol.condition
    assert "condition" not in vars(sol.solve)
    assert condition == sol.solve.condition


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), PrecisionConfig.extended(96)], ids=["machine", "96"])
def test_gaussian_gram_condition_at_a_fixed_precision(prec):
    """At a fixed precision the Gram solve runs at 2 bits + 32, u = 2^-138
    in the machine lane and 2^-224 at 96 bits; l runs in steps of 10^(1/32)
    from 0.1 past the first NumericallyIndefiniteError (near 75 and 5600),
    through the sporadic successes beyond it, where the reading ||G^-1 s||
    alone would read low.  The condition of every solve that
    succeeds equals the one from the whole inverse: read from ||G^-1 s||
    up to the solve's warning threshold u^(-1/2), from the whole inverse
    above it."""
    points = PointSet.from_points(chebyshev(10))
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    read, failed = set(), 0
    for e in range(-32, {53: 104, 96: 160}[prec.bits]):
        try:
            sol = optimal_weights(10 ** (e / 32), L, points, prec)
        except NumericallyIndefiniteError:
            failed += 1
            continue
        condition = sol.condition
        below = condition <= sol.solve.precision.warn_threshold
        assert ("condition" in vars(sol.solve)) != below
        read.add(below)
        assert condition == sol.solve.condition
    assert read == {True, False} and failed > 0


@pytest.mark.parametrize("case", ["gaussian_2d", "polynomial"])
def test_other_solves_read_the_solve_condition(case, monkeypatch):
    """A 2-D Gram and a Vandermonde solve keep the condition from the
    whole inverse."""
    from flatlimit import cubature

    def refuse(*args):
        raise AssertionError("the checkerboard condition is taken for 1-D Grams only")

    monkeypatch.setattr(cubature, "checkerboard_condition", refuse)
    box = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    if case == "gaussian_2d":
        points = PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        sol = optimal_weights(3.0, FunctionalSpec.gaussian_measure(2), points, EXT)
    else:
        sol = polynomial_weights(box, PointSet.from_points([-1.0, 0.0, 1.0]), 2, EXT)
    assert sol.condition == vars(sol.solve)["condition"]


def test_simpson_weights_from_polynomial_exactness():
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    sol = polynomial_weights(L, X, 2, EXT)
    w = sol.rule.weights_float()
    assert_allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], rtol=1e-14)


def test_polynomial_weights_integrate_polynomials_exactly():
    L = FunctionalSpec.lebesgue_box(0.0, 2.0)
    X = PointSet.from_points([0.0, 0.5, 1.7])
    sol = polynomial_weights(L, X, 2, EXT)
    for c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, -2.0, 1.5)):
        f = lambda x: c[0] + c[1] * x + c[2] * x * x
        exact = 2 * c[0] + 2 * c[1] + c[2] * 8.0 / 3.0
        assert_allclose(float(sol.rule.apply(f)), exact, rtol=1e-12)


def test_polynomial_weights_require_square_problem():
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    with pytest.raises(ValueError):
        polynomial_weights(L, PointSet.from_points([-1.0, 1.0]), 2)
    with pytest.raises(ValueError):
        polynomial_weights(L, PointSet.from_points([-1.0, 0.0, 0.5, 1.0]), 2)


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
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    sol = phi_weights(L, ell, X, 2, EXT)

    from flatlimit import damped_moment, enumerate_multi_indices, phi_basis_eval

    idx = enumerate_multi_indices(1, 2)
    A = np.array([[float(phi_basis_eval(ell, a, x)) for x in (-1.0, 0.0, 1.0)] for a in idx])
    rhs = np.array([float(damped_moment(L, ell, a, EXT)) for a in idx])
    w_direct = np.linalg.solve(A, rhs)
    assert_allclose(sol.rule.weights_float(), w_direct, rtol=1e-12)


def test_phi_weight_mass_stays_bounded_in_flat_limit():
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
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
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    ells = [10.0, 30.0, 100.0, 300.0, 1000.0]
    errs = []
    for ell in ells:
        prec = PrecisionConfig.extended(max(128, int(64 + 2 * 3 * math.log2(ell)) + 32))
        k = ell
        w_opt = optimal_weights(k, L, X, prec)
        w_phi = phi_weights(L, ell, X, 2, prec)
        e_opt = worst_case_error(k, L, w_opt.rule, prec, assume_optimal=True).wce
        e_phi = worst_case_error(k, L, w_phi.rule, prec).wce
        assert e_opt <= e_phi
        errs.append(float(e_opt))
    slope = np.polyfit(np.log(ells), np.log(errs), 1)[0]
    assert slope <= -2.8


def test_unisolvency_classifications():
    ok = unisolvency_check(PointSet.from_points([-1.0, 0.0, 1.0]), 2)
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
        unisolvency_check(PointSet.from_points([0.0, 1.0]), 2)


def test_machine_and_extended_agree_at_modest_flatness():
    k = 3.0
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    w_m = optimal_weights(k, L, X).rule.weights_float()
    w_e = optimal_weights(k, L, X, EXT).rule.weights_float()
    assert_allclose(w_m, w_e, rtol=1e-10)


def chebyshev(n):
    half = [math.cos((2 * k + 1) * math.pi / (2 * n)) for k in range(n // 2)]
    return sorted([-x for x in half] + ([0.0] if n % 2 else []) + half)


TWO_D_POINTS = {
    3: [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    6: [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5), (-0.8, 0.7), (0.8, 0.6), (0.1, -0.9)],
}


def assert_matches_gram_form(k, L, rule, prec):
    """worst_case_error at ``prec`` against the independent Gram form of
    gram_oracle at 4 bits + 128, to a relative 2^-(bits - 8)."""
    assert_wce_matches(worst_case_error(k, L, rule, prec).wce, k, L, rule, prec.bits)


@pytest.mark.parametrize("measure", ["box", "normal"])
@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize("ell", [1.0, 1e2, 1e4])
def test_residual_wce_matches_the_gram_form(measure, n, ell):
    from flatlimit import auto_precision_bits

    L = FunctionalSpec.lebesgue_box(-1.0, 1.0) if measure == "box" else FunctionalSpec.gaussian_measure(1)
    X = PointSet.from_points([-1.0, 0.0, 1.0] if n == 3 else chebyshev(n))
    k = ell
    prec = PrecisionConfig.extended(auto_precision_bits(ell, n))
    assert_matches_gram_form(k, L, optimal_weights(k, L, X, prec).rule, prec)


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
    k = ell
    prec = PrecisionConfig.extended(auto_precision_bits(ell, n))
    assert_matches_gram_form(k, L, optimal_weights(k, L, X, prec).rule, prec)


def test_residual_wce_of_arbitrary_rules_and_point_evaluation():
    """Not only optimal weights: any rule, a point functional, and the
    machine lane, which rounds the extended evaluation to float64."""
    X = PointSet.from_points([-1.2, 0.1, 0.8])
    rule = CubatureRule(X, (0.2, 0.5, 0.2))
    for L in (FunctionalSpec.gaussian_measure(1), FunctionalSpec.lebesgue_box(-0.5, 2.0), FunctionalSpec.point_eval(0.3)):
        for ell in (0.7, 1.5, 40.0):
            k = ell
            assert_matches_gram_form(k, L, rule, EXT)
            machine = worst_case_error(k, L, rule).wce
            assert isinstance(machine, float)
            assert machine == pytest.approx(float(worst_case_error(k, L, rule, EXT).wce), rel=2**-50)
    # an exact rule ends at the roundoff floor of the capped precision
    exact = CubatureRule(X, (0.0, 1.0, 0.0))
    assert worst_case_error(2.0, FunctionalSpec.point_eval(0.1), exact, EXT).wce <= mp.mpf(2) ** -384


def test_worst_case_error_raises_the_precision_to_the_loss_it_shows():
    """The degree-9 polynomial rule on 10 Chebyshev nodes at l = 1e4 has
    e^2 about 2^-284 of its terms' scale: at 128 bits the first pass, at
    288 bits, keeps a few bits of it, so the pass at 128 + 32 + lost bits
    has to deliver the 120 correct bits."""
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    rule = polynomial_weights(L, PointSet.from_points(chebyshev(10)), 9, EXT).rule
    assert_matches_gram_form(1e4, L, rule, EXT)


def test_residual_wce_tail_bound_runs_past_a_fixed_truncation():
    """A precision well above auto's: 192 bits under N(0, 1) at ell = 1
    keep 184 bits."""
    k = 1.0
    L = FunctionalSpec.gaussian_measure(1)
    prec = PrecisionConfig.extended(192)
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    assert_matches_gram_form(k, L, optimal_weights(k, L, X, prec).rule, prec)


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
    sol = phi_weights(L, ell, PointSet.from_points(nodes), 2, PrecisionConfig.extended(64))
    exact = damped_system_oracle(nodes, ell)
    with mp.workprec(2000):
        for w, r in zip(sol.weights, exact):
            assert abs(mp.mpf(w) - r) <= mp.mpf(2) ** -54 * abs(r)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import flatlimit.cubature as cubature
import flatlimit.gauss_optimal as gauss_optimal
from flatlimit import (
    FunctionalSpec,
    NumericallyIndefiniteError,
    KernelSpec,
    MultiIndex,
    NumericalInconsistencyError,
    OptimalStudyConfig,
    OptimizerSettings,
    PointSet,
    PrecisionConfig,
    SingularMatrixError,
    chebyshev_system_zero_count,
    double_embedding,
    gauss_rule_from_moments,
    moment,
    optimal_weights,
    optimize_points,
    run_optimal_study,
    worst_case_error,
)

EXT = PrecisionConfig.extended(128)
LEB = FunctionalSpec.lebesgue_box(-1.0, 1.0)
GAUSS = FunctionalSpec.gaussian_measure(1)


def test_two_point_legendre_rule():
    g = gauss_rule_from_moments(LEB, 2)
    assert_allclose(g.nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rtol=1e-14)
    assert_allclose(g.weights, [1.0, 1.0], rtol=1e-14)
    assert g.degree_of_exactness == 3


def test_three_point_legendre_rule():
    g = gauss_rule_from_moments(LEB, 3)
    assert_allclose(g.nodes, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-14)
    assert_allclose(g.weights, [5.0 / 9.0 * 2.0 / 2.0, 8.0 / 9.0, 5.0 / 9.0], rtol=1e-13)


def test_two_point_hermite_rule():
    # for the standard normal the two-point rule sits at +-1 with equal
    # weights
    g = gauss_rule_from_moments(GAUSS, 2)
    assert_allclose(g.nodes, [-1.0, 1.0], rtol=1e-13)
    assert_allclose(g.weights, [0.5, 0.5], rtol=1e-13)


def test_one_point_rules():
    g = gauss_rule_from_moments(GAUSS, 1)
    assert_allclose(g.nodes, [0.0], atol=1e-15)
    assert_allclose(g.weights, [1.0], rtol=1e-14)
    gl = gauss_rule_from_moments(LEB, 1)
    assert_allclose(gl.nodes, [0.0], atol=1e-15)
    assert_allclose(gl.weights, [2.0], rtol=1e-14)


@pytest.mark.parametrize("L", [LEB, GAUSS], ids=["lebesgue", "gaussian"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_exactness_up_to_2n_minus_1(L, n):
    from mpmath import mp

    g = gauss_rule_from_moments(L, n)
    assert g.max_exactness_residual <= 1e-12
    # the rule's moments are evaluated in high precision so that float
    # summation noise does not obscure the exactness of the rule itself
    with mp.workprec(200):
        for k in range(2 * n):
            mu = moment(L, MultiIndex((k,)), PrecisionConfig.extended(200))
            q = sum(mp.mpf(w) * mp.mpf(x) ** k for x, w in zip(g.nodes, g.weights))
            assert abs(q - mu) <= 1e-12 * max(1.0, abs(mu))


def test_degree_2n_is_not_exact():
    """Exactness genuinely stops at 2N - 1: the degree-2N residual is large
    relative to the exactness tolerance."""
    for L, n in ((LEB, 8), (LEB, 3), (GAUSS, 4)):
        g = gauss_rule_from_moments(L, n)
        k = 2 * n
        mu = float(moment(L, MultiIndex((k,))))
        resid = abs(float(g.rule.apply(lambda x: x ** k)) - mu) / max(1.0, abs(mu))
        assert resid > 1e-6


def test_nodes_increasing_weights_positive_interior():
    for L in (LEB, GAUSS):
        for n in (2, 5, 8):
            g = gauss_rule_from_moments(L, n)
            assert all(a < b for a, b in zip(g.nodes, g.nodes[1:]))
            assert all(w > 0 for w in g.weights)
    g = gauss_rule_from_moments(LEB, 8)
    assert all(-1.0 < x < 1.0 for x in g.nodes)


def test_extended_precision_construction():
    from mpmath import mp

    g = gauss_rule_from_moments(LEB, 5, PrecisionConfig.extended(256))
    with mp.workprec(300):
        # nodes are stored as machine floats; weights keep the working
        # precision.  Degree-5 Legendre: x_0 = -sqrt((35 + 2 sqrt(70)) / 63),
        # center weight 128/225.
        ref = -mp.sqrt((35 + 2 * mp.sqrt(70)) / 63)
        assert abs(mp.mpf(g.nodes[0]) - ref) < 1e-15
        w_mid = g.rule.weights[2]
        assert isinstance(w_mid, mp.mpf)
        assert abs(w_mid - mp.mpf(128) / 225) < mp.mpf(2) ** -240


def test_chebyshev_zero_count_bound():
    # c0 + c1 x + c2 x^2 with two sign changes in (-1, 1)
    assert chebyshev_system_zero_count(5.0, [-0.25, 0.0, 1.0]) == 2
    # a pure monomial x has one
    assert chebyshev_system_zero_count(5.0, [0.0, 1.0]) == 1
    assert chebyshev_system_zero_count(5.0, [1.0]) == 0


def test_damped_monomial_combinations_respect_zero_bound():
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.integers(1, 6)
        c = rng.normal(size=m + 1)
        zeros = chebyshev_system_zero_count(10.0, list(c))
        assert zeros <= m


def test_optimizer_settings_validation():
    # zero restarts keeps only the deterministic start and is allowed
    OptimizerSettings(restarts=0)
    with pytest.raises(ValueError):
        OptimizerSettings(restarts=-1)
    with pytest.raises(ValueError):
        OptimizerSettings(max_evals=0)
    with pytest.raises(ValueError):
        OptimizerSettings(search_box=(1.0, -1.0))


def test_optimized_rule_approaches_gauss_legendre():
    """At large length scale the jointly optimized two-point rule lands on
    the Gauss-Legendre nodes and weights."""
    k = KernelSpec.gaussian(100.0)
    settings = OptimizerSettings(restarts=2, max_evals=3000, seed=0)
    rule, trace = optimize_points(k, LEB, 2, settings=settings)
    assert trace.converged
    g = gauss_rule_from_moments(LEB, 2)
    node_err = max(abs(a[0] - b) for a, b in zip(rule.points, g.nodes))
    weight_err = max(abs(float(a) - b) for a, b in zip(rule.weights, g.weights))
    assert node_err <= 1e-3
    assert weight_err <= 1e-3


def test_optimizer_trace_is_monotone_and_seeded():
    k = KernelSpec.gaussian(30.0)
    settings = OptimizerSettings(restarts=2, max_evals=2000, seed=11)
    rule1, trace1 = optimize_points(k, LEB, 2, settings=settings)
    vals = [e.wce for e in trace1.entries]
    assert vals == sorted(vals, reverse=True)
    assert trace1.n_evaluations > 0

    rule2, trace2 = optimize_points(k, LEB, 2, settings=settings)
    assert rule1.points == rule2.points
    assert tuple(map(float, rule1.weights)) == tuple(map(float, rule2.weights))


def test_optimized_rule_beats_fixed_symmetric_nodes():
    from flatlimit import PointSet, optimal_weights

    k = KernelSpec.gaussian(20.0)
    prec = PrecisionConfig.extended(192)
    settings = OptimizerSettings(restarts=2, max_evals=2000, seed=0)
    rule, trace = optimize_points(k, LEB, 2, prec, settings)
    e_opt = float(worst_case_error(k, LEB, rule, prec).wce)
    fixed = PointSet.from_1d([-1.0, 1.0])
    e_fixed = float(
        worst_case_error(k, LEB, optimal_weights(k, LEB, fixed, prec).rule, prec).wce
    )
    assert e_opt <= e_fixed * (1 + 1e-10)


def test_optimizer_falls_back_to_grid_start_only_on_library_errors(monkeypatch):
    def no_gauss_rule(*args, **kwargs):
        raise NumericallyIndefiniteError("Hankel moment matrix is not positive definite")

    monkeypatch.setattr(gauss_optimal, "gauss_rule_from_moments", no_gauss_rule)
    settings = OptimizerSettings(restarts=0, max_evals=20, seed=0)
    _, trace = optimize_points(KernelSpec.gaussian(5.0), LEB, 2, settings=settings)
    assert trace.restart_summaries[0]["start"] == "grid"

    def broken(*args, **kwargs):
        raise RuntimeError("programming error")

    monkeypatch.setattr(gauss_optimal, "gauss_rule_from_moments", broken)
    with pytest.raises(RuntimeError, match="programming error"):
        optimize_points(KernelSpec.gaussian(5.0), LEB, 2, settings=settings)


def test_optimizer_without_a_feasible_evaluation_raises_inconsistency(monkeypatch):
    def indefinite(*args, **kwargs):
        raise NumericallyIndefiniteError("Cholesky failed")

    # every evaluation of the extended search reads as the zero rule, so no
    # restart records a feasible point
    monkeypatch.setattr(cubature, "solve_spd", indefinite)
    settings = OptimizerSettings(restarts=1, max_evals=20, seed=0)
    with pytest.raises(NumericalInconsistencyError, match="feasible"):
        optimize_points(KernelSpec.gaussian(1e4), LEB, 2, EXT, settings)


def test_float64_search_without_a_feasible_evaluation_raises_inconsistency(monkeypatch):
    def singular(*args, **kwargs):
        raise SingularMatrixError("zero pivot")

    monkeypatch.setattr(gauss_optimal, "_basis_solve", singular)
    settings = OptimizerSettings(restarts=1, max_evals=20, seed=0)
    with pytest.raises(NumericalInconsistencyError, match="feasible"):
        optimize_points(KernelSpec.gaussian(5.0), LEB, 2, EXT, settings)


def test_optimized_rule_is_the_last_recorded_iterate():
    settings = OptimizerSettings(restarts=2, max_evals=300, seed=3)
    rule, trace = optimize_points(KernelSpec.gaussian(5.0), LEB, 2, EXT, settings)
    assert tuple(p[0] for p in rule.points) == trace.entries[-1].points
    assert rule.weights_float() == trace.entries[-1].weights


def test_node_construction_rejects_point_evaluation():
    L = FunctionalSpec.point_eval(0.3)
    with pytest.raises(ValueError, match="point evaluation"):
        optimize_points(KernelSpec.gaussian(5.0), L, 2, EXT)
    with pytest.raises(ValueError, match="point evaluation"):
        gauss_rule_from_moments(L, 1)


def _extended_objective(k, L, nodes, prec):
    return gauss_optimal._envelope_gradient(k, L, double_embedding(L, k, prec), PointSet.from_1d(nodes), prec)[1:]


def _float64_objective(k, L, nodes, prec):
    box = (-1.0, 1.0) if L.is_bounded else (-10.0, 10.0)
    basis = gauss_optimal._BasisResidual(k, L, len(nodes), box, prec)
    return basis.envelope(np.array(nodes))[1:]


GRADIENT_CASES = [
    # the extended objective at l = 5 is the base case, with the short ids
    pytest.param(
        objective, ell, L, nodes,
        id="-".join([node_id, L_id] + ([] if (lane, ell) == ("extended", 5.0) else [f"{ell:g}", lane])),
    )
    for node_id, nodes in (("N2", [-0.5, 0.6]), ("N3", [-0.7, 0.1, 0.8]))
    for L_id, L in (("lebesgue", LEB), ("gaussian", GAUSS))
    for ell in (5.0, 100.0)
    for lane, objective in (("extended", _extended_objective), ("float64", _float64_objective))
]


@pytest.mark.parametrize("objective,ell,L,nodes", GRADIENT_CASES)
def test_envelope_gradient_matches_numeric_differentiation(objective, ell, L, nodes):
    """The envelope gradient of e^2, from the extended Gram solve at the
    optimizer's bits and from the float64 basis residual, against a
    central difference (h = 2^-20, exact in float64 nodes) of the 256-bit
    wce^2 of the re-solved optimal weights, to a relative 1e-10; the
    difference's own error is about h^2."""
    from mpmath import mp

    k = KernelSpec.gaussian(ell)
    prec = PrecisionConfig.extended(gauss_optimal._default_optimizer_bits(ell, len(nodes)))
    _, de2 = objective(k, L, nodes, prec)
    ref = PrecisionConfig.extended(256)

    def e2_at(xs):
        return worst_case_error(k, L, optimal_weights(k, L, PointSet.from_1d(xs), ref), ref).wce ** 2

    for n in range(len(nodes)):
        with mp.workprec(256):
            moved = lambda t: e2_at([float(t) if m == n else v for m, v in enumerate(nodes)])
            numeric = mp.diff(moved, nodes[n], h=mp.mpf(2) ** -20)
            assert abs(de2[n] - numeric) <= 1e-10 * abs(numeric), n


def test_three_optimized_nodes_approach_gauss_legendre():
    """N = 3 on [-1, 1] at l = 10: the nodes land within 1e-3 of
    (-sqrt(0.6), 0, sqrt(0.6)), and the wce is at most that of those
    Gauss-Legendre nodes with their optimal weights."""
    k = KernelSpec.gaussian(10.0)
    rule, trace = optimize_points(k, LEB, 3, settings=OptimizerSettings(restarts=3))
    assert trace.converged
    gauss = [-math.sqrt(0.6), 0.0, math.sqrt(0.6)]
    assert max(abs(p[0] - g) for p, g in zip(rule.points, gauss)) <= 1e-3
    prec = PrecisionConfig.extended(gauss_optimal._default_optimizer_bits(10.0, 3))
    e_gauss = worst_case_error(k, LEB, optimal_weights(k, LEB, PointSet.from_1d(gauss), prec), prec).wce
    assert worst_case_error(k, LEB, rule, prec).wce <= e_gauss


def test_nonpositive_squared_wce_raises(monkeypatch):
    """LL[K] - w.z <= 0 is not clamped: with LL[K] read as 0 the first
    evaluation of the extended search raises."""
    monkeypatch.setattr(gauss_optimal, "double_embedding", lambda L, spec, prec: prec.to_real(0))
    settings = OptimizerSettings(restarts=0, max_evals=20, seed=0)
    with pytest.raises(NumericalInconsistencyError, match="not positive"):
        optimize_points(KernelSpec.gaussian(1e4), LEB, 2, EXT, settings)


def test_float64_nonpositive_squared_wce_raises(monkeypatch):
    """A zero basis residual is not clamped either: the first evaluation of
    the float64 search raises."""
    solve = gauss_optimal._basis_solve

    def zero_residual(phi, c):
        w, _, r = solve(phi, c)
        return w, 0.0, r

    monkeypatch.setattr(gauss_optimal, "_basis_solve", zero_residual)
    settings = OptimizerSettings(restarts=0, max_evals=20, seed=0)
    with pytest.raises(NumericalInconsistencyError, match="not positive"):
        optimize_points(KernelSpec.gaussian(5.0), LEB, 2, EXT, settings)


@pytest.mark.parametrize("ell,search", [(100.0, "float64"), (1e4, "extended")])
def test_search_lane_finds_a_rule_no_worse_than_gauss_legendre(ell, search):
    """N = 2 on each side of the lane rule 2 N log2(l / R) <= 40: the found
    wce is at most that of the Gauss-Legendre nodes with their optimal
    weights, both at the optimizer's bits."""
    k = KernelSpec.gaussian(ell)
    rule, trace = optimize_points(k, LEB, 2, settings=OptimizerSettings(restarts=1, seed=0))
    assert trace.search == search
    prec = PrecisionConfig.extended(gauss_optimal._default_optimizer_bits(ell, 2))
    nodes = PointSet.from_1d(gauss_rule_from_moments(LEB, 2).nodes)
    e_gauss = worst_case_error(k, LEB, optimal_weights(k, LEB, nodes, prec), prec).wce
    assert worst_case_error(k, LEB, rule, prec).wce <= e_gauss


def test_float64_search_on_a_numeric_oracle_matches_the_box():
    """The float64 coefficients of a numeric oracle come from quadrature:
    with density 1 on [-1, 1] the search lands on the Lebesgue box's
    nodes."""
    k = KernelSpec.gaussian(10.0)
    settings = OptimizerSettings(restarts=0, seed=0)
    oracle = FunctionalSpec.numeric_oracle(lambda t: 1, -1.0, 1.0)
    rule, trace = optimize_points(k, oracle, 2, settings=settings)
    box_rule, _ = optimize_points(k, LEB, 2, settings=settings)
    assert trace.search == "float64"
    assert max(abs(p[0] - q[0]) for p, q in zip(rule.points, box_rule.points)) <= 1e-6


def test_float64_study_makes_one_gram_solve_per_length_scale(monkeypatch):
    """On the float64 side the search solves no Gram system; only the
    winning nodes are re-solved, once per length scale."""
    calls = []
    solve = cubature.solve_spd

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cubature, "solve_spd", counting)
    cfg = OptimalStudyConfig(
        kernel_family="gaussian", functional=LEB, n_points=2, ell_min=5.0, ell_max=100.0, ell_count=3,
        optimizer=OptimizerSettings(restarts=1, seed=0),
    )
    result = run_optimal_study(cfg)
    assert [r.search for r in result.records] == ["float64"] * 3
    assert len(calls) == 3


def test_single_blas_thread_restores_the_thread_count():
    openblas = gauss_optimal._scipy_openblas()
    if openblas is None:
        pytest.skip("scipy does not bundle OpenBLAS here")
    get_threads, _ = openblas
    before = get_threads()
    with gauss_optimal._single_blas_thread():
        assert get_threads() == 1
    assert get_threads() == before

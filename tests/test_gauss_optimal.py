import math

import pytest
from numpy.testing import assert_allclose

import flatlimit.gauss_optimal as gauss_optimal
from flatlimit import (
    FunctionalSpec,
    NumericallyIndefiniteError,
    KernelSpec,
    MultiIndex,
    OptimizerSettings,
    PrecisionConfig,
    chebyshev_system_zero_count,
    gauss_rule_from_moments,
    moment,
    optimize_points,
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

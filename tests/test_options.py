"""The inventory of every setting a caller can give: the fields of the
configuration objects, the config keys and flags of each CLI command,
and the public names of the package.  An option or a name added or
removed has to edit this file, so the count of them shows in review."""
import argparse
import inspect
import re

import pytest
import yaml

import flatlimit
from flatlimit import cli
from flatlimit.core import PrecisionConfig
from flatlimit.experiments import OptimalStudyConfig, SweepConfig
from flatlimit.functionals import FunctionalSpec
from flatlimit.gauss_optimal import OptimizerSettings

FIELDS = {
    PrecisionConfig: ("mode", "bits"),
    FunctionalSpec: ("kind", "dimension", "location", "lower", "upper", "density"),
    OptimizerSettings: ("restarts", "max_evals", "seed"),
    SweepConfig: (
        "functional", "points", "degree", "ell_min", "ell_max", "ell_count",
        "precision", "fit_window",
    ),
    OptimalStudyConfig: (
        "functional", "n_points", "ell_min", "ell_max", "ell_count",
        "precision", "fit_window", "optimizer",
    ),
}

# the top-level config keys of each command, precision included
KEYS = {
    "sweep": {"kernel", "functional", "points", "degree", "ell_grid", "fit_window", "precision"},
    "optimal": {
        "kernel", "functional", "n_points", "ell_grid", "fit_window", "optimizer", "precision", "seed",
    },
    "gauss": {"functional", "n_points", "precision"},
    "wce": {"kernel", "functional", "points", "weights", "assume_optimal", "precision"},
    "check-unisolvent": {"points", "degree", "precision"},
}

BOX = {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0}
GRID = {"min": 10.0, "max": 100.0, "count": 2}
# (command, config, block): the keys a nested block accepts
BLOCKS = {
    ("optimal", "optimizer"): (
        {"kernel": {"family": "gaussian"}, "functional": BOX, "n_points": 2, "ell_grid": GRID},
        {"restarts", "max_evals", "seed"},
    ),
    ("sweep", "ell_grid"): (
        {"kernel": {"family": "gaussian"}, "functional": BOX, "points": [-1.0, 1.0], "degree": 1},
        {"min", "max", "count"},
    ),
}

COMMON_FLAGS = {"--config", "--out", "--precision"}
FLAGS = {**{command: COMMON_FLAGS for command in KEYS}, "optimal": COMMON_FLAGS | {"--seed"}}

PUBLIC = {
    "__version__",
    # core
    "MACHINE", "CubatureRule", "MultiIndex", "MultiIndexSet", "PointSet", "PrecisionConfig",
    "enumerate_multi_indices", "monomial_eval",
    # cubature
    "UnisolvencyReport", "WeightSolution", "WorstCaseReport", "optimal_weights", "phi_weights",
    "polynomial_weights", "unisolvency_check", "worst_case_error",
    # errors
    "ConfigError", "FlatLimitError", "NotUnisolventError", "NumericalInconsistencyError",
    "NumericallyIndefiniteError", "QuadratureError", "SingularMatrixError",
    # experiments
    "OptimalRecord", "OptimalStudyConfig", "OptimalStudyResult", "RateFit", "SweepConfig", "SweepRecord",
    "SweepResult", "fit_rate", "run_optimal_study", "run_sweep",
    # functionals
    "FunctionalSpec", "apply_functional", "damped_moment", "double_embedding", "kernel_embedding", "moment",
    # gauss_optimal
    "GaussRule", "OptimizationTrace", "OptimizerSettings", "chebyshev_system_zero_count",
    "gauss_rule_from_moments", "optimize_points",
    # kernels
    "gram_matrix", "kernel_eval", "phi_basis_eval",
    # linalg
    "SolveResult", "auto_precision_bits", "condition_estimate", "solve_general", "solve_spd",
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_configuration_fields(cls):
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]


def allowed_keys(command: str, cfg: dict, tmp_path, capsys) -> set:
    """The keys the unknown-key error of ``command`` lists for ``cfg``."""
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    found = re.search(r"unknown key\(s\) \['zz_unknown'\] in .*; allowed: (\[.*\])$", err.strip())
    assert found, err
    return set(yaml.safe_load(found.group(1)))


def test_every_command_is_inventoried():
    assert set(cli._COMMANDS) == set(KEYS)


@pytest.mark.parametrize("command", KEYS)
def test_command_config_keys(command, tmp_path, capsys):
    assert allowed_keys(command, {"zz_unknown": 1}, tmp_path, capsys) == KEYS[command]


@pytest.mark.parametrize("command,block", BLOCKS, ids=["-".join(k) for k in BLOCKS])
def test_nested_block_keys(command, block, tmp_path, capsys):
    cfg, expected = BLOCKS[(command, block)]
    assert allowed_keys(command, {**cfg, block: {"zz_unknown": 1}}, tmp_path, capsys) == expected


def test_command_flags():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(KEYS)
    for name, sub in commands.choices.items():
        flags = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == FLAGS[name], name


def test_public_names():
    assert len(flatlimit.__all__) == len(PUBLIC) and set(flatlimit.__all__) == PUBLIC
    assert all(hasattr(flatlimit, name) for name in PUBLIC)

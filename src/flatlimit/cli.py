"""Command-line front end.

Subcommands: ``sweep`` (flat-limit weight sweep), ``optimal`` (node
optimization study), ``gauss`` (Gaussian quadrature from moments), ``wce``
(worst-case error of one rule), ``check-unisolvent``.  Configuration comes
from a YAML file; unknown keys are hard errors so typos cannot silently
change an experiment.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

import yaml

from .core import CubatureRule, PointSet
from .cubature import optimal_weights, unisolvency_check, worst_case_error
from .errors import ConfigError, FlatLimitError
from .experiments import (
    OptimalStudyConfig,
    SweepConfig,
    _precision_for,
    format_real,
    gauss_csv_lines,
    optimal_csv_lines,
    optimal_manifest,
    run_optimal_study,
    run_sweep,
    sweep_csv_lines,
    sweep_manifest,
)
from .functionals import FunctionalSpec
from .gauss_optimal import OptimizerSettings, gauss_rule_from_moments
from .kernels import KernelSpec
from .linalg import auto_precision_bits

ENV_PRECISION = "FLATLIMIT_PRECISION_BITS"


def _check_keys(d: dict, allowed: set[str], context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}; allowed: {sorted(allowed)}")


def _parse_functional(d) -> FunctionalSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("functional must be a mapping with a 'kind' key")
    kind = d["kind"]
    try:
        if kind == "point_eval":
            _check_keys(d, {"kind", "location"}, "functional")
            if "location" not in d:
                raise ConfigError("point_eval functional needs 'location'")
            return FunctionalSpec.point_eval(d["location"])
        if kind == "lebesgue_box":
            _check_keys(d, {"kind", "lower", "upper"}, "functional")
            if "lower" not in d or "upper" not in d:
                raise ConfigError("lebesgue_box functional needs 'lower' and 'upper'")
            return FunctionalSpec.lebesgue_box(d["lower"], d["upper"])
        if kind == "gaussian_measure":
            _check_keys(d, {"kind", "dimension"}, "functional")
            return FunctionalSpec.gaussian_measure(int(d.get("dimension", 1)))
        if kind == "numeric_oracle":
            raise ConfigError(
                "numeric_oracle functionals carry a Python callable and are only "
                "available through the library API, not config files"
            )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid functional: {e}") from e
    raise ConfigError(f"unknown functional kind {kind!r}")


def _parse_points(v) -> PointSet:
    if not isinstance(v, list) or not v:
        raise ConfigError("points must be a non-empty list")
    try:
        return PointSet.from_points(v)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid points: {e}") from e


def _parse_kernel(d, need_length_scale: bool):
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError("kernel must be a mapping with a 'family' key")
    allowed = {"family", "length_scale"} if need_length_scale else {"family"}
    _check_keys(d, allowed, "kernel")
    family = d["family"]
    if family == "damped_power_series":
        raise ConfigError(
            "damped_power_series kernels carry a Python callable and are only "
            "available through the library API, not config files"
        )
    if need_length_scale:
        if "length_scale" not in d:
            raise ConfigError("kernel needs 'length_scale' for this command")
        try:
            return KernelSpec(family, float(d["length_scale"]))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid kernel: {e}") from e
    try:
        KernelSpec(family, 1.0)
    except ValueError as e:
        raise ConfigError(f"invalid kernel: {e}") from e
    return family


def _parse_ell_grid(d) -> tuple[float, float, int]:
    if not isinstance(d, dict):
        raise ConfigError("ell_grid must be a mapping with min, max, count")
    _check_keys(d, {"min", "max", "count"}, "ell_grid")
    try:
        return float(d["min"]), float(d["max"]), int(d["count"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid ell_grid: {e}") from e


def _parse_precision(v):
    if isinstance(v, str) and v in ("auto", "machine"):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and v.isdigit():
        return int(v)
    raise ConfigError(f"precision must be 'auto', 'machine' or a bit count, got {v!r}")


def _parse_fit_window(v):
    if v is None:
        return "middle"
    if v in ("middle", "full"):
        return v
    if isinstance(v, list) and len(v) == 2:
        return (float(v[0]), float(v[1]))
    raise ConfigError(f"fit_window must be 'middle', 'full' or [lo, hi], got {v!r}")


def _parse_optimizer(d) -> OptimizerSettings:
    if d is None:
        return OptimizerSettings()
    if not isinstance(d, dict):
        raise ConfigError("optimizer must be a mapping")
    allowed = {"restarts", "max_evals", "seed", "search_box", "xatol_rel", "fatol_rel"}
    _check_keys(d, allowed, "optimizer")
    kwargs = dict(d)
    if "search_box" in kwargs and kwargs["search_box"] is not None:
        box = kwargs["search_box"]
        if not (isinstance(box, list) and len(box) == 2):
            raise ConfigError("optimizer search_box must be [lo, hi]")
        kwargs["search_box"] = (float(box[0]), float(box[1]))
    try:
        return OptimizerSettings(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid optimizer settings: {e}") from e


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as e:
        raise ConfigError(f"config file is not valid YAML: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping at top level")
    return raw


def _apply_overrides(raw: dict, args) -> dict:
    """Precision priority: --precision flag, then the environment variable,
    then the config file.  --seed wins over the config similarly."""
    out = dict(raw)
    env = os.environ.get(ENV_PRECISION)
    if env is not None:
        if not env.isdigit():
            raise ConfigError(f"{ENV_PRECISION} must be a bit count, got {env!r}")
        out["precision"] = int(env)
    if getattr(args, "precision", None) is not None:
        out["precision"] = _parse_precision(args.precision)
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    return out


def _sweep_config(raw: dict) -> SweepConfig:
    allowed = {"kernel", "functional", "points", "degree", "ell_grid", "precision", "fit_window", "seed"}
    _check_keys(raw, allowed, "sweep config")
    for key in ("kernel", "functional", "points", "degree", "ell_grid"):
        if key not in raw:
            raise ConfigError(f"sweep config needs '{key}'")
    lo, hi, count = _parse_ell_grid(raw["ell_grid"])
    try:
        return SweepConfig(
            kernel_family=_parse_kernel(raw["kernel"], need_length_scale=False),
            functional=_parse_functional(raw["functional"]),
            points=_parse_points(raw["points"]),
            degree=int(raw["degree"]),
            ell_min=lo,
            ell_max=hi,
            ell_count=count,
            precision=_parse_precision(raw.get("precision", "auto")),
            fit_window=_parse_fit_window(raw.get("fit_window")),
            seed=int(raw.get("seed", 0)),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid sweep config: {e}") from e


def _optimal_config(raw: dict) -> OptimalStudyConfig:
    allowed = {
        "kernel", "functional", "n_points", "ell_grid", "precision",
        "fit_window", "optimizer", "experimental_unbounded", "seed",
    }
    _check_keys(raw, allowed, "optimal config")
    for key in ("kernel", "functional", "n_points", "ell_grid"):
        if key not in raw:
            raise ConfigError(f"optimal config needs '{key}'")
    lo, hi, count = _parse_ell_grid(raw["ell_grid"])
    try:
        return OptimalStudyConfig(
            kernel_family=_parse_kernel(raw["kernel"], need_length_scale=False),
            functional=_parse_functional(raw["functional"]),
            n_points=int(raw["n_points"]),
            ell_min=lo,
            ell_max=hi,
            ell_count=count,
            precision=_parse_precision(raw.get("precision", "auto")),
            fit_window=_parse_fit_window(raw.get("fit_window")),
            optimizer=_parse_optimizer(raw.get("optimizer")),
            allow_unbounded=bool(raw.get("experimental_unbounded", False)),
            seed=int(raw.get("seed", 0)),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid optimal config: {e}") from e


def _write_out(out_dir: str, name: str, lines: list[str]) -> Path:
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    path = d / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _cmd_sweep(args) -> int:
    raw = _apply_overrides(_load_config(args.config), args)
    cfg = _sweep_config(raw)
    result = run_sweep(cfg)
    print(f"sweep: {cfg.kernel_family} kernel, {cfg.functional.label()}, "
          f"{len(cfg.points)} points, degree {cfg.degree}")
    print(f"{'ell':>12} {'wce':>14} {'|w*-w_pol|':>14} {'|w_phi-w_pol|':>14} {'bits':>6}")
    for r in result.records:
        print(f"{r.ell:12.4g} {float(r.wce):14.6e} {r.dist_opt_pol:14.6e} "
              f"{r.dist_phi_pol:14.6e} {r.precision_bits:6d}")
    for ell, msg in result.failures:
        print(f"{ell:12.4g} FAILED: {msg}")
    if result.rate_fit is not None:
        f = result.rate_fit
        print(f"rate fit: slope {f.slope:.4f} (stderr {f.stderr:.4f}) "
              f"over ell in [{f.window[0]:.4g}, {f.window[1]:.4g}], {f.n_used} points")
    for note in result.notes:
        print(f"note: {note}")
    if args.out:
        csv_path = _write_out(args.out, "sweep.csv", sweep_csv_lines(result))
        manifest = sweep_manifest(result, raw)
        _write_out(args.out, "manifest.yaml", [yaml.safe_dump(manifest, sort_keys=False).rstrip()])
        print(f"wrote {csv_path}")
    return 3 if result.failures and not result.records else 0


def _cmd_optimal(args) -> int:
    raw = _apply_overrides(_load_config(args.config), args)
    cfg = _optimal_config(raw)
    result = run_optimal_study(cfg)
    print(f"optimal study: {cfg.kernel_family} kernel, {cfg.functional.label()}, N={cfg.n_points}")
    print(f"gauss nodes: {[round(x, 10) for x in result.gauss.nodes]}")
    print(f"{'ell':>12} {'wce':>14} {'|X-X_G|':>12} {'|w-w_G|':>12} conv")
    for r in result.records:
        print(f"{r.ell:12.4g} {r.wce:14.6e} {r.node_dist_gauss:12.4e} "
              f"{r.weight_dist_gauss:12.4e} {'yes' if r.converged else 'no'}")
    for ell, msg in result.failures:
        print(f"{ell:12.4g} note: {msg}")
    if result.rate_fit is not None:
        f = result.rate_fit
        print(f"rate fit: slope {f.slope:.4f} (stderr {f.stderr:.4f}) "
              f"over ell in [{f.window[0]:.4g}, {f.window[1]:.4g}], {f.n_used} points")
    if args.out:
        csv_path = _write_out(args.out, "optimal.csv", optimal_csv_lines(result))
        manifest = optimal_manifest(result, raw)
        _write_out(args.out, "manifest.yaml", [yaml.safe_dump(manifest, sort_keys=False).rstrip()])
        print(f"wrote {csv_path}")
    return 3 if not result.records and result.failures else 0


def _cmd_gauss(args) -> int:
    raw = _apply_overrides(_load_config(args.config), args)
    _check_keys(raw, {"functional", "n_points", "precision", "seed"}, "gauss config")
    for key in ("functional", "n_points"):
        if key not in raw:
            raise ConfigError(f"gauss config needs '{key}'")
    L = _parse_functional(raw["functional"])
    n = int(raw["n_points"])
    policy = _parse_precision(raw.get("precision", "machine"))
    prec = _precision_for(policy)
    rule = gauss_rule_from_moments(L, n, prec)
    print(f"gauss rule: N={n}, {L.label()}, exact to degree {rule.degree_of_exactness}")
    print(f"max normalized moment residual: {rule.max_exactness_residual:.3e}")
    print(f"{'node':>22} {'weight':>22}")
    for x, w in zip(rule.nodes, rule.weights):
        print(f"{x:22.15e} {w:22.15e}")
    if args.out:
        path = _write_out(args.out, "gauss.csv", gauss_csv_lines(rule, prec.bits))
        print(f"wrote {path}")
    return 0


def _cmd_wce(args) -> int:
    raw = _apply_overrides(_load_config(args.config), args)
    allowed = {"kernel", "functional", "points", "weights", "precision", "assume_optimal", "seed"}
    _check_keys(raw, allowed, "wce config")
    for key in ("kernel", "functional", "points"):
        if key not in raw:
            raise ConfigError(f"wce config needs '{key}'")
    kspec = _parse_kernel(raw["kernel"], need_length_scale=True)
    L = _parse_functional(raw["functional"])
    points = _parse_points(raw["points"])
    policy = _parse_precision(raw.get("precision", "auto"))
    prec = _precision_for(policy, auto_precision_bits(kspec.length_scale, len(points)))
    if "weights" in raw and raw["weights"] is not None:
        ws = raw["weights"]
        if not isinstance(ws, list) or len(ws) != len(points):
            raise ConfigError(f"weights must be a list of {len(points)} numbers")
        rule = CubatureRule(points, tuple(float(w) for w in ws))
        assume = bool(raw.get("assume_optimal", False))
    else:
        rule = optimal_weights(kspec, L, points, prec)  # a WeightSolution, reused below
        assume = True
    report = worst_case_error(kspec, L, rule, prec, assume_optimal=assume)
    print(f"wce: {format_real(report.wce, prec.bits)}")
    print(f"initial term LL[K]: {format_real(report.initial_term, prec.bits)}")
    print(f"cross term w.z:     {format_real(report.cross_term, prec.bits)}")
    print(f"quadratic form:     {format_real(report.quadratic_form, prec.bits)}")
    print(f"gram condition:     {report.condition:.6e}")
    print(f"weights: {[float(w) for w in rule.weights]}")
    return 0


def _cmd_check_unisolvent(args) -> int:
    raw = _apply_overrides(_load_config(args.config), args)
    _check_keys(raw, {"points", "degree", "precision", "seed"}, "check-unisolvent config")
    for key in ("points", "degree"):
        if key not in raw:
            raise ConfigError(f"check-unisolvent config needs '{key}'")
    points = _parse_points(raw["points"])
    degree = int(raw["degree"])
    policy = _parse_precision(raw.get("precision", "machine"))
    prec = _precision_for(policy)
    report = unisolvency_check(points, degree, prec)
    print(f"status: {report.status}")
    print(f"condition estimate: {report.condition:.6e} (threshold {report.threshold:.6e})")
    return 0 if report.ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlimit",
        description="Flat-limit experiments for worst-case optimal kernel cubature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML configuration file")
    common.add_argument("--out", default=None, help="directory for CSV and manifest output")
    common.add_argument(
        "--precision",
        default=None,
        help="override precision policy: auto, machine, or a bit count",
    )
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_parser("sweep", parents=[common], help="flat-limit weight sweep").set_defaults(fn=_cmd_sweep)
    sub.add_parser("optimal", parents=[common], help="node optimization study").set_defaults(fn=_cmd_optimal)
    sub.add_parser("gauss", parents=[common], help="Gaussian quadrature from moments").set_defaults(fn=_cmd_gauss)
    sub.add_parser("wce", parents=[common], help="worst-case error of one rule").set_defaults(fn=_cmd_wce)
    sub.add_parser(
        "check-unisolvent", parents=[common], help="polynomial unisolvency check"
    ).set_defaults(fn=_cmd_check_unisolvent)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FlatLimitError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

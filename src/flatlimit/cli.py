"""Command-line front end.

Subcommands: ``sweep`` (flat-limit weight sweep), ``optimal`` (node
optimization study), ``gauss`` (Gaussian quadrature from moments), ``wce``
(worst-case error of one rule), ``check-unisolvent``.

This module loads the YAML configuration, applies the ``--precision``
override (and ``optimal``'s ``--seed``), checks the keys, dispatches each
subcommand to its parse step and its run step, and prints and writes the
output; :mod:`flatlimit.yamlio` reads the configuration and writes the
manifest.  The value rules live with the configurations in
:mod:`flatlimit.experiments`.  Unknown keys are hard errors so typos cannot
silently change an experiment.  Exit codes: 0 success, 2 configuration
error (anything the parse step rejects), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import yamlio
from .core import CubatureRule, PointSet, _length_scale, _real
from .cubature import _check_dims, _monomials, optimal_weights, unisolvency_check, worst_case_error
from .errors import ConfigError, FlatLimitError
from .experiments import (
    OptimalStudyConfig,
    SweepConfig,
    _digits,
    _precision_for,
    _precision_policy,
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
from .gauss_optimal import OptimizerSettings, _check_nodes, gauss_rule_from_moments
from .linalg import auto_precision_bits


def _keys(d, context: str, required: tuple = (), optional: tuple = ()) -> dict:
    """``d`` itself, once it is a mapping with every required key and no
    key outside ``required`` and ``optional``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be a mapping")
    allowed = {*required, *optional}
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}; allowed: {sorted(allowed)}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{context} needs '{key}'")
    return d


def _load(args, required: tuple, optional: tuple) -> dict:
    """The config file of ``args`` with the overrides applied and its keys
    checked; every command also takes ``precision``."""
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {args.config}")
    raw = yamlio.load(path.read_text())
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping at top level")
    if args.precision is not None:
        raw["precision"] = _precision_policy(args.precision)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    return _keys(raw, f"{args.command} config", required, (*optional, "precision"))


def _int(value) -> int:
    """An integer config value: an integer or a string of the digits 0-9
    alone, never a float or a bool truncated to one."""
    if isinstance(value, bool) or not isinstance(value, int) and not _digits(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _list(value, key: str) -> list:
    """A list config value; a string would be read one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a list, got {value!r}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _functional(d) -> FunctionalSpec:
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind == "point_eval":
        _keys(d, "functional", ("kind", "location"))
        return FunctionalSpec.point_eval(d["location"])
    if kind == "lebesgue_box":
        _keys(d, "functional", ("kind", "lower", "upper"))
        return FunctionalSpec.lebesgue_box(d["lower"], d["upper"])
    if kind == "gaussian_measure":
        _keys(d, "functional", ("kind",), ("dimension",))
        return FunctionalSpec.gaussian_measure(_int(d.get("dimension", 1)))
    if kind == "numeric_oracle":
        raise ConfigError(
            "numeric_oracle functionals carry a Python callable and are only "
            "available through the library API, not config files"
        )
    raise ConfigError(
        f"functional must be a mapping with kind point_eval, lebesgue_box or gaussian_measure, got {d!r}"
    )


def _kernel(d, need_length_scale: bool) -> Optional[float]:
    """The kernel of a config, whose family must be the library's one
    kernel, the Gaussian; without ``length_scale`` (a sweep or a study
    walks its own grid) only the family is checked."""
    _keys(d, "kernel", ("family", "length_scale") if need_length_scale else ("family",))
    if d["family"] != "gaussian":
        raise ConfigError(f"unknown kernel family {d['family']!r}; the one kernel is 'gaussian'")
    return _length_scale(d["length_scale"]) if need_length_scale else None


def _optimizer(d) -> OptimizerSettings:
    if d is None:
        return OptimizerSettings()
    keys = _keys(d, "optimizer", (), ("restarts", "max_evals", "seed"))
    return OptimizerSettings(**{key: _int(value) for key, value in keys.items()})


def _study_fields(raw: dict) -> dict:
    """The fields a sweep and an optimal study read alike."""
    grid = _keys(raw["ell_grid"], "ell_grid", ("min", "max", "count"))
    window = raw.get("fit_window")
    _kernel(raw["kernel"], need_length_scale=False)
    return {
        "functional": _functional(raw["functional"]),
        "ell_min": _real(grid["min"]),
        "ell_max": _real(grid["max"]),
        "ell_count": _int(grid["count"]),
        "precision": raw.get("precision", "auto"),
        "fit_window": "middle" if window is None else window,
    }


def _write_out(out_dir: str, name: str, lines: list[str]) -> Path:
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    path = d / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _finish(result, raw: dict, out: Optional[str], csv_name: str, csv_lines, manifest) -> int:
    """The tail of a sweep or a study: rate fit, notes, CSV and manifest."""
    if result.rate_fit is not None:
        f = result.rate_fit
        print(f"rate fit: slope {f.slope:.4f} (stderr {f.stderr:.4f}) "
              f"over ell in [{f.window[0]:.4g}, {f.window[1]:.4g}], {f.n_used} points")
    for note in result.notes:
        print(f"note: {note}")
    if out:
        csv_path = _write_out(out, csv_name, csv_lines(result))
        _write_out(out, "manifest.yaml", [yamlio.dump(manifest(result, raw)).rstrip()])
        print(f"wrote {csv_path}")
    return 3 if result.failures and not result.records else 0


def _parse_sweep(raw: dict) -> SweepConfig:
    return SweepConfig(
        points=PointSet.from_points(_list(raw["points"], "points")),
        degree=_int(raw["degree"]),
        **_study_fields(raw),
    )


def _run_sweep(cfg: SweepConfig, raw: dict, out: Optional[str]) -> int:
    result = run_sweep(cfg)
    print(f"sweep: gaussian kernel, {cfg.functional.label()}, "
          f"{len(cfg.points)} points, degree {cfg.degree}")
    print(f"{'ell':>12} {'wce':>14} {'|w*-w_pol|':>14} {'|w_phi-w_pol|':>14} {'bits':>6}")
    for r in result.records:
        print(f"{r.ell:12.4g} {float(r.wce):14.6e} {r.dist_opt_pol:14.6e} "
              f"{r.dist_phi_pol:14.6e} {r.precision_bits:6d}")
    for ell, msg in result.failures:
        print(f"{ell:12.4g} FAILED: {msg}")
    return _finish(result, raw, out, "sweep.csv", sweep_csv_lines, sweep_manifest)


def _parse_optimal(raw: dict) -> OptimalStudyConfig:
    optimizer = _optimizer(raw.get("optimizer"))
    if "seed" in raw:  # --seed (already in raw), then the top-level seed, then the optimizer's
        optimizer = OptimizerSettings(optimizer.restarts, optimizer.max_evals, _int(raw["seed"]))
    return OptimalStudyConfig(
        n_points=_int(raw["n_points"]),
        optimizer=optimizer,
        **_study_fields(raw),
    )


def _run_optimal(cfg: OptimalStudyConfig, raw: dict, out: Optional[str]) -> int:
    result = run_optimal_study(cfg)
    print(f"optimal study: gaussian kernel, {cfg.functional.label()}, N={cfg.n_points}")
    print(f"gauss nodes: {[round(x, 10) for x in result.gauss.nodes]}")
    print(f"{'ell':>12} {'wce':>14} {'|X-X_G|':>12} {'|w-w_G|':>12} conv")
    for r in result.records:
        print(f"{r.ell:12.4g} {r.wce:14.6e} {r.node_dist_gauss:12.4e} "
              f"{r.weight_dist_gauss:12.4e} {'yes' if r.converged else 'no'}")
    for ell, msg in result.failures:
        print(f"{ell:12.4g} note: {msg}")
    return _finish(result, raw, out, "optimal.csv", optimal_csv_lines, optimal_manifest)


def _parse_gauss(raw: dict):
    L, n = _functional(raw["functional"]), _int(raw["n_points"])
    _check_nodes(L, n)
    return L, n, _precision_for(raw.get("precision", "machine"))


def _run_gauss(job, raw: dict, out: Optional[str]) -> int:
    L, n, prec = job
    rule = gauss_rule_from_moments(L, n, prec)
    print(f"gauss rule: N={n}, {L.label()}, exact to degree {rule.degree_of_exactness}")
    print(f"max normalized moment residual: {rule.max_exactness_residual:.3e}")
    print(f"{'node':>22} {'weight':>22}")
    for x, w in zip(rule.nodes, rule.weights):
        print(f"{x:22.15e} {w:22.15e}")
    if out:
        print(f"wrote {_write_out(out, 'gauss.csv', gauss_csv_lines(rule, prec.bits))}")
    return 0


def _parse_wce(raw: dict):
    ell = _kernel(raw["kernel"], need_length_scale=True)
    L = _functional(raw["functional"])
    points = PointSet.from_points(_list(raw["points"], "points"))
    _check_dims(L, points)
    prec = _precision_for(raw.get("precision", "auto"), auto_precision_bits(ell, len(points)))
    if raw.get("weights") is None:
        return ell, L, points, None, True, prec  # the optimal weights
    rule = CubatureRule(points, tuple(_real(w) for w in _list(raw["weights"], "weights")))
    return ell, L, points, rule, _bool(raw.get("assume_optimal", False)), prec


def _run_wce(job, raw: dict, out: Optional[str]) -> int:
    ell, L, points, rule, assume, prec = job
    if rule is None:
        rule = optimal_weights(ell, L, points, prec)  # its Gram assembly and condition are reused
    report = worst_case_error(ell, L, rule, prec, assume_optimal=assume)
    print(f"wce: {format_real(report.wce, prec.bits)}")
    print(f"initial term LL[K]: {format_real(report.initial_term, prec.bits)}")
    print(f"cross term w.z:     {format_real(report.cross_term, prec.bits)}")
    print(f"quadratic form:     {format_real(report.quadratic_form, prec.bits)}")
    print(f"gram condition:     {report.condition:.6e}")
    print(f"weights: {[float(w) for w in rule.weights]}")
    return 0


def _parse_check_unisolvent(raw: dict):
    points = PointSet.from_points(_list(raw["points"], "points"))
    degree = _int(raw["degree"])
    _monomials(points, degree)
    return points, degree, _precision_for(raw.get("precision", "machine"))


def _run_check_unisolvent(job, raw: dict, out: Optional[str]) -> int:
    report = unisolvency_check(*job)
    print(f"status: {report.status}")
    print(f"condition estimate: {report.condition:.6e} (threshold {report.threshold:.6e})")
    return 0 if report.ok else 3


# name: (help, required keys, optional keys besides precision, parse, run)
_COMMANDS = {
    "sweep": (
        "flat-limit weight sweep",
        ("kernel", "functional", "points", "degree", "ell_grid"),
        ("fit_window",),
        _parse_sweep,
        _run_sweep,
    ),
    "optimal": (
        "node optimization study",
        ("kernel", "functional", "n_points", "ell_grid"),
        ("fit_window", "optimizer", "seed"),
        _parse_optimal,
        _run_optimal,
    ),
    "gauss": ("Gaussian quadrature from moments", ("functional", "n_points"), (), _parse_gauss, _run_gauss),
    "wce": (
        "worst-case error of one rule",
        ("kernel", "functional", "points"),
        ("weights", "assume_optimal"),
        _parse_wce,
        _run_wce,
    ),
    "check-unisolvent": (
        "polynomial unisolvency check",
        ("points", "degree"),
        (),
        _parse_check_unisolvent,
        _run_check_unisolvent,
    ),
}


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
    for name, (help_text, *_) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        if name == "optimal":  # the one command that draws random numbers
            command.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _, required, optional, parse, run = _COMMANDS[args.command]
    try:
        try:
            raw = _load(args, required, optional)
            job = parse(raw)
        except (TypeError, ValueError) as e:
            # the one place a malformed value becomes a configuration error;
            # the numerical work runs below, outside this handler
            raise ConfigError(f"invalid {args.command} config: {e}") from e
        return run(job, raw, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FlatLimitError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

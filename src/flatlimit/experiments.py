"""Experiment runners: flat-limit weight sweeps and optimal-point studies,
with CSV and manifest output.

A sweep holds the points fixed, walks a log-spaced length-scale grid,
records the optimal weights, their worst-case error and their distances to
the degree-m polynomial weights, and fits a convergence rate.  An optimal
study re-optimizes the node positions at every length scale and measures
the distance to the Gaussian quadrature rule of the functional.

Records are independent across length scales; they are computed in grid
order (the arbitrary-precision context is process-global, so in-process
parallelism is not safe) and written in grid order.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from mpmath import mp

from . import __version__
from .core import MACHINE, PointSet, PrecisionConfig, Real
from .cubature import (
    optimal_weights,
    phi_weights,
    polynomial_weights,
    unisolvency_check,
    worst_case_error,
)
from .errors import ConfigError, FlatLimitError, NotUnisolventError
from .functionals import FunctionalSpec
from .gauss_optimal import (
    GaussRule,
    OptimizerSettings,
    _default_optimizer_bits,
    gauss_rule_from_moments,
    optimize_points,
)
from .kernels import KernelSpec
from .linalg import auto_precision_bits

_REFERENCE_BITS = 256


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one flat-limit sweep over the length scale."""

    kernel_family: str
    functional: FunctionalSpec
    points: PointSet
    degree: int
    ell_min: float
    ell_max: float
    ell_count: int
    precision: Union[str, int] = "auto"
    fit_window: Union[str, tuple[float, float]] = "middle"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.ell_min < self.ell_max):
            raise ConfigError(
                f"length-scale grid must be positive and increasing, got [{self.ell_min}, {self.ell_max}]"
            )
        if self.ell_count < 2:
            raise ConfigError(f"length-scale grid needs at least 2 points, got {self.ell_count}")
        if self.degree < 0:
            raise ConfigError(f"degree must be non-negative, got {self.degree}")
        _check_precision_field(self.precision)
        if isinstance(self.fit_window, tuple):
            lo, hi = self.fit_window
            if not (0 < lo < hi):
                raise ConfigError(f"fit window must be positive and increasing, got {self.fit_window}")
        elif self.fit_window not in ("middle", "full"):
            raise ConfigError(f"fit_window must be 'middle', 'full' or [lo, hi], got {self.fit_window!r}")

    @property
    def ell_grid(self) -> tuple[float, ...]:
        return _log_grid(self.ell_min, self.ell_max, self.ell_count)


def _log_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.logspace(math.log10(lo), math.log10(hi), count))


def _check_precision_field(value) -> None:
    if isinstance(value, str):
        if value not in ("auto", "machine"):
            raise ConfigError(f"precision must be 'auto', 'machine' or a bit count, got {value!r}")
    elif isinstance(value, int) and not isinstance(value, bool):
        if value < 64:
            raise ConfigError(f"fixed precision needs at least 64 bits, got {value}")
    else:
        raise ConfigError(f"precision must be 'auto', 'machine' or a bit count, got {value!r}")


def _precision_for(policy, auto_bits: Optional[int] = None) -> PrecisionConfig:
    """The precision of a policy "machine", "auto" or a bit count; "auto"
    means ``auto_bits`` extended bits, or machine precision without them."""
    if policy == "machine" or (policy == "auto" and auto_bits is None):
        return MACHINE
    return PrecisionConfig.extended(auto_bits if policy == "auto" else int(policy))


@dataclass(frozen=True)
class SweepRecord:
    """One length scale of a sweep; all distances in the max norm."""

    ell: float
    weights: tuple[Real, ...]
    wce: Real
    dist_opt_pol: float
    dist_phi_pol: float
    condition: float
    precision_bits: int

    def __post_init__(self) -> None:
        vals = [self.ell, float(self.wce), self.dist_opt_pol, self.dist_phi_pol, self.condition]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"sweep record has non-finite entries at ell={self.ell}")
        if float(self.wce) < 0 or self.dist_opt_pol < 0 or self.dist_phi_pol < 0:
            raise ValueError(f"sweep record has negative error columns at ell={self.ell}")


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log wce against log ell."""

    slope: float
    stderr: float
    window: tuple[float, float]
    n_used: int


@dataclass
class SweepResult:
    config: SweepConfig
    records: list[SweepRecord]
    rate_fit: Optional[RateFit]
    failures: list[tuple[float, str]]
    reference_weights: tuple[float, ...]
    notes: list[str] = field(default_factory=list)


def fit_rate(
    ells: Sequence[float],
    wces: Sequence[float],
    window: Union[str, tuple[float, float]] = "middle",
) -> Optional[RateFit]:
    """Slope of log wce vs log ell over the selected window.

    "middle" drops one sixth of the grid from each end, avoiding the
    pre-asymptotic start and the precision-saturated tail.  Zero wce values
    cannot enter the log fit and are skipped.
    """
    pairs = [(l, w) for l, w in zip(ells, wces) if w > 0 and math.isfinite(w)]
    if isinstance(window, tuple):
        lo, hi = window
        pairs = [p for p in pairs if lo <= p[0] <= hi]
    elif window == "middle" and len(pairs) >= 4:
        drop = len(pairs) // 6
        pairs = pairs[drop: len(pairs) - drop] if drop else pairs
    if len(pairs) < 2:
        return None
    xs = np.log([p[0] for p in pairs])
    ys = np.log([float(p[1]) for p in pairs])
    n = len(xs)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    if n > 2 and sxx > 0:
        stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        # two points determine the line exactly; no residual degrees of freedom
        stderr = 0.0
    return RateFit(float(slope), stderr, (float(pairs[0][0]), float(pairs[-1][0])), n)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute a sweep; per-length-scale failures are recorded and skipped,
    a non-unisolvent point set aborts up front."""
    check = unisolvency_check(cfg.points, cfg.degree, MACHINE)
    if not check.ok:
        raise NotUnisolventError(
            f"point set is {check.status} for degree {cfg.degree} "
            f"(condition estimate {check.condition:.3e}); sweep aborted"
        )
    ref_prec = PrecisionConfig.extended(_REFERENCE_BITS)
    w_pol = polynomial_weights(cfg.functional, cfg.points, cfg.degree, ref_prec)
    ref = tuple(float(w) for w in w_pol.weights)

    records: list[SweepRecord] = []
    failures: list[tuple[float, str]] = []
    for ell in cfg.ell_grid:
        prec = _precision_for(cfg.precision, auto_precision_bits(ell, len(cfg.points)))
        kspec = KernelSpec(cfg.kernel_family, ell)
        try:
            wsol = optimal_weights(kspec, cfg.functional, cfg.points, prec)
            report = worst_case_error(kspec, cfg.functional, wsol, prec, assume_optimal=True)
            fsol = phi_weights(cfg.functional, ell, cfg.points, cfg.degree, prec)
            d_opt = max(abs(float(w) - r) for w, r in zip(wsol.weights, ref))
            d_phi = max(abs(float(w) - r) for w, r in zip(fsol.weights, ref))
            records.append(
                SweepRecord(
                    ell=float(ell),
                    weights=wsol.weights,
                    wce=report.wce,
                    dist_opt_pol=d_opt,
                    dist_phi_pol=d_phi,
                    condition=wsol.condition,
                    precision_bits=prec.bits,
                )
            )
        except FlatLimitError as e:
            failures.append((float(ell), f"{type(e).__name__}: {e}"))
    rate = fit_rate([r.ell for r in records], [float(r.wce) for r in records], cfg.fit_window)
    notes = []
    if rate is None:
        notes.append("rate fit skipped: fewer than two positive worst-case errors")
    if not cfg.functional.assumptions_checked:
        notes.append("functional assumptions not mechanically verified (numeric oracle)")
    return SweepResult(cfg, records, rate, failures, ref, notes)


@dataclass(frozen=True)
class OptimalStudyConfig:
    """Configuration of an optimal-point study over the length scale."""

    kernel_family: str
    functional: FunctionalSpec
    n_points: int
    ell_min: float
    ell_max: float
    ell_count: int
    precision: Union[str, int] = "auto"
    fit_window: Union[str, tuple[float, float]] = "middle"
    optimizer: OptimizerSettings = OptimizerSettings()
    allow_unbounded: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise ConfigError(f"n_points must be >= 1, got {self.n_points}")
        if not (0 < self.ell_min < self.ell_max):
            raise ConfigError(
                f"length-scale grid must be positive and increasing, got [{self.ell_min}, {self.ell_max}]"
            )
        if self.ell_count < 2:
            raise ConfigError(f"length-scale grid needs at least 2 points, got {self.ell_count}")
        if self.functional.dimension != 1:
            raise ConfigError("optimal studies are one-dimensional")
        if not self.functional.is_bounded and not self.allow_unbounded:
            raise ConfigError(
                "node optimization on an unbounded domain is experimental; "
                "set allow_unbounded (config key 'experimental_unbounded') to run it"
            )
        _check_precision_field(self.precision)

    @property
    def ell_grid(self) -> tuple[float, ...]:
        return _log_grid(self.ell_min, self.ell_max, self.ell_count)


@dataclass(frozen=True)
class OptimalRecord:
    ell: float
    points: tuple[float, ...]
    weights: tuple[float, ...]
    wce: float
    node_dist_gauss: float
    weight_dist_gauss: float
    converged: bool
    precision_bits: int

    def __post_init__(self) -> None:
        vals = [self.ell, self.wce, self.node_dist_gauss, self.weight_dist_gauss]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"optimal record has non-finite entries at ell={self.ell}")
        if self.wce < 0 or self.node_dist_gauss < 0 or self.weight_dist_gauss < 0:
            raise ValueError(f"optimal record has negative error columns at ell={self.ell}")


@dataclass
class OptimalStudyResult:
    config: OptimalStudyConfig
    records: list[OptimalRecord]
    rate_fit: Optional[RateFit]
    failures: list[tuple[float, str]]
    gauss: GaussRule
    notes: list[str] = field(default_factory=list)


def run_optimal_study(cfg: OptimalStudyConfig) -> OptimalStudyResult:
    """Optimize node positions at every length scale and compare each rule
    to the functional's Gaussian quadrature rule."""
    gauss = gauss_rule_from_moments(cfg.functional, cfg.n_points, MACHINE)
    settings = dataclasses.replace(cfg.optimizer, seed=cfg.seed)
    records: list[OptimalRecord] = []
    failures: list[tuple[float, str]] = []
    for ell in cfg.ell_grid:
        kspec = KernelSpec(cfg.kernel_family, ell)
        prec = _precision_for(cfg.precision, _default_optimizer_bits(ell, cfg.n_points))
        try:
            rule, trace = optimize_points(kspec, cfg.functional, cfg.n_points, prec, settings)
            xs = tuple(p[0] for p in rule.points)
            ws = rule.weights_float()
            wce = trace.entries[-1].wce if trace.entries else math.nan
            nd = max(abs(a - b) for a, b in zip(xs, gauss.nodes))
            wd = max(abs(a - b) for a, b in zip(ws, gauss.weights))
            records.append(
                OptimalRecord(float(ell), xs, ws, float(wce), nd, wd, trace.converged, prec.bits)
            )
            if not trace.converged:
                failures.append((float(ell), "optimizer did not report convergence; best iterate recorded"))
        except FlatLimitError as e:
            failures.append((float(ell), f"{type(e).__name__}: {e}"))
    rate = fit_rate([r.ell for r in records], [r.wce for r in records], cfg.fit_window)
    notes = []
    if not cfg.functional.is_bounded:
        notes.append("unbounded-domain node optimization is experimental")
    return OptimalStudyResult(cfg, records, rate, failures, gauss, notes)


def format_real(value, bits: int) -> str:
    """Decimal string with 17 significant digits at machine precision and
    bits/3 digits in extended mode."""
    if bits <= 53:
        return f"{float(value):.16e}"
    digits = max(17, bits // 3)
    with mp.workprec(bits):
        return mp.nstr(mp.mpf(value), digits)


def sweep_csv_lines(result: SweepResult) -> list[str]:
    n = len(result.config.points)
    header = (
        ["ell"]
        + [f"w_{i}" for i in range(n)]
        + ["wce", "dist_w_opt_pol", "dist_w_phi_pol", "condition", "precision_bits"]
    )
    lines = [",".join(header)]
    for r in result.records:
        cells = [f"{r.ell:.16e}"]
        cells += [format_real(w, r.precision_bits) for w in r.weights]
        cells.append(format_real(r.wce, r.precision_bits))
        cells.append(f"{r.dist_opt_pol:.16e}")
        cells.append(f"{r.dist_phi_pol:.16e}")
        cells.append(f"{r.condition:.16e}")
        cells.append(str(r.precision_bits))
        lines.append(",".join(cells))
    return lines


def optimal_csv_lines(result: OptimalStudyResult) -> list[str]:
    n = result.config.n_points
    header = (
        ["ell"]
        + [f"x_{i}" for i in range(n)]
        + [f"w_{i}" for i in range(n)]
        + ["wce", "node_dist_gauss", "weight_dist_gauss", "converged", "precision_bits"]
    )
    lines = [",".join(header)]
    for r in result.records:
        cells = [f"{r.ell:.16e}"]
        cells += [f"{x:.16e}" for x in r.points]
        cells += [f"{w:.16e}" for w in r.weights]
        cells.append(f"{r.wce:.16e}")
        cells.append(f"{r.node_dist_gauss:.16e}")
        cells.append(f"{r.weight_dist_gauss:.16e}")
        cells.append("1" if r.converged else "0")
        cells.append(str(r.precision_bits))
        lines.append(",".join(cells))
    return lines


def gauss_csv_lines(rule: GaussRule, bits: int) -> list[str]:
    lines = ["node,weight"]
    for x, w in zip(rule.rule.points, rule.rule.weights):
        lines.append(f"{float(x[0]):.16e},{format_real(w, bits)}")
    return lines


def config_digest(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True, default=str).encode()).hexdigest()


def _manifest(command: str, result, raw_config: dict, details: dict) -> dict:
    """The manifest of a sweep or a study, with ``details`` after the
    common header; key order is the order written."""
    cfg = result.config
    m = {
        "tool": f"flatlimit {__version__}",
        "command": command,
        "config_sha256": config_digest(raw_config),
        "seed": cfg.seed,
        "functional": cfg.functional.label(),
        "kernel_family": cfg.kernel_family,
        "precision_policy": str(cfg.precision),
        "assumptions_checked": cfg.functional.assumptions_checked,
        **details,
        "precision_decisions": [
            {"ell": r.ell, "bits": r.precision_bits} for r in result.records
        ],
        "failures": [{"ell": e, "error": msg} for e, msg in result.failures],
        "notes": result.notes,
    }
    if result.rate_fit is not None:
        m["rate_fit"] = {
            "slope": result.rate_fit.slope,
            "stderr": result.rate_fit.stderr,
            "window": list(result.rate_fit.window),
            "n_used": result.rate_fit.n_used,
        }
    return m


def sweep_manifest(result: SweepResult, raw_config: dict) -> dict:
    return _manifest("sweep", result, raw_config, {"reference_weights_bits": _REFERENCE_BITS})


def optimal_manifest(result: OptimalStudyResult, raw_config: dict) -> dict:
    return _manifest("optimal", result, raw_config, {
        "gauss_nodes": [float(x) for x in result.gauss.nodes],
        "gauss_weights": [float(w) for w in result.gauss.weights],
    })

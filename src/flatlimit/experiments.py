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

import json
import math
from typing import Optional, Sequence, Union

from mpmath import mp
from mpmath.libmp import normalize, to_str

from . import __version__
from .core import MACHINE, PointSet, PrecisionConfig, Real, _Frozen, _Record, _real
from .cubature import (
    _check_dims,
    _monomials,
    _phi_weights,
    _unisolvency_verdict,
    optimal_weights,
    polynomial_weights,
    worst_case_error,
)
from .errors import ConfigError, FlatLimitError, NotUnisolventError
from .functionals import FunctionalSpec
from .gauss_optimal import (
    GaussRule,
    OptimizerSettings,
    _check_nodes,
    _default_optimizer_bits,
    gauss_rule_from_moments,
    optimize_points,
)
from .linalg import auto_precision_bits

_REFERENCE_BITS = 256


def _digits(value) -> bool:
    """Whether ``value`` is a string of the ASCII digits 0-9 alone;
    ``str.isdecimal()`` also holds for the digits of other scripts."""
    return isinstance(value, str) and value.isascii() and value.isdecimal()


def _precision_policy(value) -> Union[str, int]:
    """The precision policy ``value`` names: "auto", "machine", or a bit
    count of at least 64, given as an integer or a string of digits."""
    if value in ("auto", "machine"):
        return value
    if _digits(value):
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"precision must be 'auto', 'machine' or a bit count, got {value!r}")
    if value < 64:
        raise ConfigError(f"fixed precision needs at least 64 bits, got {value}")
    return value


def _precision_for(policy, auto_bits: Optional[int] = None) -> PrecisionConfig:
    """The precision of a policy "machine", "auto" or a bit count; "auto"
    means ``auto_bits`` extended bits, or machine precision without them."""
    policy = _precision_policy(policy)
    if policy == "machine" or (policy == "auto" and auto_bits is None):
        return MACHINE
    return PrecisionConfig.extended(auto_bits if policy == "auto" else policy)


def _fit_window(value) -> Union[str, tuple[float, float]]:
    """``value`` as a fit window: "middle", "full", or a positive
    increasing pair of length scales."""
    if value in ("middle", "full"):
        return value
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"fit_window must be 'middle', 'full' or [lo, hi], got {value!r}")
    lo, hi = _real(value[0]), _real(value[1])
    if not (0 < lo < hi):
        raise ConfigError(f"fit window must be positive and increasing, got {list(value)}")
    return (lo, hi)


def _config_check(check, *args) -> None:
    """Apply one of the library's own argument checks to a configuration,
    reporting its ValueError as a ConfigError."""
    try:
        check(*args)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _normalize_study_fields(cfg) -> None:
    """Check the length-scale grid of a sweep or a study, and normalize its
    precision policy and fit window in place; a fit window must hold at
    least two grid points."""
    if not (0 < cfg.ell_min < cfg.ell_max < math.inf):
        raise ConfigError(
            f"length-scale grid must be positive, finite and increasing, got [{cfg.ell_min}, {cfg.ell_max}]"
        )
    if cfg.ell_count < 2:
        raise ConfigError(f"length-scale grid needs at least 2 points, got {cfg.ell_count}")
    object.__setattr__(cfg, "precision", _precision_policy(cfg.precision))
    object.__setattr__(cfg, "fit_window", _fit_window(cfg.fit_window))
    if isinstance(cfg.fit_window, tuple):
        lo, hi = cfg.fit_window
        if sum(lo <= ell <= hi for ell in cfg.ell_grid) < 2:
            raise ConfigError(f"fit window {list(cfg.fit_window)} holds fewer than two grid points")


class _LengthScaleGrid(_Frozen):
    """The log-spaced length-scale grid of a sweep or a study."""

    __slots__ = ()

    @property
    def ell_grid(self) -> tuple[float, ...]:
        # numpy's logspace formula, so that the shipped grids keep their bits
        lo, hi = math.log10(self.ell_min), math.log10(self.ell_max)
        step = (hi - lo) / (self.ell_count - 1)
        return tuple(10.0 ** (k * step + lo) for k in range(self.ell_count - 1)) + (10.0**hi,)


class SweepConfig(_LengthScaleGrid):
    """Configuration of one flat-limit sweep over the length scale."""

    __slots__ = _fields = (
        "functional", "points", "degree", "ell_min", "ell_max", "ell_count", "precision", "fit_window",
    )

    def __init__(self, functional: FunctionalSpec, points: PointSet, degree: int, ell_min: float, ell_max: float,
                 ell_count: int, precision: Union[str, int] = "auto",
                 fit_window: Union[str, tuple[float, float]] = "middle") -> None:
        self._bind(functional, points, degree, ell_min, ell_max, ell_count, precision, fit_window)
        _normalize_study_fields(self)
        _config_check(_check_dims, self.functional, self.points)
        _config_check(_monomials, self.points, self.degree)


class SweepRecord(_Frozen):
    """One length scale of a sweep; all distances in the max norm.
    ``warning`` is the conditioning warning of the optimal-weight solve.
    An entry past the float64 range makes the row a failure."""

    __slots__ = _fields = (
        "ell", "weights", "wce", "dist_opt_pol", "dist_phi_pol", "condition", "precision_bits", "warning",
    )

    def __init__(self, ell: float, weights: tuple[Real, ...], wce: Real, dist_opt_pol: float, dist_phi_pol: float,
                 condition: float, precision_bits: int, warning: Optional[str] = None) -> None:
        vals = [ell, float(wce), dist_opt_pol, dist_phi_pol, condition]
        if not all(math.isfinite(v) for v in vals):
            raise FlatLimitError(f"sweep record has non-finite entries at ell={ell}: {vals}")
        if float(wce) < 0 or dist_opt_pol < 0 or dist_phi_pol < 0:
            raise FlatLimitError(f"sweep record has negative error columns at ell={ell}: {vals}")
        self._bind(ell, weights, wce, dist_opt_pol, dist_phi_pol, condition, precision_bits, warning)


class RateFit(_Frozen):
    """Least-squares slope of log wce against log ell."""

    __slots__ = _fields = ("slope", "stderr", "window", "n_used")

    def __init__(self, slope: float, stderr: float, window: tuple[float, float], n_used: int) -> None:
        self._bind(slope, stderr, window, n_used)


class SweepResult(_Record):
    """A sweep's records, rate fit and failures; ``notes`` is a new empty list when not given."""

    __slots__ = _fields = ("config", "records", "rate_fit", "failures", "reference_weights", "notes")

    def __init__(self, config: SweepConfig, records: list[SweepRecord], rate_fit: Optional[RateFit],
                 failures: list[tuple[float, str]], reference_weights: tuple[float, ...],
                 notes: Optional[list[str]] = None) -> None:
        self._bind(config, records, rate_fit, failures, reference_weights, [] if notes is None else notes)


def fit_rate(
    ells: Sequence[float],
    wces: Sequence[float],
    window: Union[str, tuple[float, float]] = "middle",
) -> Optional[RateFit]:
    """Slope of log wce vs log ell over the selected window.

    "middle" drops one sixth of the grid from each end, avoiding the
    pre-asymptotic start and the precision-saturated tail.  Zero wce values
    cannot enter the log fit and are skipped.  The least-squares line is
    taken in closed form, its sums by ``math.fsum``; None when fewer than
    two points, or a single length scale, are left.
    """
    window = _fit_window(window)
    pairs = [(l, w) for l, w in zip(ells, wces) if w > 0 and math.isfinite(w)]
    if isinstance(window, tuple):
        lo, hi = window
        pairs = [p for p in pairs if lo <= p[0] <= hi]
    elif window == "middle" and len(pairs) >= 4:
        drop = len(pairs) // 6
        pairs = pairs[drop: len(pairs) - drop] if drop else pairs
    if len(pairs) < 2:
        return None
    xs = [math.log(p[0]) for p in pairs]
    ys = [math.log(float(p[1])) for p in pairs]
    n = len(xs)
    x_mean, y_mean = math.fsum(xs) / n, math.fsum(ys) / n
    dx = [x - x_mean for x in xs]
    sxx = math.fsum(d * d for d in dx)
    if not sxx > 0:
        return None  # a single length scale: no slope
    slope = math.fsum(d * (y - y_mean) for d, y in zip(dx, ys)) / sxx
    intercept = y_mean - slope * x_mean
    resid = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    # two points determine the line exactly; no residual degrees of freedom
    stderr = math.sqrt(math.fsum(r * r for r in resid) / (n - 2) / sxx) if n > 2 else 0.0
    return RateFit(slope, stderr, (float(pairs[0][0]), float(pairs[-1][0])), n)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute a sweep; per-length-scale failures are recorded and skipped,
    a point set that is not unisolvent at machine precision aborts up
    front.  That verdict takes the condition number of the reference
    polynomial weights' Vandermonde solve, whose factor is accurate at
    256 bits, to the machine threshold of :func:`unisolvency_check`.  The
    same 256-bit factor resolves every row's phi weights: the damped
    moments are formed at the row's precision, and ``resolve`` rounds them
    to 256 bits whatever the row's bits are.  Each row assembles its Gram
    system once: the wce reuses the optimal weights' assembly, and the
    Gram condition on 1-D points takes one substitution
    (:attr:`cubature.WeightSolution.condition`)."""
    ref_prec = PrecisionConfig.extended(_REFERENCE_BITS)
    try:
        w_pol = polynomial_weights(cfg.functional, cfg.points, cfg.degree, ref_prec)
    except NotUnisolventError:
        w_pol = None
    check = _unisolvency_verdict(math.inf if w_pol is None else w_pol.condition, MACHINE)
    if not check.ok:
        raise NotUnisolventError(
            f"point set is {check.status} for degree {cfg.degree} "
            f"(condition estimate {check.condition:.3e}); sweep aborted"
        )
    ref = tuple(float(w) for w in w_pol.weights)

    records: list[SweepRecord] = []
    failures: list[tuple[float, str]] = []
    for ell in cfg.ell_grid:
        prec = _precision_for(cfg.precision, auto_precision_bits(ell, len(cfg.points)))
        try:
            wsol = optimal_weights(ell, cfg.functional, cfg.points, prec)
            wce = worst_case_error(ell, cfg.functional, wsol, prec, assume_optimal=True).wce
            fsol = _phi_weights(w_pol.solve, cfg.functional, ell, cfg.points, cfg.degree, prec)
            d_opt = max(abs(float(w) - r) for w, r in zip(wsol.weights, ref))
            d_phi = max(abs(float(w) - r) for w, r in zip(fsol.weights, ref))
            records.append(
                SweepRecord(
                    ell=float(ell),
                    weights=wsol.weights,
                    wce=wce,
                    dist_opt_pol=d_opt,
                    dist_phi_pol=d_phi,
                    condition=wsol.condition,
                    precision_bits=prec.bits,
                    warning=wsol.warning,
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


class OptimalStudyConfig(_LengthScaleGrid):
    """Configuration of an optimal-point study over the length scale."""

    __slots__ = _fields = (
        "functional", "n_points", "ell_min", "ell_max", "ell_count", "precision", "fit_window", "optimizer",
    )

    def __init__(self, functional: FunctionalSpec, n_points: int, ell_min: float, ell_max: float, ell_count: int,
                 precision: Union[str, int] = "auto", fit_window: Union[str, tuple[float, float]] = "middle",
                 optimizer: OptimizerSettings = OptimizerSettings()) -> None:
        self._bind(functional, n_points, ell_min, ell_max, ell_count, precision, fit_window, optimizer)
        _config_check(_check_nodes, self.functional, self.n_points)
        _normalize_study_fields(self)


class OptimalRecord(_Frozen):
    """One length scale of an optimal-point study.  Each restart summary is
    stored as a tuple of its (key, value) pairs, so the record hashes and
    no summary can be changed through it."""

    __slots__ = _fields = (
        "ell", "points", "weights", "wce", "node_dist_gauss", "weight_dist_gauss", "converged", "precision_bits",
        "restart_summaries", "search",
    )

    def __init__(self, ell: float, points: tuple[float, ...], weights: tuple[float, ...], wce: float,
                 node_dist_gauss: float, weight_dist_gauss: float, converged: bool, precision_bits: int,
                 restart_summaries: Sequence[dict], search: str) -> None:
        vals = [ell, wce, node_dist_gauss, weight_dist_gauss]
        if not all(math.isfinite(v) for v in vals):
            raise FlatLimitError(f"optimal record has non-finite entries at ell={ell}: {vals}")
        if wce < 0 or node_dist_gauss < 0 or weight_dist_gauss < 0:
            raise FlatLimitError(f"optimal record has negative error columns at ell={ell}: {vals}")
        self._bind(ell, points, weights, wce, node_dist_gauss, weight_dist_gauss, converged, precision_bits,
                   tuple(tuple(dict(summary).items()) for summary in restart_summaries), search)


class OptimalStudyResult(_Record):
    """An optimal study's records, rate fit, failures and Gauss rule; ``notes`` is a new empty list when not given."""

    __slots__ = _fields = ("config", "records", "rate_fit", "failures", "gauss", "notes")

    def __init__(self, config: OptimalStudyConfig, records: list[OptimalRecord], rate_fit: Optional[RateFit],
                 failures: list[tuple[float, str]], gauss: GaussRule, notes: Optional[list[str]] = None) -> None:
        self._bind(config, records, rate_fit, failures, gauss, [] if notes is None else notes)


def run_optimal_study(cfg: OptimalStudyConfig) -> OptimalStudyResult:
    """Optimize node positions at every length scale and compare each rule
    to the functional's Gaussian quadrature rule, built once: it is also
    every search's first start."""
    gauss = gauss_rule_from_moments(cfg.functional, cfg.n_points, MACHINE)
    records: list[OptimalRecord] = []
    failures: list[tuple[float, str]] = []
    for ell in cfg.ell_grid:
        prec = _precision_for(cfg.precision, _default_optimizer_bits(ell, cfg.n_points))
        try:
            rule, trace = optimize_points(ell, cfg.functional, cfg.n_points, prec, cfg.optimizer, _gauss=gauss)
            xs = tuple(p[0] for p in rule.points)
            ws = rule.weights_float()
            nd = max(abs(a - b) for a, b in zip(xs, gauss.nodes))
            wd = max(abs(a - b) for a, b in zip(ws, gauss.weights))
            records.append(
                OptimalRecord(
                    float(ell), xs, ws, trace.wce, nd, wd, trace.converged, prec.bits,
                    trace.restart_summaries, trace.search,
                )
            )
            if not trace.converged:
                failures.append((float(ell), "optimizer did not report convergence; best iterate recorded"))
        except FlatLimitError as e:
            failures.append((float(ell), f"{type(e).__name__}: {e}"))
    rate = fit_rate([r.ell for r in records], [r.wce for r in records], cfg.fit_window)
    return OptimalStudyResult(cfg, records, rate, failures, gauss)


def format_real(value, bits: int) -> str:
    """Decimal string with 17 significant digits at machine precision and
    bits/3 digits in extended mode, the string ``mp.nstr`` gives for
    ``mp.mpf(value)`` at ``bits``: the raw mpf of ``value``, rounded to
    ``bits`` in mpmath's rounding mode, through ``libmp.to_str``, with no
    precision entered and no mpf built."""
    if bits <= 53:
        return f"{float(value):.16e}"
    sign, man, exp, bc = raw = mp.convert(value)._mpf_
    return to_str(normalize(sign, man, exp, bc, bits, mp._prec_rounding[1]) if man else raw, max(17, bits // 3))


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


# SHA-256 (NIST FIPS 180-4): the round constants K of section 4.2.2 and the
# initial hash value H(0) of section 5.3.3
_SHA256_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)
_SHA256_H0 = (0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A, 0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19)
_MASK32 = 0xFFFFFFFF


def _sha256(data: bytes) -> str:
    """The SHA-256 digest of ``data`` in hex (FIPS 180-4, section 6.2), so that hashing a config loads no
    OpenSSL.  A rotation right by n is written x >> n | x << (32 - n): the bits it leaves above bit 31 only
    carry upward, and the masks on the schedule words and on a and e drop them."""
    padded = data + b"\x80" + bytes(-(len(data) + 9) % 64) + (8 * len(data)).to_bytes(8, "big")
    h = _SHA256_H0
    for start in range(0, len(padded), 64):
        w = [int.from_bytes(padded[i:i + 4], "big") for i in range(start, start + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, hh = h
        for k, wt in zip(_SHA256_K, w):
            t1 = hh + ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)) + (e & f ^ ~e & g) + k + wt
            t2 = ((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)) + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, hh = (t1 + t2) & _MASK32, a, b, c, (d + t1) & _MASK32, e, f, g
        h = tuple((x + y) & _MASK32 for x, y in zip(h, (a, b, c, d, e, f, g, hh)))
    return "".join(f"{x:08x}" for x in h)


def config_digest(raw: dict) -> str:
    """The SHA-256 of ``raw``'s canonical JSON: sorted keys, str() for a
    value JSON cannot write."""
    return _sha256(json.dumps(raw, sort_keys=True, default=str).encode())


def _manifest(command: str, result, raw_config: dict, details: dict) -> dict:
    """The manifest of a sweep or a study, with ``details`` after the
    common header; key order is the order written."""
    cfg = result.config
    m = {
        "tool": f"flatlimit {__version__}",
        "command": command,
        "config_sha256": config_digest(raw_config),
        **({"seed": cfg.optimizer.seed} if command == "optimal" else {}),  # only a study draws random numbers
        "functional": cfg.functional.label(),
        "kernel_family": "gaussian",
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
    return _manifest("sweep", result, raw_config, {
        "reference_weights_bits": _REFERENCE_BITS,
        "solve_warnings": [
            {"ell": r.ell, "warning": r.warning} for r in result.records if r.warning is not None
        ],
    })


def optimal_manifest(result: OptimalStudyResult, raw_config: dict) -> dict:
    return _manifest("optimal", result, raw_config, {
        "gauss_nodes": [float(x) for x in result.gauss.nodes],
        "gauss_weights": [float(w) for w in result.gauss.weights],
        "restart_summaries": [
            {"ell": r.ell, "search": r.search, "restarts": [dict(summary) for summary in r.restart_summaries]}
            for r in result.records
        ],
    })

"""Gaussian quadrature from moments, and direct optimization of cubature
points.

The flat-limit endpoint of jointly optimized kernel cubature is classical
Gaussian quadrature, so both live here: ``gauss_rule_from_moments`` builds
the N-point rule exact to polynomial degree 2N - 1 for any functional with
accessible moments, and ``optimize_points`` minimizes the worst-case error
over node positions with the optimal weights resolved in closed form at
every objective evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from mpmath import mp

from .core import (
    MACHINE,
    CubatureRule,
    MultiIndex,
    PointSet,
    PrecisionConfig,
)
from .errors import FlatLimitError, NumericalInconsistencyError, NumericallyIndefiniteError
from .functionals import FunctionalSpec, double_embedding, kernel_embedding, moment
from .kernels import KernelSpec, gram_matrix
from .linalg import solve_spd


@dataclass(frozen=True)
class GaussRule:
    """An N-point rule exact on polynomials up to degree 2N - 1."""

    rule: CubatureRule
    degree_of_exactness: int
    max_exactness_residual: float

    @property
    def nodes(self) -> tuple[float, ...]:
        return tuple(float(p[0]) for p in self.rule.points)

    @property
    def weights(self) -> tuple[float, ...]:
        return self.rule.weights_float()


def _construction_bits(prec: PrecisionConfig, n_points: int) -> int:
    # Hankel moment matrices are ill-conditioned; build well above the
    # output precision and round the finished nodes and weights down.
    return max(192, prec.bits + 64, 64 + 16 * n_points)


def gauss_rule_from_moments(
    L: FunctionalSpec,
    n_points: int,
    prec: PrecisionConfig = MACHINE,
) -> GaussRule:
    """Gaussian quadrature for a one-dimensional functional via its moments.

    Pipeline: Cholesky-factor the (N+1) x (N+1) Hankel moment matrix, read
    off the three-term recurrence coefficients, assemble the symmetric
    Jacobi matrix and take its eigendecomposition; nodes are eigenvalues,
    weights mu_0 times squared first eigenvector components.  Construction
    always runs at a precision well above ``prec`` and the result is
    rounded to the output types (machine-float nodes, working-precision
    weights), then re-verified: the returned rule's moment residuals,
    normalized by max(1, |mu_n|), must sit at the roundoff level of the
    output types or the constructor raises.
    """
    if L.dimension != 1:
        raise ValueError("Gaussian quadrature construction is one-dimensional")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    n = n_points
    cbits = _construction_bits(prec, n)
    cprec = PrecisionConfig.extended(cbits)
    with cprec.workprec():
        mu = [moment(L, MultiIndex((k,)), cprec) for k in range(2 * n + 1)]
        M = mp.matrix(n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                M[i, j] = mu[i + j]
        try:
            Lc = mp.cholesky(M)
        except ValueError as e:
            raise NumericallyIndefiniteError(
                f"Hankel moment matrix of order {n + 1} is not numerically positive "
                f"definite at {cbits} bits; the functional may not be a positive "
                "measure with distinct-support, or needs more precision"
            ) from e
        # R upper triangular with M = R^T R
        r = lambda i, j: Lc[j, i]
        diag = []
        off = []
        for k in range(n):
            a = r(k, k + 1) / r(k, k)
            if k >= 1:
                a -= r(k - 1, k) / r(k - 1, k - 1)
            diag.append(a)
        for k in range(1, n):
            off.append(r(k, k) / r(k - 1, k - 1))
        J = mp.matrix(n, n)
        for k in range(n):
            J[k, k] = diag[k]
        for k in range(n - 1):
            J[k, k + 1] = off[k]
            J[k + 1, k] = off[k]
        E, Q = mp.eigsy(J)
        nodes_mp = [E[k] for k in range(n)]
        weights_mp = [mu[0] * Q[0, k] ** 2 for k in range(n)]
        for k in range(n - 1):
            if not nodes_mp[k] < nodes_mp[k + 1]:
                raise NumericalInconsistencyError("computed nodes are not strictly increasing")
        for w in weights_mp:
            if not w > 0:
                raise NumericalInconsistencyError("computed weights are not all positive")
        if L.kind in ("lebesgue_box", "numeric_oracle"):
            lo, hi = L.lower[0], L.upper[0]
            for x in nodes_mp:
                if not (lo < x < hi):
                    raise NumericalInconsistencyError(
                        f"node {float(x)} escaped the open integration interval ({lo}, {hi})"
                    )

        # node coordinates are always stored as machine floats; weights keep
        # the working precision
        nodes_out = [float(x) for x in nodes_mp]
        with prec.workprec():
            weights_out = tuple(prec.to_real(w) for w in weights_mp)

        # residuals of the rounded rule, measured back at construction precision
        resid = mp.mpf(0)
        for k in range(2 * n):
            q = mp.mpf(0)
            for x, w in zip(nodes_out, weights_out):
                q += mp.mpf(w) * mp.mpf(x) ** k
            resid = max(resid, abs(q - mu[k]) / max(1, abs(mu[k])))
        # exactness of the returned rule is capped by the float64 node storage,
        # so the certificate floor is 2^-53 regardless of the weight precision
        eff_bits = min(prec.bits, 53)
        tol = 100 * n * 2.0 ** (-eff_bits)
        if not resid <= tol:
            raise NumericalInconsistencyError(
                f"constructed rule misses exactness: residual {mp.nstr(resid, 6)} "
                f"above {float(tol):.3e} at {prec.bits} output bits"
            )
    points = PointSet(tuple((x,) for x in nodes_out))
    rule = CubatureRule(points, weights_out)
    return GaussRule(rule, 2 * n - 1, float(resid))


@dataclass(frozen=True)
class OptimizerSettings:
    """Settings for the point optimizer.

    ``search_box`` is required for functionals on unbounded domains, where
    node optimization is experimental; bounded functionals use their own
    box.  Tolerances are relative: ``xatol_rel`` scales the box width,
    ``fatol_rel`` the initial objective of each restart.
    """

    restarts: int = 8
    max_evals: int = 10000
    seed: int = 0
    search_box: Optional[tuple[float, float]] = None
    xatol_rel: float = 1e-10
    fatol_rel: float = 1e-12

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.max_evals < 10:
            raise ValueError("max_evals must be at least 10")
        if self.search_box is not None:
            a, b = self.search_box
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError("search_box must be a finite interval")


@dataclass(frozen=True)
class TraceEntry:
    points: tuple[float, ...]
    weights: tuple[float, ...]
    wce: float


@dataclass
class OptimizationTrace:
    """Accepted-improvement history of the winning restart (worst-case
    error non-increasing along entries) plus per-restart summaries."""

    entries: list[TraceEntry] = field(default_factory=list)
    restart_summaries: list[dict] = field(default_factory=list)
    converged: bool = False
    n_evaluations: int = 0


def _default_optimizer_bits(length_scale: float, n_points: int) -> int:
    # the optimum's squared error scales like l^(-4N); resolve objective
    # differences well below it
    return max(128, 64 + math.ceil(4 * n_points * math.log2(max(length_scale, 2.0))) + 32)


def optimize_points(
    spec: KernelSpec,
    L: FunctionalSpec,
    n_points: int,
    prec: Optional[PrecisionConfig] = None,
    settings: Optional[OptimizerSettings] = None,
) -> tuple[CubatureRule, OptimizationTrace]:
    """Minimize the worst-case error jointly over nodes and weights.

    One-dimensional.  The weights are eliminated in closed form (a solve of
    G w = z per objective evaluation), leaving a Nelder-Mead search over
    node positions through a sort-and-clamp transform that keeps iterates
    inside the box and ordered.  Runs one deterministic start from the
    Gaussian quadrature nodes of the functional (when available) plus
    seeded stratified random restarts; the best restart wins.
    """
    import scipy.optimize  # deferred: slow to import, and only the optimizer needs it

    if L.dimension != 1:
        raise ValueError("point optimization is one-dimensional")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    settings = settings or OptimizerSettings()
    if prec is None:
        prec = PrecisionConfig.extended(_default_optimizer_bits(spec.length_scale, n_points))

    if L.is_bounded:
        box = (L.lower[0], L.upper[0])
    elif settings.search_box is not None:
        box = settings.search_box
    else:
        # unbounded-domain optimization is experimental; the standard
        # Gaussian measure concentrates well inside this default
        box = (-10.0, 10.0)
    a, b = float(box[0]), float(box[1])
    width = b - a
    gap_min = 1e-12 * width

    with prec.workprec():
        llk = double_embedding(L, spec, prec)
    penalty_base = 2.0 * math.sqrt(max(float(llk), 0.0)) + 1.0

    def transform(y: np.ndarray) -> np.ndarray:
        return np.sort(np.clip(y, a, b))

    def solve_at(x: np.ndarray):
        pts = PointSet(tuple((float(v),) for v in x))
        with prec.workprec():
            G = gram_matrix(spec, pts, prec)
            z = [kernel_embedding(L, spec, p, prec) for p in pts]
            sol = solve_spd(G, z, prec)
            cross = sum(wi * zi for wi, zi in zip(sol.solution, z))
            radicand = llk - cross
            wce = math.sqrt(max(float(radicand), 0.0))
        return wce, sol.solution

    state = {"evals": 0}

    def objective(y: np.ndarray, record: Optional[list] = None) -> float:
        state["evals"] += 1
        x = transform(y)
        gaps = np.diff(x)
        if len(x) > 1 and float(gaps.min()) < gap_min:
            worst = float(max(0.0, gap_min - gaps.min()))
            return penalty_base * (1.0 + worst / gap_min)
        try:
            wce, weights = solve_at(x)
        except NumericallyIndefiniteError:
            return penalty_base
        if record is not None and (not record or wce < record[-1].wce):
            record.append(TraceEntry(tuple(float(v) for v in x), tuple(float(w) for w in weights), wce))
        return wce

    inits: list[tuple[str, np.ndarray]] = []
    try:
        g = gauss_rule_from_moments(L, n_points, MACHINE)
    except FlatLimitError:
        pass  # no Gauss rule for this functional: start from the grid
    else:
        gn = np.clip(np.array(g.nodes), a, b)
        if n_points == 1 or float(np.diff(gn).min()) > gap_min:
            inits.append(("gauss", gn))
    if not inits:
        inits.append(("grid", a + (np.arange(1, n_points + 1) / (n_points + 1)) * width))
    rng = np.random.default_rng(settings.seed)
    for k in range(settings.restarts):
        # one draw per stratum keeps the nodes spread out
        lo = a + (np.arange(n_points) / n_points) * width
        y0 = np.sort(lo + rng.random(n_points) * (width / n_points))
        inits.append((f"random{k}", y0))

    best = None
    trace = OptimizationTrace()
    for name, y0 in inits:
        record: list[TraceEntry] = []
        f0 = objective(np.asarray(y0, dtype=float), record)
        res = scipy.optimize.minimize(
            objective,
            np.asarray(y0, dtype=float),
            args=(record,),
            method="Nelder-Mead",
            options={
                "xatol": settings.xatol_rel * width,
                "fatol": settings.fatol_rel * max(f0, 1e-300),
                "maxfev": settings.max_evals,
                "maxiter": settings.max_evals,
            },
        )
        final = float(res.fun)
        trace.restart_summaries.append(
            {"start": name, "wce": final, "nfev": int(res.nfev), "converged": bool(res.success)}
        )
        if best is None or final < best[0]:
            best = (final, res, record)

    assert best is not None
    _, res_best, record_best = best
    x_cand = transform(np.asarray(res_best.x, dtype=float))
    cand_ok = n_points == 1 or float(np.diff(x_cand).min()) > gap_min
    if not cand_ok and not record_best:
        raise NumericalInconsistencyError(
            "optimizer never reached a feasible node configuration; widen the box "
            "or reduce n_points"
        )
    if cand_ok:
        wce_best, weights_best = solve_at(x_cand)
        x_best = x_cand
    if record_best and (not cand_ok or wce_best > record_best[-1].wce):
        # the recorded iterate is the better (or only valid) one; keep it
        x_best = np.array(record_best[-1].points)
        wce_best, weights_best = solve_at(x_best)
    elif cand_ok and (not record_best or wce_best < record_best[-1].wce):
        record_best.append(
            TraceEntry(tuple(float(v) for v in x_best), tuple(float(w) for w in weights_best), wce_best)
        )
    trace.entries = record_best
    trace.converged = bool(res_best.success)
    trace.n_evaluations = state["evals"]
    rule = CubatureRule(PointSet(tuple((float(v),) for v in x_best)), weights_best)
    return rule, trace


def chebyshev_system_zero_count(
    length_scale: float,
    coefficients,
    interval: tuple[float, float] = (-1.0, 1.0),
    n_grid: int = 1000,
) -> int:
    """Sign changes of x -> exp(-x^2/(2 l^2)) sum_j c_j x^j on a uniform grid.

    The damped monomials form an extended Chebyshev system, so any nonzero
    combination of the first m of them has at most m - 1 real zeros; this
    counts the sign changes actually seen, a cheap lower bound for the
    zeros, used as a diagnostic of that property.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a non-empty vector")
    a, b = interval
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("interval must be finite with a < b")
    xs = np.linspace(a, b, n_grid)
    vals = np.exp(-xs * xs / (2 * length_scale**2)) * np.polyval(c[::-1], xs)
    signs = np.sign(vals)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0))

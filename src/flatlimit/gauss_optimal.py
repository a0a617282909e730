"""Gaussian quadrature from moments, and direct optimization of cubature
points.

The flat-limit endpoint of jointly optimized kernel cubature is classical
Gaussian quadrature, so both live here: ``gauss_rule_from_moments`` builds
the N-point rule exact to polynomial degree 2N - 1 for any functional with
accessible moments, and ``optimize_points`` minimizes the worst-case error
over node positions by L-BFGS-B, with the optimal weights resolved in
closed form at every objective evaluation and the gradient in the nodes
taken from the same solve by the envelope theorem.
"""
from __future__ import annotations

import ctypes
import glob
import math
import os
from contextlib import contextmanager
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
    Real,
    rlog,
    rsqrt,
)
from .errors import FlatLimitError, NumericalInconsistencyError, NumericallyIndefiniteError
from .cubature import WeightSolution, optimal_weights
from .functionals import FunctionalSpec, double_embedding, embedding_derivative, moment
from .kernels import KernelSpec, kernel_derivative


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


def _check_nodes(L: FunctionalSpec, n_points: int) -> None:
    """Gauss rules and optimized nodes are one-dimensional, with at least
    one node, and need a functional with a domain: the Hankel matrix of a
    point evaluation is singular, and its optimal rule is the point."""
    if L.kind == "point_eval":
        raise ValueError("node construction needs a functional with a domain, not point evaluation")
    if L.dimension != 1:
        raise ValueError(f"node construction is one-dimensional, got a {L.dimension}-dimensional functional")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")


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
    _check_nodes(L, n_points)
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
    box.
    """

    restarts: int = 8
    max_evals: int = 10000
    seed: int = 0
    search_box: Optional[tuple[float, float]] = None

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


def _envelope_gradient(
    spec: KernelSpec, L: FunctionalSpec, llk: Real, points: PointSet, prec: PrecisionConfig
) -> tuple[WeightSolution, Real, list[Real]]:
    """The optimal-weight solution of one-dimensional ``points``, the
    squared worst-case error e^2 = LL[K] - w.z (``llk`` is LL[K]) and its
    gradient in the node positions, all from the one solve: at the optimal
    weights w = G^-1 z the envelope theorem gives

        de^2/dx_n = -2 w_n (z'(x_n) - sum_m w_m dK(x_n, x_m)/dx_n) .

    A nonpositive e^2 raises :class:`NumericalInconsistencyError`.
    """
    sol = optimal_weights(spec, L, points, prec)
    x, w = points.coords_1d(), sol.weights
    with prec.workprec():
        e2 = llk - sum(wi * zi for wi, zi in zip(w, sol.embedding))
        if not e2 > 0:
            raise NumericalInconsistencyError(
                f"squared worst-case error LL[K] - w.z = {float(e2):.3e} is not positive "
                f"at {prec.bits} bits; increase the precision"
            )
        de2 = []
        for n, xn in enumerate(x):
            dk = sum(wm * kernel_derivative(spec, xn, xm, prec) for wm, xm in zip(w, x))
            de2.append(-2 * w[n] * (embedding_derivative(L, spec, xn, prec) - dk))
    return sol, e2, de2


def _scipy_openblas():
    """The thread-count getter and setter of scipy's bundled OpenBLAS, or
    None where scipy bundles no OpenBLAS."""
    import scipy

    libs = glob.glob(os.path.join(os.path.dirname(scipy.__file__) + ".libs", "libscipy_openblas*"))
    try:
        lib = ctypes.CDLL(libs[0]) if libs else None
    except OSError:
        return None
    if lib is None or not hasattr(lib, "scipy_openblas_set_num_threads"):
        return None
    get_threads, set_threads = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextmanager
def _single_blas_thread():
    """Run the block with scipy's bundled OpenBLAS on one thread.

    L-BFGS-B calls LAPACK on its tiny limited-memory matrices at every
    iteration, and OpenBLAS wakes its thread pool for each call: on a
    2-core host that costs about 1.5 ms per call, more than an objective
    evaluation, and the woken threads then spin against the objective.
    """
    openblas = _scipy_openblas()
    if openblas is None:
        yield
        return
    get_threads, set_threads = openblas
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def optimize_points(
    spec: KernelSpec,
    L: FunctionalSpec,
    n_points: int,
    prec: Optional[PrecisionConfig] = None,
    settings: Optional[OptimizerSettings] = None,
) -> tuple[CubatureRule, OptimizationTrace]:
    """Minimize the worst-case error jointly over nodes and weights.

    One-dimensional, with a domain to search.  The weights are eliminated
    in closed form (:func:`cubature.optimal_weights` per objective
    evaluation), leaving an L-BFGS-B search over the node positions within
    the box bounds.  The objective is f = ln e^2 with e^2 = LL[K] - w.z,
    and its gradient comes from the same solve by the envelope theorem
    (:func:`_envelope_gradient`).  The logarithm is scale-free, so
    L-BFGS-B's default tolerances serve every length scale.  Coinciding
    nodes, or a Gram matrix that is not numerically positive definite,
    read as the zero rule (f = ln LL[K], gradient zero), an upper bound for
    every optimal-weight rule; a nonpositive e^2 raises.  Runs one
    deterministic start from the Gaussian quadrature nodes of the
    functional (when available) plus seeded stratified random restarts;
    the lowest evaluation recorded over all restarts wins.
    """
    import scipy.optimize  # deferred: slow to import, and only the optimizer needs it

    _check_nodes(L, n_points)
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

    with prec.workprec():
        llk = double_embedding(L, spec, prec)
        zero_rule = float(rlog(llk))

    def objective(y: np.ndarray, best: dict) -> tuple[float, np.ndarray]:
        order = np.argsort(y)
        x = y[order]
        if np.any(np.diff(x) <= 0):
            return zero_rule, np.zeros_like(y)
        try:
            sol, e2, de2 = _envelope_gradient(spec, L, llk, PointSet(tuple((float(v),) for v in x)), prec)
        except NumericallyIndefiniteError:
            return zero_rule, np.zeros_like(y)
        with prec.workprec():
            grad = np.empty_like(y)
            grad[order] = [float(g / e2) for g in de2]
            if "e2" not in best or e2 < best["e2"]:
                best["e2"], best["rule"] = e2, sol.rule
                # the written wce is sqrt(e^2) rounded once
                entry = TraceEntry(tuple(float(v) for v in x), sol.rule.weights_float(), float(rsqrt(e2)))
                best["record"].append(entry)
            return float(rlog(e2)), grad

    inits: list[tuple[str, np.ndarray]] = []
    try:
        g = gauss_rule_from_moments(L, n_points, MACHINE)
    except FlatLimitError:
        pass  # no Gauss rule for this functional: start from the grid
    else:
        gn = np.clip(np.array(g.nodes), a, b)
        if n_points == 1 or float(np.diff(gn).min()) > 0:
            inits.append(("gauss", gn))
    if not inits:
        inits.append(("grid", a + (np.arange(1, n_points + 1) / (n_points + 1)) * width))
    rng = np.random.default_rng(settings.seed)
    for k in range(settings.restarts):
        # one draw per stratum keeps the nodes spread out
        lo = a + (np.arange(n_points) / n_points) * width
        y0 = np.sort(lo + rng.random(n_points) * (width / n_points))
        inits.append((f"random{k}", y0))

    winner = None
    trace = OptimizationTrace()
    with _single_blas_thread():
        for name, y0 in inits:
            best: dict = {"record": []}
            res = scipy.optimize.minimize(
                objective,
                np.asarray(y0, dtype=float),
                args=(best,),
                jac=True,
                method="L-BFGS-B",
                bounds=[(a, b)] * n_points,
                options={"maxfun": settings.max_evals, "maxiter": settings.max_evals},
            )
            # a restart without a feasible evaluation reads as the zero rule
            wce = best["record"][-1].wce if best["record"] else math.sqrt(float(llk))
            trace.restart_summaries.append(
                {"start": name, "wce": wce, "nfev": int(res.nfev), "converged": bool(res.success)}
            )
            if "e2" in best and (winner is None or best["e2"] < winner[0]["e2"]):
                winner = (best, bool(res.success))

    if winner is None:
        raise NumericalInconsistencyError(
            "optimizer never reached a feasible node configuration; widen the box "
            "or reduce n_points"
        )
    best, converged = winner
    trace.entries = best["record"]
    trace.converged = converged
    trace.n_evaluations = sum(r["nfev"] for r in trace.restart_summaries)
    return best["rule"], trace


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

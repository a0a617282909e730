"""Gaussian quadrature from moments, and direct optimization of cubature
points.

The flat-limit endpoint of jointly optimized kernel cubature is classical
Gaussian quadrature, so both live here: ``gauss_rule_from_moments`` builds
the N-point rule exact to polynomial degree 2N - 1 for any functional with
accessible moments, and ``optimize_points`` minimizes the worst-case error
over node positions by L-BFGS-B, with the optimal weights resolved in
closed form at every objective evaluation and the gradient in the nodes
taken from the same solve by the envelope theorem.  The search runs in one
of two lanes, chosen per length scale (:func:`_search_lane`): for the
Gaussian kernel while 2 N log2(l / R) <= 40 (N <= 4), a float64 least-squares
residual on the kernel's orthonormal basis (:class:`_BasisResidual`),
whose winning nodes are re-solved once in extended precision for the
written weights and wce; otherwise an extended-precision Gram solve per
evaluation (:func:`_envelope_gradient`).
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
from .errors import (
    FlatLimitError,
    NumericalInconsistencyError,
    NumericallyIndefiniteError,
    SingularMatrixError,
)
from .cubature import WeightSolution, optimal_weights
from .functionals import (
    FunctionalSpec,
    damped_moment,
    double_embedding,
    embedding_derivative,
    moment,
    quad1d,
)
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
    error non-increasing along entries) plus per-restart summaries, and
    the objective the search ran on ("float64" or "extended", see
    :func:`optimize_points`)."""

    entries: list[TraceEntry] = field(default_factory=list)
    restart_summaries: list[dict] = field(default_factory=list)
    converged: bool = False
    n_evaluations: int = 0
    search: str = "extended"


def _default_optimizer_bits(length_scale: float, n_points: int) -> int:
    # the optimum's squared error scales like l^(-4N); resolve objective
    # differences well below it
    return max(128, 64 + math.ceil(4 * n_points * math.log2(max(length_scale, 2.0))) + 32)


def _optimal_e2(
    spec: KernelSpec, L: FunctionalSpec, llk: Real, points: PointSet, prec: PrecisionConfig
) -> tuple[WeightSolution, Real]:
    """The optimal-weight solution of ``points`` and its squared worst-case
    error e^2 = LL[K] - w.z (``llk`` is LL[K]), from one Gram solve.  A
    nonpositive e^2 raises :class:`NumericalInconsistencyError`."""
    sol = optimal_weights(spec, L, points, prec)
    with prec.workprec():
        e2 = llk - sum(wi * zi for wi, zi in zip(sol.weights, sol.embedding))
        if not e2 > 0:
            raise NumericalInconsistencyError(
                f"squared worst-case error LL[K] - w.z = {float(e2):.3e} is not positive "
                f"at {prec.bits} bits; increase the precision"
            )
    return sol, e2


def _envelope_gradient(
    spec: KernelSpec, L: FunctionalSpec, llk: Real, points: PointSet, prec: PrecisionConfig
) -> tuple[WeightSolution, Real, list[Real]]:
    """The extended-precision objective: :func:`_optimal_e2` of
    one-dimensional ``points`` and the gradient of e^2 in the node
    positions from the same solve.  At the optimal weights w = G^-1 z the
    envelope theorem gives

        de^2/dx_n = -2 w_n (z'(x_n) - sum_m w_m dK(x_n, x_m)/dx_n) .
    """
    sol, e2 = _optimal_e2(spec, L, llk, points, prec)
    x, w = points.coords_1d(), sol.weights
    with prec.workprec():
        de2 = []
        for n, xn in enumerate(x):
            dk = sum(wm * kernel_derivative(spec, xn, xm, prec) for wm, xm in zip(w, x))
            de2.append(-2 * w[n] * (embedding_derivative(L, spec, xn, prec) - dk))
    return sol, e2, de2


_TAIL_BITS = 55  # the dropped basis rows stay below 2^-55 of e^2
_MAX_BASIS_ROWS = 512


_FLOAT64_MAX_POINTS = 4


def _search_lane(spec: KernelSpec, L: FunctionalSpec, n_points: int, box: tuple[float, float]) -> str:
    """The objective of a node search: "float64" (:class:`_BasisResidual`)
    for the Gaussian kernel when 2 N log2(l / R) <= 40, N <= 4 and
    R_box <= 4 l, "extended" (:func:`_envelope_gradient`) otherwise.
    R_box is the search box's largest |endpoint|, and R is R_box, or 1
    under the Gaussian measure.

    Measured on [-1, 1], the float64 search ended at the extended search's
    wce to 9 digits for N = 2 up to 2 N log2 l = 53 (l = 1e4) and, with 8
    restarts, for N = 3 and 4 up to 40.  For N = 5 and 6 it did not:
    4.8 times the extended wce at N = 5, l = 16 and 2.3 times at N = 6,
    l = 3.17, where L-BFGS-B's relative-reduction test stopped the float64
    search near the Gauss-Legendre start.  Below l = R_box / 4 the basis
    needs well over (R_box / l)^2 = 16 rows, each an extended-precision
    damped moment, which cost more than the float64 search saves.
    """
    r_box = max(abs(box[0]), abs(box[1]))
    r = 1.0 if L.kind == "gaussian_measure" else r_box
    ell = spec.length_scale
    if (
        spec.family == "gaussian"
        and n_points <= _FLOAT64_MAX_POINTS
        and 2 * n_points * math.log2(ell / r) <= 40
        and r_box <= 4 * ell
    ):
        return "float64"
    return "extended"


def _gamma_tail(m: int, u: float) -> float:
    """An upper bound for sum_{k >= m} e^-u u^k / k!, the regularized lower
    incomplete gamma function P(m, u): e^-u u^m / m! (m + 1) / (m + 1 - u)
    for m + 1 > u (the tail of a geometric series), 1 otherwise."""
    if m + 1 <= u:
        return 1.0
    return math.exp(m * math.log(u) - u - math.lgamma(m + 1)) * (m + 1) / (m + 1 - u)


def _basis_solve(phi: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """min_w ||c - phi w|| by Householder QR of the M x N matrix phi: the
    weights, the squared residual norm ||Q_2^T c||^2, and the residual
    r = Q [0; Q_2^T c] formed from the reflectors.  A zero or non-finite
    pivot raises :class:`SingularMatrixError`."""
    n = phi.shape[1]
    h, tau = np.linalg.qr(phi, mode="raw")
    v = np.tril(h.T, -1)  # column j is reflector j, with its leading 1 set below
    v[np.arange(n), np.arange(n)] = 1.0
    t = c.copy()
    for j in range(n):
        t -= tau[j] * (v[:, j] @ t) * v[:, j]
    upper = np.triu(h.T[:n])
    pivots = np.abs(np.diag(upper))
    if not (np.all(pivots > 0) and np.all(np.isfinite(pivots))):
        raise SingularMatrixError("the basis matrix of the nodes has a zero pivot")
    w = np.linalg.solve(upper, t[:n])  # with a nonzero diagonal, back substitution
    if not np.all(np.isfinite(w)):
        raise SingularMatrixError("the basis least-squares weights are not finite")
    r = np.zeros_like(t)
    r[n:] = t[n:]
    for j in reversed(range(n)):
        r -= tau[j] * (v[:, j] @ r) * v[:, j]
    return w, float(t[n:] @ t[n:]), r


class _BasisResidual:
    """The float64 objective: the squared worst-case error of the Gaussian
    kernel's optimal-weight rule, and its gradient in the nodes, on the
    kernel's orthonormal basis phi_k(x) = exp(-x^2 / 2 l^2) x^k / (sqrt(k!) l^k),
    k < M (Steinwart, Hush & Scovel, IEEE Trans. Inf. Theory 2006).

    With c_k = L[phi_k] = damped_moment(L, l, k) / (sqrt(k!) l^k), computed
    at ``prec`` and rounded once, and Phi_kn = phi_k(x_n), a rule's squared
    error is sum_k (c_k - (Phi w)_k)^2 over all k.  Over the first M rows
    its minimum is e^2 = ||Q_2^T c||^2 (:func:`_basis_solve`), free of the
    cancellation in LL[K] - w.z, and by the envelope theorem

        de^2/dx_n = -2 w_n sum_k r_k phi_k'(x_n),
        phi_k' = sqrt(k) / l phi_(k-1) - x / l^2 phi_k ,

    with r from the reflectors.  Formed as c - Phi w, r cancels in the
    leading rows: at l = 100 with nodes (-0.7, 0.1, 0.8) on [-1, 1] that
    gradient was off by a relative 3e-5, against 7e-15 from the
    reflectors, next to a 400-bit central difference.

    Tail bound: sum_{k >= M} phi_k(x)^2 = P(M, x^2 / l^2) is at most
    t_M = :func:`_gamma_tail` (M, R^2 / l^2) on the search box |x| <= R.
    By Cauchy-Schwarz sum_{k >= M} c_k^2 is at most m^2 t_M for a box or a
    numeric oracle of total variation m, and under the Gaussian measure,
    where c_k^2 <= v (1 + l^2)^-k with v = l^2 / (1 + l^2), at most
    v q^ceil(M / 2) / (1 - q) with q = (1 + l^2)^-2.  So the rows k >= M
    add at most (sqrt(sum_{k >= M} c_k^2) + ||w||_1 sqrt(t_M))^2 to the
    M-row e^2, which is itself a lower bound.  Each evaluation checks that
    this is below 2^-55 e^2, and otherwise adds rows until it is.
    """

    def __init__(
        self, spec: KernelSpec, L: FunctionalSpec, n_points: int, box: tuple[float, float], prec: PrecisionConfig
    ):
        self.ell, self.L, self.prec = spec.length_scale, L, prec
        self.u = (max(abs(box[0]), abs(box[1])) / self.ell) ** 2
        if L.kind == "gaussian_measure":
            self.mass = None
        elif L.kind == "lebesgue_box":
            self.mass = L.upper[0] - L.lower[0]
        else:
            self.mass = float(
                quad1d(lambda t: abs(L.density(t)), L.lower[0], L.upper[0], MACHINE, L.rel_tol, L.subdivision_budget)
            )
        self.c = np.empty(0)
        self._grow(2 * n_points + 2)

    def _grow(self, m: int) -> None:
        """Extend the coefficients to ``m`` rows and bound the tail past them."""
        with self.prec.workprec():
            ell = mp.mpf(self.ell)
            new = [
                float(mp.mpf(damped_moment(self.L, self.ell, MultiIndex((k,)), self.prec))
                      / (mp.sqrt(mp.factorial(k)) * ell**k))
                for k in range(self.c.size, m)
            ]
        self.c = np.append(self.c, new)
        self.tail_nodes = _gamma_tail(m, self.u)
        if self.mass is None:
            q = (1 + self.ell**2) ** -2
            self.tail_c = self.ell**2 / (1 + self.ell**2) * q ** ((m + 1) // 2) / (1 - q)
        else:
            self.tail_c = self.mass**2 * self.tail_nodes

    def envelope(self, x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """The weights, e^2 and de^2/dx at the sorted distinct nodes ``x``."""
        s = x / self.ell
        while True:
            m = self.c.size
            root_k = np.sqrt(np.arange(1, m))[:, None]
            steps = np.empty((m, x.size))
            steps[0] = np.exp(-s * s / 2)
            steps[1:] = s / root_k
            phi = np.cumprod(steps, axis=0)
            w, e2, r = _basis_solve(phi, self.c)
            if not e2 > 0:
                raise NumericalInconsistencyError(
                    f"squared worst-case error ||Q_2^T c||^2 = {e2:.3e} is not positive in float64"
                )
            dropped = (math.sqrt(self.tail_c) + np.abs(w).sum() * math.sqrt(self.tail_nodes)) ** 2
            if dropped <= 2.0**-_TAIL_BITS * e2:
                break
            if m >= _MAX_BASIS_ROWS:
                raise NumericalInconsistencyError(
                    f"the basis tail bound {dropped:.3e} stays above 2^-{_TAIL_BITS} e^2 = "
                    f"{2.0**-_TAIL_BITS * e2:.3e} at {m} rows; nodes this close need the extended search"
                )
            self._grow(m + 2)
        dphi = -(s / self.ell) * phi
        dphi[1:] += root_k / self.ell * phi[:-1]
        return w, e2, -2 * w * (r @ dphi)


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
    in closed form at every objective evaluation, leaving an L-BFGS-B
    search over the node positions within the box bounds on f = ln e^2,
    whose gradient comes from the same solve by the envelope theorem.  The
    logarithm is scale-free, so L-BFGS-B's default tolerances serve every
    length scale.  :func:`_search_lane` picks the objective per length
    scale:

    - "float64" (the Gaussian kernel while 2 N log2(l / R) <= 40 and
      N <= 4):
      :class:`_BasisResidual`, a least-squares residual on the kernel's
      orthonormal basis.  The winning nodes are then re-solved once by
      :func:`cubature.optimal_weights` at ``prec``; that solve gives the
      returned weights, the wce sqrt(LL[K] - w.z) of the last trace entry
      and the winning restart's summary wce.
    - "extended" otherwise: :func:`_envelope_gradient`, one
      :func:`cubature.optimal_weights` solve at ``prec`` per evaluation.

    Coinciding nodes, or a basis or Gram matrix that is singular or not
    numerically positive definite, read as the zero rule (f = ln LL[K],
    gradient zero), an upper bound for every optimal-weight rule; a
    nonpositive e^2 raises.  Runs one deterministic start from the Gaussian
    quadrature nodes of the functional (when available) plus seeded
    stratified random restarts; the lowest evaluation recorded over all
    restarts wins.
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

    search = _search_lane(spec, L, n_points, (a, b))
    if search == "float64":
        basis = _BasisResidual(spec, L, n_points, (a, b), prec)

        def evaluate(x: np.ndarray):
            w, e2, de2 = basis.envelope(x)
            return e2, de2, None, tuple(float(v) for v in w)
    else:

        def evaluate(x: np.ndarray):
            sol, e2, de2 = _envelope_gradient(spec, L, llk, PointSet(tuple((float(v),) for v in x)), prec)
            return e2, de2, sol.rule, sol.rule.weights_float()

    def objective(y: np.ndarray, best: dict) -> tuple[float, np.ndarray]:
        order = np.argsort(y)
        x = y[order]
        if np.any(np.diff(x) <= 0):
            return zero_rule, np.zeros_like(y)
        try:
            e2, de2, rule, weights = evaluate(x)
        except (NumericallyIndefiniteError, SingularMatrixError):
            return zero_rule, np.zeros_like(y)
        with prec.workprec():
            grad = np.empty_like(y)
            grad[order] = [float(g / e2) for g in de2]
            if "e2" not in best or e2 < best["e2"]:
                best["e2"], best["rule"] = e2, rule
                # the written wce is sqrt(e^2) rounded once
                best["record"].append(TraceEntry(tuple(float(v) for v in x), weights, float(rsqrt(e2))))
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
    trace = OptimizationTrace(search=search)
    searched = []  # the summaries whose wce an evaluation recorded
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
            summary = {"start": name, "wce": wce, "nfev": int(res.nfev), "converged": bool(res.success)}
            trace.restart_summaries.append(summary)
            if best["record"]:
                searched.append(summary)
            if "e2" in best and (winner is None or best["e2"] < winner[0]["e2"]):
                winner = (best, bool(res.success))

    if winner is None:
        raise NumericalInconsistencyError(
            "optimizer never reached a feasible node configuration; widen the box "
            "or reduce n_points"
        )
    best, converged = winner
    if search == "float64":
        found = best["record"][-1]
        sol, e2 = _optimal_e2(spec, L, llk, PointSet.from_1d(found.points), prec)
        with prec.workprec():
            wce = float(rsqrt(e2))
        # Every float64 wce is scaled by wce / found.wce: the winner's becomes
        # the extended one, and the order that chose the winner is kept, so
        # it stays the least and the history stays non-increasing.
        rescale = lambda v: wce * (v / found.wce)
        best["record"] = [TraceEntry(e.points, e.weights, rescale(e.wce)) for e in best["record"][:-1]]
        best["record"].append(TraceEntry(found.points, sol.rule.weights_float(), wce))
        best["rule"] = sol.rule
        for summary in searched:
            summary["wce"] = rescale(summary["wce"])
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

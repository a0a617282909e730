"""Worst-case optimal cubature weights in a kernel's RKHS, the worst-case
error functional, and the two polynomial-type weight families the optimal
weights approach as the kernel flattens.

For fixed points x_1..x_N and functional L, the optimal weights solve
G w = z with the kernel Gram matrix G and the embedding vector
z_n = L[K(., x_n)], and the squared worst-case error of any rule is

    e(Q)^2 = LL[K] - 2 w.z + w.G w ,

which collapses to LL[K] - w.z at the optimum.  In the flat limit both
forms cancel catastrophically.  For the Gaussian kernel the functions

    phi_alpha(x) = exp(-|x|^2 / (2 l^2)) x^alpha / (sqrt(alpha!) l^|alpha|)

form an orthonormal basis of the RKHS, so the same error is the residual

    e(Q)^2 = sum_alpha (c_alpha - sum_n w_n phi_alpha(x_n))^2 = ||c - Phi w||^2

with c_alpha = L[phi_alpha].  Its terms lose about log2(||c|| / e) bits
to cancellation, where the Gram form, with LL[K] = ||c||^2, loses twice
that; :func:`residual_wce` evaluates it, :func:`accurate_wce` picks a form.

The damped monomials exp(-|x|^2 / (2 l^2)) x^alpha collocate as V D, the
Vandermonde matrix V times D = diag(exp(-|x_n|^2 / (2 l^2))), so one
Vandermonde solve serves the polynomial weights, the phi weights (then
rescaled by D^-1) and the unisolvency check.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Optional, Union

from mpmath import mp

from .core import (
    MACHINE,
    CubatureRule,
    MultiIndex,
    MultiIndexSet,
    PointSet,
    PrecisionConfig,
    Real,
    degree_compositions,
    enumerate_multi_indices,
    monomial_eval,
    rexp,
    rsqrt,
    sq_norm,
)
from .errors import (
    FlatLimitError,
    NotUnisolventError,
    NumericalInconsistencyError,
    SeriesConvergenceError,
    SingularMatrixError,
)
from .functionals import (
    FunctionalSpec,
    damped_moment,
    double_embedding,
    kernel_embedding,
    moment,
)
from .kernels import KernelSpec, gram_matrix
from .linalg import SolveResult, condition_estimate, solve_general, solve_spd


@dataclass(frozen=True)
class WeightSolution:
    """A cubature rule produced by a linear solve, with solve diagnostics.

    ``condition``, ``residual_norm`` and ``warning`` read through to the
    :class:`SolveResult`, which computes them on first read.  Optimal
    weights also record the kernel, the functional, the Gram matrix and
    the embedding they were solved with, so that :func:`worst_case_error`
    can reuse them; the polynomial-type weight families leave these None.
    """

    rule: CubatureRule
    solve: SolveResult
    kernel: Optional[KernelSpec] = None
    functional: Optional[FunctionalSpec] = None
    gram: Any = None
    embedding: Optional[tuple[Real, ...]] = None

    @property
    def weights(self) -> tuple[Real, ...]:
        return self.rule.weights

    @property
    def precision(self) -> PrecisionConfig:
        return self.solve.precision

    @property
    def condition(self) -> float:
        return self.solve.condition

    @property
    def residual_norm(self) -> Real:
        return self.solve.residual_norm

    @property
    def warning(self) -> Optional[str]:
        return self.solve.warning


@dataclass(frozen=True)
class WorstCaseReport:
    """Worst-case error of a rule and the three terms it is assembled from.

    ``radicand`` is LL[K] - 2 cross_term + quadratic_form before the square
    root; ``simplified_radicand`` is LL[K] - cross_term and only present
    when the weights were asserted optimal.
    """

    wce: Real
    initial_term: Real
    embedding: tuple[Real, ...]
    quadratic_form: Real
    cross_term: Real
    radicand: Real
    condition: float
    simplified_radicand: Optional[Real] = None


def _check_dims(L: FunctionalSpec, points: PointSet) -> None:
    if L.dimension != points.dimension:
        raise ValueError(
            f"functional dimension {L.dimension} != point dimension {points.dimension}"
        )


def _monomials(points: PointSet, degree: int) -> MultiIndexSet:
    """The monomials of degree at most ``degree``, once the points number
    exactly one per monomial."""
    mset = enumerate_multi_indices(points.dimension, degree)
    if len(points) != mset.size:
        raise ValueError(
            f"degree {degree} in dimension {points.dimension} needs exactly "
            f"{mset.size} points, got {len(points)}"
        )
    return mset


def optimal_weights(
    spec: KernelSpec,
    L: FunctionalSpec,
    points: PointSet,
    prec: PrecisionConfig = MACHINE,
) -> WeightSolution:
    """Weights minimizing the worst-case error over the kernel's unit ball.

    Solves the symmetric positive definite system G w = z.  Distinct points
    make G positive definite in exact arithmetic for every supported kernel;
    a Cholesky failure therefore signals insufficient precision, not an
    invalid problem, and raises accordingly.
    """
    _check_dims(L, points)
    with prec.workprec():
        G = gram_matrix(spec, points, prec)
        z = [kernel_embedding(L, spec, x, prec) for x in points]
        sol = solve_spd(G, z, prec)
        rule = CubatureRule(points, sol.solution)
        return WeightSolution(rule, sol, spec, L, G, tuple(z))


def worst_case_error(
    spec: KernelSpec,
    L: FunctionalSpec,
    rule: Union[CubatureRule, WeightSolution],
    prec: PrecisionConfig = MACHINE,
    assume_optimal: bool = False,
) -> WorstCaseReport:
    """Worst-case error of ``rule`` for ``L`` over the kernel's unit ball.

    ``rule`` is a cubature rule or a :class:`WeightSolution`.  A solution
    from :func:`optimal_weights` brings the Gram matrix, the embedding and
    the condition number of its solve, which are reused instead of being
    recomputed; its kernel, functional and precision must then equal
    ``spec``, ``L`` and ``prec`` (ValueError otherwise).

    Always evaluates the full quadratic form.  The flat-limit regime
    cancels catastrophically, so a small negative radicand within the
    roundoff budget (10 u kappa(G) scale) is clamped to zero, while
    anything below that budget raises: it means the working precision
    cannot represent the answer.  With ``assume_optimal`` the simplified
    form LL[K] - w.z is computed as well and cross-checked against the
    quadratic form at the same budget, so passing non-optimal weights with
    the flag set is caught instead of silently misreported.
    """
    solved = rule if isinstance(rule, WeightSolution) and rule.gram is not None else None
    if isinstance(rule, WeightSolution):
        rule = rule.rule
    if solved is not None and (solved.kernel, solved.functional, solved.precision) != (spec, L, prec):
        raise ValueError("the weight solution was computed for another kernel, functional or precision")
    _check_dims(L, rule.points)
    with prec.workprec():
        points = rule.points
        if solved is not None:
            G, z, cond = solved.gram, solved.embedding, solved.condition
        else:
            G = gram_matrix(spec, points, prec)
            z = [kernel_embedding(L, spec, x, prec) for x in points]
            cond = condition_estimate(G, prec)
        w = [prec.to_real(wi) for wi in rule.weights]
        n = len(points)
        llk = double_embedding(L, spec, prec)
        quad = prec.to_real(0)
        for i in range(n):
            gi = prec.to_real(0)
            for j in range(n):
                gi = gi + G[i, j] * w[j]
            quad = quad + w[i] * gi
        cross = sum(wi * zi for wi, zi in zip(w, z))
        scale = abs(llk) + 2 * abs(cross) + abs(quad)
        u = prec.to_real(2) ** -prec.bits
        budget = 10 * max(cond, 1.0) * u * max(scale, prec.to_real(1e-300))
        radicand = llk - 2 * cross + quad
        if radicand < -budget:
            raise NumericalInconsistencyError(
                f"squared worst-case error {float(radicand):.3e} is negative beyond the "
                f"roundoff budget {float(budget):.3e} at {prec.bits} bits; increase the precision"
            )
        simplified = None
        if assume_optimal:
            simplified = llk - cross
            if abs(simplified - radicand) > budget:
                raise NumericalInconsistencyError(
                    "simplified and full worst-case error forms disagree beyond the roundoff "
                    f"budget ({float(abs(simplified - radicand)):.3e} > {float(budget):.3e}); "
                    "the weights are not optimal at this precision"
                )
        wce = rsqrt(max(prec.to_real(0), radicand))
        return WorstCaseReport(
            wce=wce,
            initial_term=llk,
            embedding=tuple(z),
            quadratic_form=quad,
            cross_term=cross,
            radicand=radicand,
            condition=cond,
            simplified_radicand=simplified,
        )


_RESIDUAL_GUARD_BITS = 16
_RESIDUAL_MAX_TERMS = 100_000
_SWEEP_RESIDUAL_TERMS = 500


def _residual_form(spec: KernelSpec, L: FunctionalSpec, rule: CubatureRule, prec: PrecisionConfig) -> bool:
    """Whether a sweep takes the wce of ``rule`` from :func:`residual_wce`:
    the Gaussian kernel, a product functional (point evaluation, a box,
    the Gaussian measure), and a first pass that the tail bound ends
    within 500 basis functions, as :func:`_residual_degree_bound` shows
    before any of it is computed.  That holds in the flat regime, where
    the Gram form cancels.  Past it (a length scale small next to the
    nodes or the box, a slowly decaying Gaussian measure, or d >= 2 below
    the very flat end) the sum grows like (R^2 / l^2)^d or
    (1 / log(1 + l^2))^d, and the Gram form of :func:`worst_case_error`
    is both cheap and accurate."""
    if spec.family != "gaussian" or L.kind == "numeric_oracle":
        return False
    d, degree = rule.dimension, 0
    while math.comb(degree + 1 + d, d) <= _SWEEP_RESIDUAL_TERMS:
        degree += 1
    return _residual_degree_bound(spec.length_scale, L, rule, prec, degree)


def _fixed(x, F: int) -> int:
    """The mpf ``x`` in fixed point with F fraction bits (truncated)."""
    return int(mp.ldexp(x, F))


def _axis_coefficients(L: FunctionalSpec, axis: int, length_scale: float, F: int):
    """c_k = L_i[phi_k] = damped_moment(L_i, (k,)) / (sqrt(k!) l^k) for
    k = 0, 1, ..., with L_i the 1-D factor on axis i of a box or the
    Gaussian measure, in fixed point with F fraction bits.  Each value is
    formed at F + 16 bits; no precision context is held across a yield.
    Under the Gaussian measure the closed form of :func:`damped_moment`,
    v^((k+1)/2) (k-1)!! for even k, is advanced by its ratio from k to
    k + 2, since (k-1)!! alone grows to k log k bits."""
    prec = PrecisionConfig.extended(F + _RESIDUAL_GUARD_BITS)
    if L.kind == "gaussian_measure":
        with prec.workprec():
            v = mp.mpf(length_scale) ** 2 / (1 + mp.mpf(length_scale) ** 2)
            value = mp.sqrt(v)
        for k in itertools.count(0, 2):
            yield _fixed(value, F)
            yield 0
            with prec.workprec():
                value = value * v / mp.mpf(length_scale) ** 2 * mp.sqrt(mp.mpf(k + 1) / (k + 2))
    factor = FunctionalSpec.lebesgue_box(L.lower[axis], L.upper[axis])
    for k in itertools.count():
        with prec.workprec():
            norm = mp.sqrt(mp.factorial(k)) * mp.mpf(length_scale) ** k
            value = damped_moment(factor, length_scale, MultiIndex((k,)), prec) / norm
        yield _fixed(value, F)


def _phi_columns(sites, length_scale: float, F: int):
    """phi_k(x_i) = exp(-x_i^2 / (2 l^2)) x_i^k / (sqrt(k!) l^k), the 1-D
    :func:`kernels.phi_basis_eval` of degree k divided by sqrt(k!) l^k, at
    each coordinate x_i of each site, for k = 0, 1, ...: one list per site
    with one fixed-point value (F fraction bits) per axis, by the
    recurrence phi_(k+1) = phi_k x_i / (l sqrt(k+1))."""
    with mp.workprec(F + _RESIDUAL_GUARD_BITS):
        ell = mp.mpf(length_scale)
        X = [[_fixed(mp.mpf(c), F) for c in x] for x in sites]
        phi = [[_fixed(mp.exp(-mp.mpf(c) ** 2 / (2 * ell * ell)), F) for c in x] for x in sites]
    for k in itertools.count():
        yield phi
        with mp.workprec(F + _RESIDUAL_GUARD_BITS):
            step = _fixed(1 / (ell * mp.sqrt(k + 1)), F)
        phi = [[(p * xi >> F) * step >> F for p, xi in zip(ps, xs)] for ps, xs in zip(phi, X)]


def _log_poisson_tail(rho: float, m: int) -> float:
    """The log of an upper bound on exp(-rho) sum_(j > m) rho^j / j!, the
    share of sum_alpha phi_alpha(x)^2 = 1 above degree m when
    rho = |x|^2 / l^2; inf while the geometric bound does not apply."""
    if rho == 0:
        return -math.inf
    if rho >= m + 2:
        return math.inf
    return -rho + (m + 1) * math.log(rho) - math.lgamma(m + 2) - math.log1p(-rho / (m + 2))


def _log_coefficient_tail(L: FunctionalSpec, ell: float, m: int) -> float:
    """The log of an upper bound on sum_(|alpha| > m) c_alpha^2.

    Point evaluation at y: the Poisson tail at |y|^2 / l^2.  A box of
    volume V: by Cauchy-Schwarz c_alpha^2 <= V int phi_alpha^2, so V^2
    times the Poisson tail at the box's largest |x|^2 / l^2.  The Gaussian
    measure: c_alpha^2 <= v^d q^|alpha| with v = l^2 / (1 + l^2) and
    q = 1 / (1 + l^2), summed over the C(j + d - 1, d - 1) indices of each
    degree j as a geometric series."""
    d = L.dimension
    if L.kind == "point_eval":
        return _log_poisson_tail(sum(y * y for y in L.location) / ell**2, m)
    if L.kind == "lebesgue_box":
        log_volume = sum(math.log(b - a) for a, b in zip(L.lower, L.upper))
        rho = sum(max(a * a, b * b) for a, b in zip(L.lower, L.upper)) / ell**2
        return 2 * log_volume + _log_poisson_tail(rho, m)
    log_q = -math.log1p(ell * ell)
    ratio = math.exp(log_q) * (m + 1 + d) / (m + 2)
    if ratio >= 1:
        return math.inf
    log_v = 2 * math.log(ell) + log_q
    return d * log_v + math.log(math.comb(m + d, d - 1)) + (m + 1) * log_q - math.log1p(-ratio)


def _log_residual_tail(L: FunctionalSpec, ell: float, m: int, log_w, rhos) -> float:
    """The log of tau = sqrt(C) + sum_n |w_n| sqrt(P_n), a bound on the
    norm of the residual above degree m (Minkowski), with the coefficient
    tail C and the Poisson tails P_n of the nodes."""
    logs = [_log_coefficient_tail(L, ell, m) / 2] + [
        lw + _log_poisson_tail(rho, m) / 2 for lw, rho in zip(log_w, rhos)
    ]
    top = max(logs)
    if math.isinf(top):
        return top
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _residual_first_bits(prec: PrecisionConfig) -> int:
    """The working precision of the first pass of :func:`residual_wce`."""
    return 2 * prec.bits + 2 * _RESIDUAL_GUARD_BITS


def _residual_degree_bound(length_scale: float, L: FunctionalSpec, rule: CubatureRule, prec: PrecisionConfig, degree: int) -> bool:
    """Whether the first pass of :func:`residual_wce` stops by ``degree``:
    the stopping test of :func:`_basis_residual` passes there on its
    roundoff floor alone, taken with the scale max |w_n| (no larger than
    the pass's own), and one more bit covers the fixed-point rounding of
    the weights.  A second pass, run for a wce below 2^-(bits + 16)
    scale, stops by the same degree unless the wce also lies below the
    first pass's floor, 2^-(2 bits + 32) scale."""
    log_w = [float(mp.log(abs(w))) if w else -math.inf for w in rule.weights]
    if max(log_w) == -math.inf:
        return False
    rhos = [sum(c * c for c in x) / length_scale**2 for x in rule.points]
    floor = max(log_w) - _residual_first_bits(prec) * math.log(2)
    log_tau = _log_residual_tail(L, length_scale, degree, log_w, rhos)
    return 2 * log_tau <= 2 * floor - (prec.bits + _RESIDUAL_GUARD_BITS + 2) * math.log(2)


def _log_int(n: int) -> float:
    return math.log(n) if n else -math.inf


def _fixed_product(values, F: int) -> int:
    out = None
    for v in values:
        out = v if out is None else out * v >> F
    return out


def _basis_residual(length_scale: float, L: FunctionalSpec, rule: CubatureRule, bits: int, target_bits: int):
    """The residual norm ||c - Phi w|| over the degrees 0..M in fixed
    point, and log2(scale / residual), the bits that each term's
    cancellation can cost, with the scale ||c|| + sum |w_n|.

    Every value is held with F = ``bits`` + 16 + rho / (2 ln 2) fraction
    bits (rho the largest |x|^2 / l^2 of the nodes and of a point
    evaluation, where the recurrence of :func:`_phi_columns` can amplify
    rounding by up to e^(rho/2)), and the squares are summed exactly.  M
    is the first degree at which the rigorous bound tau of
    :func:`_log_residual_tail` on the norm of the remaining residual gives
    tau^2 <= 2^-(target_bits + 17) max(e_M^2, floor^2) with the roundoff
    floor 2^-bits scale; the bound is evaluated in floating-point
    logarithms, and the extra bit covers their rounding.  As
    e^2 = e_M^2 + (the remaining squares), e_M then meets e to a relative
    2^-(target_bits + 17), or lies at the floor.
    """
    points, d = rule.points, rule.dimension
    # a point evaluation's coefficients are the basis at its location
    sites = list(points) + ([L.location] if L.kind == "point_eval" else [])
    rhos = [sum(c * c for c in x) / length_scale**2 for x in sites]
    F = bits + _RESIDUAL_GUARD_BITS + math.ceil(max(rhos) / (2 * math.log(2)))
    with mp.workprec(F + _RESIDUAL_GUARD_BITS):
        W = [_fixed(mp.mpf(w), F) for w in rule.weights]
    log_w = [_log_int(abs(v)) - F * math.log(2) for v in W]
    sum_w = sum(abs(v) for v in W)
    columns = _phi_columns(sites, length_scale, F)
    tables = [[[v] for v in site] for site in next(columns)]
    basis = tables[: len(points)]
    if L.kind == "point_eval":
        coefficients, coefficient_gens = tables[-1], []
    else:
        coefficient_gens = [_axis_coefficients(L, i, length_scale, F) for i in range(d)]
        coefficients = [[next(g)] for g in coefficient_gens]
    e2 = c2 = terms = 0
    for m in itertools.count():
        if m > 0:
            for site, values in zip(tables, next(columns)):
                for axis, v in zip(site, values):
                    axis.append(v)
            for axis, g in zip(coefficients, coefficient_gens):
                axis.append(next(g))
        for alpha in degree_compositions(d, m):
            c = _fixed_product((coefficients[i][k] for i, k in enumerate(alpha)), F)
            q = sum(w * _fixed_product((phi[i][k] for i, k in enumerate(alpha)), F) for w, phi in zip(W, basis))
            r = c - (q >> F)
            e2 += r * r
            c2 += c * c
            terms += 1
        log_tau = _log_residual_tail(L, length_scale, m, log_w, rhos)
        log_scale = _log_int(math.isqrt(c2) + sum_w) - F * math.log(2)
        log_e2 = _log_int(e2) - 2 * F * math.log(2)
        if 2 * log_tau <= max(log_e2, 2 * (log_scale - bits * math.log(2))) - (
            target_bits + _RESIDUAL_GUARD_BITS + 1
        ) * math.log(2):
            break
        if terms > _RESIDUAL_MAX_TERMS:
            raise SeriesConvergenceError(
                f"the basis residual did not reach its tail bound within {_RESIDUAL_MAX_TERMS} "
                f"basis functions (length_scale={length_scale}); use worst_case_error"
            )
    with mp.workprec(bits):
        e = mp.ldexp(mp.sqrt(e2), -F)
    return e, (log_scale - log_e2 / 2) / math.log(2)


def residual_wce(
    spec: KernelSpec,
    L: FunctionalSpec,
    rule: CubatureRule,
    prec: PrecisionConfig = MACHINE,
) -> Real:
    """Worst-case error of ``rule`` for the Gaussian kernel, as the
    residual ||c - Phi w|| in the orthonormal basis phi_alpha.

    Covers point evaluation, boxes and the Gaussian measure in any
    dimension (ValueError for other kernels or a numeric oracle; use
    :func:`worst_case_error` there).  The sum over multi-indices runs by
    total degree until a rigorous tail bound stops it (see
    :func:`_basis_residual`), not to a fixed degree; past 100,000 basis
    functions it raises :class:`SeriesConvergenceError`.  The count grows
    like (R^2 / l^2)^d on a box of radius R and like (1 / log(1 + l^2))^d
    under the Gaussian measure, so small length scales belong to
    :func:`worst_case_error`, whose Gram form does not cancel there.  Each
    term c_alpha - sum_n w_n phi_alpha(x_n) can lose up to log2(scale / e)
    bits to cancellation, so the sum is evaluated at 2 bits + 32 and once
    more with that loss added when the first pass shows it larger, capped
    at 4 bits + 64: the result has a relative error of about 2^-bits, or
    an absolute one of about 2^-(3 bits) scale at the cap.
    """
    if spec.family != "gaussian" or L.kind == "numeric_oracle":
        raise ValueError(
            f"the basis residual covers the Gaussian kernel and product functionals, "
            f"not the {spec.family} kernel with {L.kind}; use worst_case_error"
        )
    _check_dims(L, rule.points)
    cap = 4 * prec.bits + 64
    bits = _residual_first_bits(prec)
    while True:
        e, lost = _basis_residual(spec.length_scale, L, rule, bits, prec.bits)
        if lost + _RESIDUAL_GUARD_BITS <= bits - prec.bits or bits >= cap:
            break
        bits = cap if math.isinf(lost) else min(cap, prec.bits + _RESIDUAL_GUARD_BITS + math.ceil(lost))
    with prec.workprec():
        return prec.to_real(e)


def accurate_wce(
    spec: KernelSpec,
    L: FunctionalSpec,
    rule: Union[CubatureRule, WeightSolution],
    prec: PrecisionConfig = MACHINE,
    assume_optimal: bool = False,
) -> Real:
    """Worst-case error of ``rule`` in the form that keeps its digits: the
    basis residual of :func:`residual_wce` where :func:`_residual_form`
    selects it, else the Gram form of :func:`worst_case_error`."""
    bare = rule.rule if isinstance(rule, WeightSolution) else rule
    if _residual_form(spec, L, bare, prec):
        return residual_wce(spec, L, bare, prec)
    return worst_case_error(spec, L, rule, prec, assume_optimal).wce


def _vandermonde_solve(points: PointSet, degree: int, rhs, prec: PrecisionConfig) -> SolveResult:
    """Solve V^T u = (rhs(alpha))_alpha for the Vandermonde matrix
    V_(n, alpha) = x_n^alpha of the monomials up to ``degree`` in the
    graded order, at the working precision; a singular system means the
    points are not unisolvent (:class:`NotUnisolventError`)."""
    mset = _monomials(points, degree)
    with prec.workprec():
        A = prec._matrix(len(points), len(points))
        for j, alpha in enumerate(mset):
            for i, x in enumerate(points):
                A[j, i] = monomial_eval(prec.to_point(x), alpha)
        try:
            return solve_general(A, [rhs(alpha) for alpha in mset], prec)
        except SingularMatrixError as e:
            raise NotUnisolventError(
                f"points are not unisolvent for degree {degree} (singular Vandermonde system)"
            ) from e


def polynomial_weights(
    L: FunctionalSpec,
    points: PointSet,
    degree: int,
    prec: PrecisionConfig = MACHINE,
) -> WeightSolution:
    """Weights of the unique rule exact on all polynomials up to ``degree``.

    Needs exactly C(d + degree, d) points; solves the transposed Vandermonde
    system V^T w = (L[x^alpha])_alpha in the graded monomial order.  A
    singular system means the points are not unisolvent.  The damped
    system of :func:`phi_weights` is the same V times a positive diagonal.
    """
    _check_dims(L, points)
    sol = _vandermonde_solve(points, degree, lambda alpha: moment(L, alpha, prec), prec)
    return WeightSolution(CubatureRule(points, sol.solution), sol)


def phi_weights(
    L: FunctionalSpec,
    length_scale: float,
    points: PointSet,
    degree: int,
    prec: PrecisionConfig = MACHINE,
) -> WeightSolution:
    """Weights reproducing L on the damped monomials phi_alpha up to ``degree``.

    The damped collocation matrix is V D, the Vandermonde matrix V times
    D = diag(exp(-|x_n|^2/(2 l^2))), so solvability is exactly unisolvency
    of the points.  This solves V^T u = (L[phi_alpha])_alpha and returns
    w_n = exp(|x_n|^2/(2 l^2)) u_n; the diagnostics (condition, residual,
    warning) are those of the Vandermonde solve.  Machine-lane weights
    past the float64 range raise :class:`FlatLimitError`.
    """
    _check_dims(L, points)
    sol = _vandermonde_solve(points, degree, lambda alpha: damped_moment(L, length_scale, alpha, prec), prec)
    with prec.workprec():
        ell = prec.to_real(length_scale)
        try:
            weights = tuple(u * rexp(sq_norm(prec.to_point(x)) / (2 * ell * ell)) for u, x in zip(sol.solution, points))
        except OverflowError as e:  # mpf exponents do not overflow
            raise FlatLimitError(f"phi weights at length_scale={length_scale} exceed the float64 range") from e
    return WeightSolution(CubatureRule(points, weights), sol)


@dataclass(frozen=True)
class UnisolvencyReport:
    """Outcome of a unisolvency check: one of "unisolvent",
    "ill_conditioned" (unisolvent at the working precision but with a
    condition estimate above threshold) or "not_unisolvent"."""

    status: str
    condition: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.status == "unisolvent"


def unisolvency_check(
    points: PointSet,
    degree: int,
    prec: PrecisionConfig = MACHINE,
) -> UnisolvencyReport:
    """Classify whether the points determine degree-``degree`` interpolation.

    The condition threshold is 1 / (100 u) at the working precision: past
    it the Vandermonde solve has fewer than two safe digits and downstream
    weight systems are not trustworthy.
    """
    threshold = 1.0 / (100 * prec.unit_roundoff)
    try:
        cond = _vandermonde_solve(points, degree, lambda alpha: 0, prec).condition
    except NotUnisolventError:
        cond = math.inf
    if math.isinf(cond):
        return UnisolvencyReport("not_unisolvent", cond, threshold)
    if cond >= threshold:
        return UnisolvencyReport("ill_conditioned", cond, threshold)
    return UnisolvencyReport("unisolvent", cond, threshold)

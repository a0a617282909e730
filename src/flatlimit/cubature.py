"""Worst-case optimal cubature weights in a kernel's RKHS, the worst-case
error functional, and the two polynomial-type weight families the optimal
weights approach as the kernel flattens.

For fixed points x_1..x_N and functional L, the optimal weights solve
G w = z with the kernel Gram matrix G and the embedding vector
z_n = L[K(., x_n)], and the squared worst-case error of any rule is

    e(Q)^2 = LL[K] - 2 w.z + w.G w ,

which collapses to LL[K] - w.z at the optimum.  In the flat limit both
forms cancel catastrophically: e^2 lies log2(scale / e^2) bits below the
scale of its terms, a loss that grows about like 2 N log2 l, as
:func:`linalg.auto_precision_bits` does.  :func:`worst_case_error`, the one
wce evaluator, therefore evaluates the Gram form at 2 bits + 32, and higher
when the radicand shows more loss, so the digits it returns at ``bits`` are
correct.  The Gram system loses about as many bits, so
:func:`optimal_weights` assembles G and z once, at that same 2 bits + 32,
solves there and rounds the weights to ``bits``; the wce of its solution
reuses that assembly for its first pass.

The damped monomials exp(-|x|^2 / (2 l^2)) x^alpha collocate as V D, the
Vandermonde matrix V times D = diag(exp(-|x_n|^2 / (2 l^2))), so one
Vandermonde factor serves the polynomial weights, the phi weights at every
length scale (then rescaled by D^-1) and the unisolvency check.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Optional, Union

from mpmath import mp
from mpmath.libmp import (
    fone, from_float, fzero, mpf_abs, mpf_add, mpf_gt, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_shift, mpf_sqrt, mpf_sub,
    mpf_sum, to_float,
)

from .core import (
    MACHINE,
    CubatureRule,
    MultiIndexSet,
    PointSet,
    PrecisionConfig,
    Real,
    _Frozen,
    _length_scale,
    _set,
    enumerate_multi_indices,
    monomial_eval,
    rexp_once,
    sq_norm,
)
from .errors import (
    FlatLimitError,
    NotUnisolventError,
    NumericalInconsistencyError,
    SingularMatrixError,
)
from .functionals import (
    FunctionalSpec,
    _row_damped_moments,
    _row_embeddings,
    double_embedding,
    moment,
)
from .kernels import _as_points, gram_matrix
from .linalg import SolveResult, _warning_for, checkerboard_condition, condition_estimate, solve_general, solve_spd


class WeightSolution(_Frozen):
    """A cubature rule produced by a linear solve, with solve diagnostics.

    ``precision`` is the precision the weights are rounded to; the solve
    may run higher.  ``condition`` and ``residual_norm`` are computed on
    first read from the :class:`SolveResult`'s stored factor, and
    ``warning`` judges that condition at ``precision``.  Optimal weights
    also record the length scale and functional they were solved with, and
    their solve keeps G and z at its own precision: :func:`worst_case_error`
    takes the rule, the Gram condition and that assembly from such a
    solution.  The polynomial-type weight families leave these None.
    """

    _fields = ("rule", "solve", "precision", "length_scale", "functional")

    def __init__(self, rule: CubatureRule, solve: SolveResult, precision: PrecisionConfig,
                 length_scale: Optional[float] = None, functional: Optional[FunctionalSpec] = None) -> None:
        _set(self, "rule", rule)
        _set(self, "solve", solve)
        _set(self, "precision", precision)
        _set(self, "length_scale", length_scale)
        _set(self, "functional", functional)

    @property
    def weights(self) -> tuple[Real, ...]:
        return self.rule.weights

    @cached_property
    def condition(self) -> float:
        """The condition number of the solve.  The Gaussian is a Polya
        frequency function (Schoenberg, 1951), so its Gram matrix on
        distinct ascending 1-D points is strictly totally positive and its
        inverse checkerboard: optimal weights of the Gaussian kernel on 1-D
        points take it from one substitution with s = (1, -1, 1, ...) up
        to the solve's warning threshold (:func:`linalg.checkerboard_condition`),
        every other solve from :attr:`SolveResult.condition`."""
        if self.length_scale is not None and self.rule.points.dimension == 1:
            return checkerboard_condition(self.solve, [(-1) ** i for i in range(len(self.rule.points))])
        return self.solve.condition

    @property
    def residual_norm(self) -> Real:
        return self.solve.residual_norm

    @property
    def warning(self) -> Optional[str]:
        return _warning_for(self.condition, self.precision)


class WorstCaseReport(_Frozen):
    """Worst-case error of a rule and the three terms it is assembled from.

    ``radicand`` is LL[K] - 2 cross_term + quadratic_form before the square
    root.
    """

    __slots__ = _fields = ("wce", "initial_term", "quadratic_form", "cross_term", "radicand", "condition")

    def __init__(self, wce: Real, initial_term: Real, quadratic_form: Real, cross_term: Real, radicand: Real,
                 condition: float) -> None:
        self._bind(wce, initial_term, quadratic_form, cross_term, radicand, condition)


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


def _wce_bits(prec: PrecisionConfig) -> int:
    """The precision of the first pass of :func:`worst_case_error`, at
    which :func:`optimal_weights` also solves."""
    return 2 * prec.bits + 32


def optimal_weights(
    length_scale: float,
    L: FunctionalSpec,
    points: PointSet,
    prec: PrecisionConfig = MACHINE,
) -> WeightSolution:
    """Weights minimizing the worst-case error over the kernel's unit ball.

    Assembles G and z once, at 2 bits + 32 in both lanes, and solves the
    symmetric positive definite system G w = z there by Cholesky, so the
    weights rounded to ``prec`` keep their digits while the Gram system
    loses up to bits + 32 of them.  The solution keeps that assembly for
    :func:`worst_case_error`.  Distinct points make G positive definite in
    exact arithmetic; a Cholesky failure therefore signals insufficient
    precision, not an invalid problem, and raises accordingly.
    """
    ell = _length_scale(length_scale)
    _check_dims(L, points)
    solve_prec = PrecisionConfig.extended(_wce_bits(prec))
    G = gram_matrix(ell, points, solve_prec)
    sol = solve_spd(G, _row_embeddings(L, ell, points, solve_prec), solve_prec)
    rule = CubatureRule(points, tuple(prec.from_raw(w._mpf_) for w in sol.solution))
    return WeightSolution(rule, sol, prec, ell, L)


def _gram_terms(ell: float, L: FunctionalSpec, rule: CubatureRule, bits: int, assembly=None):
    """The Gram matrix G (raw mpf rows), LL[K], w.G w and w.z (z the
    embedding) of ``rule`` at ``bits``, all raw mpf, taking its weights as
    exact, with the roundings of ``mp.fsum`` of mpf products; ``assembly``
    is a pair (G, z) of raw rows and a raw vector already assembled at
    ``bits``."""
    prec, rnd = PrecisionConfig.extended(bits), mp._prec_rounding[1]
    if assembly is None:
        G = [[g._mpf_ for g in row] for row in gram_matrix(ell, rule.points, prec)]
        z = [v._mpf_ for v in _row_embeddings(L, ell, rule.points, prec)]
    else:
        G, z = assembly
    w = [mp.mpf(wi, prec=bits, rounding=rnd)._mpf_ for wi in rule.weights]
    dot = lambda a, b: mpf_sum([mpf_mul(x, y, bits, rnd) for x, y in zip(a, b)], bits, rnd)
    return G, double_embedding(L, ell, prec)._mpf_, dot(w, [dot(row, w) for row in G]), dot(w, z)


def worst_case_error(
    length_scale: float,
    L: FunctionalSpec,
    rule: Union[CubatureRule, WeightSolution],
    prec: PrecisionConfig = MACHINE,
    assume_optimal: bool = False,
) -> WorstCaseReport:
    """Worst-case error of ``rule`` for ``L`` over the kernel's unit ball,
    for every functional and dimension, in both lanes.

    ``rule`` is a cubature rule or a :class:`WeightSolution`.  A solution
    from :func:`optimal_weights` supplies its rule, the condition number
    of its Gram solve, which is then not estimated again, and the G and z
    it was solved from, which are then not assembled again; its length
    scale, functional and precision must equal ``length_scale``, ``L`` and
    ``prec`` (ValueError otherwise).

    The weights are taken as exact, and LL[K], z, G, w.z and w.G w are
    evaluated at 2 bits + 32.  The radicand cancels by
    lost = ceil(log2(scale / |radicand|)) bits, scale = |LL[K]| + 2 |w.z| +
    |w.G w|, the least c with scale <= |radicand| 2^c by exact comparisons;
    while a pass shows lost + bits + 16 above its precision, the terms are
    evaluated again at bits + 32 + lost, up to 4 bits + 64.  The radicand
    then has a relative error of about 2^-(bits + 16), or an absolute one
    of about 2^-(3 bits) scale at the cap.  Every field of the report is
    rounded to ``prec`` on return.

    A negative radicand within the roundoff budget 10 u kappa(G) scale (u
    the unit roundoff of ``prec``) is clamped to zero, while anything below
    it raises.  kappa(G) is the solution's Gram condition, or for a bare
    rule that of an LU of G at the first pass's 2 bits + 32
    (:func:`linalg.condition_estimate`, one triangular inverse of the
    factor), in both lanes, so the two report the same condition.  With
    ``assume_optimal`` the simplified form LL[K] - w.z is computed as well
    and cross-checked against the full form at the same budget, so passing
    non-optimal weights with the flag set is caught instead of silently
    misreported.
    """
    ell = _length_scale(length_scale)
    solved = rule if isinstance(rule, WeightSolution) and rule.length_scale is not None else None
    if isinstance(rule, WeightSolution):
        rule = rule.rule
    if solved is not None and (solved.length_scale, solved.functional, solved.precision) != (ell, L, prec):
        raise ValueError("the weight solution was computed for another length scale, functional or precision")
    _check_dims(L, rule.points)
    cap, bits = 4 * prec.bits + 64, _wce_bits(prec)
    assembly = None if solved is None else (solved.solve.matrix, solved.solve.rhs)
    rnd = mp._prec_rounding[1]
    # the libmp calls of the mpf operators at ``bits``, on the raw mpf of _gram_terms
    while True:
        G, llk, quad, cross = _gram_terms(ell, L, rule, bits, assembly)
        assembly = None  # a later pass assembles afresh, at its higher precision
        radicand = mpf_add(mpf_sub(llk, mpf_mul_int(cross, 2, bits, rnd), bits, rnd), quad, bits, rnd)
        scale = mpf_add(mpf_abs(llk, bits, rnd), mpf_mul_int(mpf_abs(cross, bits, rnd), 2, bits, rnd), bits, rnd)
        scale = mpf_add(scale, mpf_abs(quad, bits, rnd), bits, rnd)
        if radicand != fzero:  # scale / |radicand| lies in (2^(lost - 1), 2^(lost + 1)); the shift is exact
            lost = scale[2] + scale[3] - radicand[2] - radicand[3]
            lost += mpf_gt(scale, mpf_shift(mpf_abs(radicand, bits, rnd), lost))
        if bits >= cap or radicand != fzero and lost + prec.bits + 16 <= bits:
            break
        bits = min(cap, prec.bits + 32 + lost) if radicand != fzero else cap
    cond = solved.condition if solved is not None else condition_estimate(
        [[mp.make_mpf(g) for g in row] for row in G], PrecisionConfig.extended(_wce_bits(prec)))
    # 10 max(cond, 1) 2^-prec.bits max(scale, 1e-300), rounded as the mpf operators round it
    tiny = from_float(1e-300)
    unit = mpf_mul(mpf_shift(fone, -prec.bits), from_float(10 * max(cond, 1.0)), bits, rnd)
    budget = mpf_mul(unit, tiny if mpf_gt(tiny, scale) else scale, bits, rnd)
    if mpf_lt(radicand, mpf_neg(budget, bits, rnd)):
        raise NumericalInconsistencyError(
            f"squared worst-case error {to_float(radicand, rnd=rnd):.3e} is negative beyond the "
            f"roundoff budget {to_float(budget, rnd=rnd):.3e} at {prec.bits} bits; increase the precision"
        )
    if assume_optimal:
        gap = mpf_abs(mpf_sub(mpf_sub(llk, cross, bits, rnd), radicand, bits, rnd), bits, rnd)
        if mpf_gt(gap, budget):
            raise NumericalInconsistencyError(
                "simplified and full worst-case error forms disagree beyond the roundoff "
                f"budget ({to_float(gap, rnd=rnd):.3e} > {to_float(budget, rnd=rnd):.3e}); "
                "the weights are not optimal at this precision"
            )
    wce = mpf_sqrt(radicand if mpf_gt(radicand, fzero) else fzero, bits, rnd)
    return WorstCaseReport(
        wce=prec.from_raw(wce),
        initial_term=prec.from_raw(llk),
        quadratic_form=prec.from_raw(quad),
        cross_term=prec.from_raw(cross),
        radicand=prec.from_raw(radicand),
        condition=cond,
    )


def _vandermonde_solve(points: PointSet, degree: int, rhs, prec: PrecisionConfig) -> SolveResult:
    """Solve V^T u = (rhs(alpha))_alpha for the Vandermonde matrix
    V_(n, alpha) = x_n^alpha of the monomials up to ``degree`` in the
    graded order, at the working precision; a singular system means the
    points are not unisolvent (:class:`NotUnisolventError`)."""
    mset = _monomials(points, degree)
    with mp.workprec(prec.bits):  # prec.workprec(), but 53 bits in machine mode
        xs = _as_points(points, prec)
        A = [[monomial_eval(x, alpha) for x in xs] for alpha in mset]
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
    return WeightSolution(CubatureRule(points, sol.solution), sol, prec)


def _phi_weights(
    vandermonde: SolveResult,
    L: FunctionalSpec,
    length_scale: float,
    points: PointSet,
    degree: int,
    prec: PrecisionConfig,
) -> WeightSolution:
    """The phi weights through the factor of ``vandermonde``, a solve with
    V^T at any precision: u solves V^T u = (L[phi_alpha])_alpha with the
    damped moments at ``prec``, and w_n = exp(|x_n|^2/(2 l^2)) u_n is
    rounded to ``prec``.  Machine-lane weights past the float64 range
    raise :class:`FlatLimitError`."""
    mset = _monomials(points, degree)
    with prec.workprec():
        sol = vandermonde.resolve(_row_damped_moments(L, length_scale, mset, prec))
        ell = prec.to_real(length_scale)
        two_l2, values = 2 * ell * ell, {}
        try:
            weights = tuple(
                prec.to_real(u * rexp_once(sq_norm(x) / two_l2, values))
                for u, x in zip(sol.solution, _as_points(points, prec))
            )
        except OverflowError as e:  # mpf exponents do not overflow
            raise FlatLimitError(f"phi weights at length_scale={length_scale} exceed the float64 range") from e
    return WeightSolution(CubatureRule(points, weights), sol, prec)


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
    of the points.  This factors V^T at ``prec`` and solves
    V^T u = (L[phi_alpha])_alpha through that factor, returning
    w_n = exp(|x_n|^2/(2 l^2)) u_n (:func:`_phi_weights`, which a sweep
    calls with one factor for all its length scales); the diagnostics
    (condition, residual, warning) are those of the Vandermonde solve.
    Machine-lane weights past the float64 range raise
    :class:`FlatLimitError`.
    """
    ell = _length_scale(length_scale)
    _check_dims(L, points)
    factor = _vandermonde_solve(points, degree, lambda alpha: 0, prec)
    return _phi_weights(factor, L, ell, points, degree, prec)


class UnisolvencyReport(_Frozen):
    """Outcome of a unisolvency check: one of "unisolvent",
    "ill_conditioned" (unisolvent at the working precision but with a
    condition estimate above threshold) or "not_unisolvent"."""

    __slots__ = _fields = ("status", "condition", "threshold")

    def __init__(self, status: str, condition: float, threshold: float) -> None:
        self._bind(status, condition, threshold)

    @property
    def ok(self) -> bool:
        return self.status == "unisolvent"


def _unisolvency_verdict(cond: float, prec: PrecisionConfig) -> UnisolvencyReport:
    """The status of a Vandermonde system of condition number ``cond``
    (inf when singular) at the unit roundoff u of ``prec``: the threshold
    is 1 / (100 u), past which the solve has fewer than two safe digits
    and downstream weight systems are not trustworthy."""
    threshold = 1.0 / (100 * prec.unit_roundoff)
    if math.isinf(cond):
        return UnisolvencyReport("not_unisolvent", cond, threshold)
    if cond >= threshold:
        return UnisolvencyReport("ill_conditioned", cond, threshold)
    return UnisolvencyReport("unisolvent", cond, threshold)


def unisolvency_check(
    points: PointSet,
    degree: int,
    prec: PrecisionConfig = MACHINE,
) -> UnisolvencyReport:
    """Classify whether the points determine degree-``degree`` interpolation,
    from the condition number of the Vandermonde solve at the working
    precision (:func:`_unisolvency_verdict`)."""
    try:
        cond = _vandermonde_solve(points, degree, lambda alpha: 0, prec).condition
    except NotUnisolventError:
        cond = math.inf
    return _unisolvency_verdict(cond, prec)

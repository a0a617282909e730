"""Worst-case optimal cubature weights in a kernel's RKHS, the worst-case
error functional, and the two polynomial-type weight families the optimal
weights approach as the kernel flattens.

For fixed points x_1..x_N and functional L, the optimal weights solve
G w = z with the kernel Gram matrix G and the embedding vector
z_n = L[K(., x_n)], and the squared worst-case error of any rule is

    e(Q)^2 = LL[K] - 2 w.z + w.G w ,

which collapses to LL[K] - w.z at the optimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Union

from .core import (
    MACHINE,
    CubatureRule,
    MultiIndexSet,
    PointSet,
    PrecisionConfig,
    Real,
    enumerate_multi_indices,
    monomial_eval,
    rsqrt,
)
from .errors import (
    NotUnisolventError,
    NumericalInconsistencyError,
    SingularMatrixError,
)
from .functionals import FunctionalSpec, damped_moment, double_embedding, kernel_embedding, moment
from .kernels import KernelSpec, gram_matrix, phi_basis_eval
from .linalg import condition_estimate, solve_general, solve_spd


@dataclass(frozen=True)
class WeightSolution:
    """A cubature rule produced by a linear solve, with solve diagnostics.

    Optimal weights also record the kernel, the functional, the Gram
    matrix and the embedding they were solved with, so that
    :func:`worst_case_error` can reuse them; the polynomial-type weight
    families leave these None.
    """

    rule: CubatureRule
    residual_norm: Real
    condition: float
    precision: PrecisionConfig
    warning: Optional[str] = None
    kernel: Optional[KernelSpec] = None
    functional: Optional[FunctionalSpec] = None
    gram: Any = None
    embedding: Optional[tuple[Real, ...]] = None

    @property
    def weights(self) -> tuple[Real, ...]:
        return self.rule.weights


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
        return WeightSolution(
            rule, sol.residual_norm, sol.condition, prec, sol.warning, spec, L, G, tuple(z)
        )


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


def _coeff_matrix_rows(points: PointSet, basis_eval, prec: PrecisionConfig):
    """Rows indexed by basis function, columns by point (the transpose of
    the collocation matrix), as the working-precision matrix type."""
    n = len(points)
    A = prec._matrix(n, n)
    for j in range(n):
        for i, x in enumerate(points):
            A[j, i] = basis_eval(j, x)
    return A


def polynomial_weights(
    L: FunctionalSpec,
    points: PointSet,
    degree: int,
    prec: PrecisionConfig = MACHINE,
) -> WeightSolution:
    """Weights of the unique rule exact on all polynomials up to ``degree``.

    Needs exactly C(d + degree, d) points; solves the transposed Vandermonde
    system P^T w = (L[x^alpha])_alpha in the graded monomial order.  A
    singular system means the points are not unisolvent.
    """
    _check_dims(L, points)
    mset = _monomials(points, degree)
    with prec.workprec():
        def entry(j: int, x) -> Real:
            return monomial_eval(prec.to_point(x), mset[j])

        A = _coeff_matrix_rows(points, entry, prec)
        rhs = [moment(L, alpha, prec) for alpha in mset]
        try:
            sol = solve_general(A, rhs, prec)
        except SingularMatrixError as e:
            raise NotUnisolventError(
                f"points are not unisolvent for degree {degree} (singular Vandermonde system)"
            ) from e
        rule = CubatureRule(points, sol.solution)
        return WeightSolution(rule, sol.residual_norm, sol.condition, prec, sol.warning)


def phi_weights(
    L: FunctionalSpec,
    length_scale: float,
    points: PointSet,
    degree: int,
    prec: PrecisionConfig = MACHINE,
) -> WeightSolution:
    """Weights reproducing L on the damped monomials phi_alpha up to ``degree``.

    Same shape of system as :func:`polynomial_weights` but in the basis
    exp(-|x|^2/(2 l^2)) x^alpha with right-hand side L[phi_alpha].  The
    damping factors scale rows and columns by positive numbers, so
    solvability is again exactly unisolvency of the points.
    """
    _check_dims(L, points)
    mset = _monomials(points, degree)
    with prec.workprec():
        def entry(j: int, x) -> Real:
            return phi_basis_eval(length_scale, mset[j], x, prec)

        A = _coeff_matrix_rows(points, entry, prec)
        rhs = [damped_moment(L, length_scale, alpha, prec) for alpha in mset]
        try:
            sol = solve_general(A, rhs, prec)
        except SingularMatrixError as e:
            raise NotUnisolventError(
                f"points are not unisolvent for degree {degree} (singular damped system)"
            ) from e
        rule = CubatureRule(points, sol.solution)
        return WeightSolution(rule, sol.residual_norm, sol.condition, prec, sol.warning)


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
    threshold: Optional[float] = None,
) -> UnisolvencyReport:
    """Classify whether the points determine degree-``degree`` interpolation.

    The default condition threshold is 1 / (100 u) at the working
    precision: past it the Vandermonde solve has fewer than two safe digits
    and downstream weight systems are not trustworthy.
    """
    mset = _monomials(points, degree)
    if threshold is None:
        threshold = 1.0 / (100 * prec.unit_roundoff)
    with prec.workprec():
        def entry(j: int, x) -> Real:
            return monomial_eval(prec.to_point(x), mset[j])

        A = _coeff_matrix_rows(points, entry, prec)
        cond = condition_estimate(A, prec)
    if math.isinf(cond):
        return UnisolvencyReport("not_unisolvent", cond, threshold)
    if cond >= threshold:
        return UnisolvencyReport("ill_conditioned", cond, threshold)
    return UnisolvencyReport("unisolvent", cond, threshold)

"""Dense linear solves at machine or extended precision.

Both lanes run one mpmath code path at the precision's ``bits`` (53 for
machine mode) with 10 guard bits; machine mode rounds the solution and
the residual to float.  A solve factors the matrix once and returns the
solution; the factorization-based condition number, the residual and
the conditioning warning are computed from the stored factor on first
read, so a caller that reads only the solution pays for nothing else.
The condition number takes the inverse from the factor through one
triangular inverse (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, ch. 14): X = L^-1 and A^-1 = X^T X for Cholesky,
U^-1 L^-1 for LU, whose rows are those of A^-1 up to the order of their
entries.
Ill-conditioning is never patched by jitter or regularization here; the
remedy on failure is more precision, and the errors say so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Optional

from mpmath import mp

from .core import MACHINE, PrecisionConfig, Real
from .errors import NumericallyIndefiniteError, SingularMatrixError


@dataclass(frozen=True)
class SolveResult:
    """Solution of one linear system; its diagnostics are computed from the
    stored factor on first read, each at its own fixed precision, so the
    values do not depend on mpmath's global precision at the time of
    reading.

    ``residual_norm`` is the inf-norm of b - A x for the returned
    solution, evaluated with 64 guard bits.  ``condition`` is the inf-norm
    condition number ||A|| ||A^-1|| with the inverse taken from the factor
    through one triangular inverse at the solve's guard bits (the norms
    summed at the working precision).  In machine mode the solution and
    the residual are floats.  ``warning`` is set when the condition
    estimate exceeds the precision policy's threshold; the solve still
    returns.
    """

    solution: tuple[Real, ...]
    precision: PrecisionConfig
    # the working-precision system, the map v -> A^-1 v through the factor,
    # and the rows of A^-1 from it (each up to the order of its entries)
    matrix: Any = field(repr=False, compare=False)
    rhs: Any = field(repr=False, compare=False)
    substitute: Callable = field(repr=False, compare=False)
    inverse: Callable = field(repr=False, compare=False)

    @cached_property
    def condition(self) -> float:
        bits = self.precision.bits
        with mp.workprec(bits + 10):  # the guard bits of the solve
            inv = self.inverse()
        with mp.workprec(bits):
            return float(_inf_norm_mp(self.matrix.tolist()) * _inf_norm_mp(inv))

    @cached_property
    def residual_norm(self) -> Real:
        return _output(_residual_mp(self.matrix, self.solution, self.rhs, self.precision.bits), self.precision)

    @cached_property
    def warning(self) -> Optional[str]:
        return _warning_for(self.condition, self.precision)

    def resolve(self, b) -> "SolveResult":
        """The solve of A x = b for another right-hand side, through the
        stored factor: what a fresh solve of the same matrix returns."""
        with mp.workprec(self.precision.bits):
            bm = _to_mp_vec(b, self.matrix.rows)
        return _result(self.matrix, bm, self.substitute, self.inverse, self.precision)


def auto_precision_bits(length_scale: float, n_points: int) -> int:
    """Mantissa bits needed to solve flat-limit weight systems reliably.

    The Gram spectrum collapses like powers of the inverse length scale, so
    the requirement grows with N log2(l): bits = max(64, 64 + ceil(2 N log2 l)).
    """
    if not length_scale > 0:
        raise ValueError("length_scale must be positive")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    return max(64, 64 + math.ceil(2 * n_points * math.log2(length_scale)))


def _mpf_entry(v) -> mp.mpf:
    # exact rational inputs (Fraction) round once, at the working precision
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / mp.mpf(v.denominator)
    return mp.mpf(v)


def _to_mp_matrix(A) -> mp.matrix:
    if isinstance(A, mp.matrix):
        M = A.copy()
    else:
        if hasattr(A, "tolist"):  # an array-like, such as a numpy array
            A = A.tolist()
        try:
            rows = [list(row) for row in A]
        except TypeError as e:  # a scalar row: a vector, not a matrix
            raise ValueError("matrix must be a sequence of rows") from e
        M = mp.matrix(len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            if len(row) != M.cols:
                raise ValueError("matrix rows must have equal length")
            for j, v in enumerate(row):
                M[i, j] = _mpf_entry(v)
    if M.rows != M.cols:
        raise ValueError(f"matrix must be square, got shape ({M.rows}, {M.cols})")
    if not M.rows:
        raise ValueError("matrix must not be empty")
    for v in M:
        if not mp.isfinite(v):
            raise ValueError("matrix entries must be finite")
    return M


def _to_mp_vec(b, n: int) -> mp.matrix:
    if isinstance(b, mp.matrix):
        v = b.copy()
    else:
        if hasattr(b, "tolist"):  # an array-like: a column array reads as rows, and is rejected
            b = b.tolist()
        try:
            v = mp.matrix([_mpf_entry(c) for c in b])
        except TypeError as e:  # a scalar, or a sequence of sequences
            raise ValueError("right-hand side must be a sequence of numbers") from e
    if v.rows != n or v.cols != 1:
        raise ValueError(f"right-hand side must have length {n}")
    for c in v:
        if not mp.isfinite(c):
            raise ValueError("right-hand side entries must be finite")
    return v


def _inf_norm_mp(rows) -> mp.mpf:
    best = mp.mpf(0)
    for row in rows:
        s = mp.mpf(0)
        for v in row:
            s += abs(v)
        best = max(best, s)
    return best


def _lower_inverse(rows, unit: bool = False) -> list:
    """The inverse X of the lower triangle of ``rows`` (unit diagonal when
    ``unit``) by forward substitution, n^3/6 products; column j of X is
    returned as its entries in rows j..n-1."""
    n = len(rows)
    cols = []
    for j in range(n):
        col = [mp.one if unit else 1 / rows[j][j]]
        for i in range(j + 1, n):
            s = -mp.fdot(rows[i][j:i], col)
            col.append(s if unit else s / rows[i][i])
        cols.append(col)
    return cols


def _triangular_product(upper, lower, symmetric: bool = False) -> list:
    """The rows of Y X for upper triangular Y, given by its rows
    (row i as its entries in columns i..n-1), and lower triangular X,
    given by its columns (column j as its entries in rows j..n-1).  Entry
    (i, j) sums over k >= max(i, j).  With ``symmetric`` (Y = X^T) only
    the upper triangle is formed and mirrored."""
    n = len(lower)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            k = max(i, j)
            out[i][j] = mp.fdot(upper[i][k - i:], lower[j][k - j:])
            if symmetric:
                out[j][i] = out[i][j]
    return out


def _residual_mp(A: mp.matrix, x: mp.matrix, b: mp.matrix, bits: int) -> mp.mpf:
    # 64 guard bits so the reported residual is trustworthy at size u_bits
    with mp.workprec(bits + 64):
        r = mp.mpf(0)
        for i in range(A.rows):
            s = b[i]
            for j in range(A.cols):
                s -= A[i, j] * x[j]
            r = max(r, abs(s))
        return r


def _output(v: mp.mpf, prec: PrecisionConfig) -> Real:
    # machine-lane results are returned as floats
    return v if prec.is_extended else float(v)


def _result(A: mp.matrix, b: mp.matrix, substitute, inverse, prec: PrecisionConfig) -> SolveResult:
    """The solution from one factorization, at the guard bits at which
    ``substitute(v)`` solves A x = v with the factor; the diagnostics
    reuse the factor when read."""
    with mp.workprec(prec.bits + 10):
        x = substitute(b)
    return SolveResult(tuple(_output(v, prec) for v in x), prec, A, b, substitute, inverse)


def _warning_for(cond: float, prec: PrecisionConfig) -> Optional[str]:
    if cond > prec.warn_threshold:
        return (
            f"condition estimate {cond:.3e} exceeds threshold {prec.warn_threshold:.3e} "
            f"at {prec.bits} bits; consider a higher precision"
        )
    return None


def solve_spd(A, b, prec: PrecisionConfig = MACHINE) -> SolveResult:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    A matrix that is not numerically positive definite at the working
    precision raises NumericallyIndefiniteError; the fix is more precision,
    never regularization.
    """
    with mp.workprec(prec.bits):
        Am = _to_mp_matrix(A)
        n = Am.rows
        bm = _to_mp_vec(b, n)
        for i in range(n):
            for j in range(i):
                if Am[i, j] != Am[j, i]:
                    raise ValueError("matrix must be symmetric")
        tol = +mp.eps  # definiteness is judged at the working precision
        with mp.workprec(prec.bits + 10):  # the guard bits of mp.cholesky_solve
            try:
                Lc = mp.cholesky(Am, tol)
            except ValueError as e:
                raise NumericallyIndefiniteError(
                    f"Cholesky failed at {prec.bits} bits ({e}); increase the precision"
                ) from e
        Lt = Lc.T

        def substitute(v):
            # L L^T x = v, in the order of mp.cholesky_solve
            y = v.copy()
            for i in range(n):
                y[i] -= mp.fsum(Lc[i, j] * y[j] for j in range(i))
                y[i] /= Lc[i, i]
            return mp.U_solve(Lt, y)

        def inverse():
            # A^-1 = X^T X with X = L^-1
            X = _lower_inverse(Lc.tolist())
            return _triangular_product(X, X, symmetric=True)

        return _result(Am, bm, substitute, inverse, prec)


def solve_general(A, b, prec: PrecisionConfig = MACHINE) -> SolveResult:
    """Solve A x = b by LU with partial pivoting.

    A matrix singular at the working precision raises SingularMatrixError."""
    with mp.workprec(prec.bits):
        Am = _to_mp_matrix(A)
        n = Am.rows
        bm = _to_mp_vec(b, n)
        with mp.workprec(prec.bits + 10):  # the guard bits of mp.lu_solve and of the inverse
            try:
                LU, p = mp.LU_decomp(Am)
            except ZeroDivisionError as e:
                raise SingularMatrixError(f"matrix is singular at {prec.bits} bits") from e

        def inverse():
            # P A = L U, so A^-1 = U^-1 L^-1 P: P only reorders the
            # columns of U^-1 L^-1, which leaves each row's entries.
            # The rows of U^-1 are the columns of (U^T)^-1.
            rows = LU.tolist()
            return _triangular_product(_lower_inverse(list(zip(*rows))), _lower_inverse(rows, unit=True))

        return _result(Am, bm, lambda v: mp.U_solve(LU, mp.L_solve(LU, v, p)), inverse, prec)


def condition_estimate(A, prec: PrecisionConfig = MACHINE) -> float:
    """Inf-norm condition number of one LU solve at ``prec``: the inverse
    from the factor through one triangular inverse; inf when the matrix
    is singular at the working precision."""
    try:
        return solve_general(A, [0] * len(A), prec).condition
    except SingularMatrixError:
        return math.inf

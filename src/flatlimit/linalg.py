"""Dense linear solves at machine or extended precision.

Machine mode wraps LAPACK (via scipy, imported on the first machine-lane
solve), extended mode wraps mpmath, both behind one interface.  A solve
factors the matrix once and returns the solution; the factorization-based
condition number, the residual and the conditioning warning are computed
from the stored factor on first read, so a caller that reads only the
solution pays for nothing else.  In extended mode the condition number
takes the inverse from the factor through one triangular inverse, as
LAPACK's xPOTRI and xGETRI do (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, ch. 14): X = L^-1 and A^-1 = X^T X for
Cholesky, U^-1 L^-1 for LU, whose rows are those of A^-1 up to the
order of their entries.
Ill-conditioning is never patched by jitter or regularization here; the
remedy on failure is more precision, and the errors say so.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Optional

import numpy as np
from mpmath import mp

from .core import MACHINE, PrecisionConfig, Real
from .errors import NumericallyIndefiniteError, SingularMatrixError


@dataclass(frozen=True)
class SolveResult:
    """Solution of one linear system; its diagnostics are computed from the
    stored factor on first read, each at its own fixed precision, so the
    values do not depend on mpmath's global precision at the time of
    reading.

    ``residual_norm`` is the inf-norm of b - A x, evaluated with 64 guard
    bits in extended mode.  ``condition`` is the inf-norm condition number
    ||A|| ||A^-1|| with the inverse taken from the factor: in extended mode
    through one triangular inverse at the solve's guard bits (the norms
    summed at the working precision), in machine mode by LAPACK
    substitution of the identity.  ``warning`` is set when the condition
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
        A, prec = self.matrix, self.precision
        if prec.is_extended:
            with mp.workprec(prec.bits + 10):  # the guard bits of the solve
                inv = self.inverse()
            with prec.workprec():
                return float(_inf_norm_mp(A.tolist()) * _inf_norm_mp(inv))
        return _inf_norm_np(A) * _inf_norm_np(self.inverse())

    @cached_property
    def residual_norm(self) -> Real:
        A, b, x = self.matrix, self.rhs, self.solution
        if self.precision.is_extended:
            return _residual_mp(A, x, b, self.precision.bits)
        return float(np.max(np.abs(A @ np.array(x) - b)))

    @cached_property
    def warning(self) -> Optional[str]:
        return _warning_for(self.condition, self.precision)

    def resolve(self, b) -> "SolveResult":
        """The solve of A x = b for another right-hand side, through the
        stored factor: what a fresh solve of the same matrix returns."""
        if self.precision.is_extended:
            with self.precision.workprec():
                bm = _to_mp_vec(b, self.matrix.rows)
            return _result_mp(self.matrix, bm, self.substitute, self.inverse, self.precision)
        bn = _to_numpy_vec(b, self.matrix.shape[0])
        return _result_np(self.matrix, bn, self.substitute, self.precision)


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


def _to_numpy_matrix(A) -> np.ndarray:
    if isinstance(A, mp.matrix):
        out = np.array(A.tolist(), dtype=float)
    else:
        out = np.asarray(A, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"matrix must be square, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite")
    return out


def _to_numpy_vec(b, n: int) -> np.ndarray:
    if isinstance(b, mp.matrix):
        out = np.array([float(v) for v in b], dtype=float)
    else:
        out = np.asarray(b, dtype=float).reshape(-1)
    if out.shape != (n,):
        raise ValueError(f"right-hand side must have length {n}")
    if not np.isfinite(out).all():
        raise ValueError("right-hand side entries must be finite")
    return out


def _mpf_entry(v) -> mp.mpf:
    # exact rational inputs (Fraction) round once, at the working precision
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / mp.mpf(v.denominator)
    return mp.mpf(v)


def _to_mp_matrix(A) -> mp.matrix:
    if isinstance(A, mp.matrix):
        M = A.copy()
    else:
        if isinstance(A, np.ndarray):
            A = A.tolist()
        rows = list(A)
        n = len(rows)
        M = mp.matrix(n, len(rows[0]) if n else 0)
        for i, row in enumerate(rows):
            if len(row) != M.cols:
                raise ValueError("matrix rows must have equal length")
            for j, v in enumerate(row):
                M[i, j] = _mpf_entry(v)
    if M.rows != M.cols:
        raise ValueError(f"matrix must be square, got shape ({M.rows}, {M.cols})")
    for v in M:
        if not mp.isfinite(v):
            raise ValueError("matrix entries must be finite")
    return M


def _to_mp_vec(b, n: int) -> mp.matrix:
    if isinstance(b, mp.matrix):
        v = b.copy()
    elif isinstance(b, np.ndarray):
        v = mp.matrix(b.reshape(-1).tolist())
    else:
        entries = [_mpf_entry(c) for c in b]
        v = mp.matrix(entries)
    if v.rows != n or v.cols != 1:
        raise ValueError(f"right-hand side must have length {n}")
    for c in v:
        if not mp.isfinite(c):
            raise ValueError("right-hand side entries must be finite")
    return v


def _inf_norm_np(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=1).max())


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


def _result_mp(A: mp.matrix, b: mp.matrix, substitute, inverse, prec: PrecisionConfig) -> SolveResult:
    """The solution from one factorization, at the guard bits at which
    ``substitute(v)`` solves A x = v with the factor; the diagnostics
    reuse the factor when read."""
    with mp.workprec(prec.bits + 10):
        x = substitute(b)
    return SolveResult(tuple(x), prec, A, b, substitute, inverse)


def _result_np(A: np.ndarray, b: np.ndarray, substitute, prec: PrecisionConfig) -> SolveResult:
    """The solution from one LAPACK factorization; the condition number
    substitutes the identity through the same factor."""
    inverse = lambda: substitute(np.eye(A.shape[0]))
    return SolveResult(tuple(float(v) for v in substitute(b)), prec, A, b, substitute, inverse)


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
    if prec.is_extended:
        with prec.workprec():
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

            return _result_mp(Am, bm, substitute, inverse, prec)
    import scipy.linalg  # deferred: slow to import, and only the machine lane needs LAPACK

    An = _to_numpy_matrix(A)
    n = An.shape[0]
    bn = _to_numpy_vec(b, n)
    if not np.array_equal(An, An.T):
        raise ValueError("matrix must be symmetric")
    try:
        factor = scipy.linalg.cho_factor(An)
    except scipy.linalg.LinAlgError as e:
        raise NumericallyIndefiniteError(
            f"Cholesky failed at machine precision ({e}); increase the precision"
        ) from e
    return _result_np(An, bn, lambda v: scipy.linalg.cho_solve(factor, v), prec)


def solve_general(A, b, prec: PrecisionConfig = MACHINE) -> SolveResult:
    """Solve A x = b by LU with partial pivoting.

    An exactly singular matrix raises SingularMatrixError."""
    if prec.is_extended:
        with prec.workprec():
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

            return _result_mp(Am, bm, lambda v: mp.U_solve(LU, mp.L_solve(LU, v, p)), inverse, prec)
    import scipy.linalg  # deferred, as in solve_spd

    An = _to_numpy_matrix(A)
    n = An.shape[0]
    bn = _to_numpy_vec(b, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(An)
    if np.any(np.diag(lu) == 0.0):
        raise SingularMatrixError("matrix has an exactly zero pivot")
    return _result_np(An, bn, lambda v: scipy.linalg.lu_solve((lu, piv), v), prec)


def condition_estimate(A, prec: PrecisionConfig = MACHINE) -> float:
    """Inf-norm condition number of one LU solve at ``prec``: the inverse
    from the factor (U^-1 L^-1 through one triangular inverse in extended
    mode, LAPACK substitution in machine mode); inf when the matrix is
    singular at the working precision."""
    try:
        return solve_general(A, [0] * len(A), prec).condition
    except SingularMatrixError:
        return math.inf

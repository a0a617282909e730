"""Dense linear solves at machine or extended precision.

Machine mode wraps LAPACK (via scipy, imported on the first machine-lane
solve), extended mode wraps mpmath, both behind one interface.  A solve
factors the matrix once and returns the solution; the factorization-based
condition number, the residual and the conditioning warning are computed
from the stored factor on first read, so a caller that reads only the
solution pays for nothing else.
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
    computed from the factorized inverse.  ``warning`` is set when the
    condition estimate exceeds the precision policy's threshold; the solve
    still returns.
    """

    solution: tuple[Real, ...]
    precision: PrecisionConfig
    # the working-precision system and the map v -> A^-1 v through the factor
    matrix: Any = field(repr=False, compare=False)
    rhs: Any = field(repr=False, compare=False)
    substitute: Callable = field(repr=False, compare=False)

    @cached_property
    def condition(self) -> float:
        A, prec = self.matrix, self.precision
        if prec.is_extended:
            n = A.rows
            inv = mp.matrix(n, n)
            with mp.workprec(prec.bits + 10):  # the guard bits of the solve
                for k in range(n):
                    col = self.substitute(mp.unitvector(n, k + 1))
                    for i in range(n):
                        inv[i, k] = col[i]
            with prec.workprec():
                return float(_inf_norm_mp(A) * _inf_norm_mp(inv))
        return _inf_norm_np(A) * _inf_norm_np(self.substitute(np.eye(A.shape[0])))

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
            return _result_mp(self.matrix, bm, self.substitute, self.precision)
        bn = _to_numpy_vec(b, self.matrix.shape[0])
        return SolveResult(tuple(float(v) for v in self.substitute(bn)), self.precision, self.matrix, bn, self.substitute)


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


def _inf_norm_mp(A: mp.matrix) -> mp.mpf:
    best = mp.mpf(0)
    for i in range(A.rows):
        s = mp.mpf(0)
        for j in range(A.cols):
            s += abs(A[i, j])
        best = max(best, s)
    return best


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


def _result_mp(A: mp.matrix, b: mp.matrix, substitute, prec: PrecisionConfig) -> SolveResult:
    """The solution from one factorization, at the guard bits at which
    ``substitute(v)`` solves A x = v with the factor; the diagnostics
    reuse the factor when read."""
    with mp.workprec(prec.bits + 10):
        x = substitute(b)
    return SolveResult(tuple(x), prec, A, b, substitute)


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

            return _result_mp(Am, bm, substitute, prec)
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
    substitute = lambda v: scipy.linalg.cho_solve(factor, v)
    return SolveResult(tuple(float(v) for v in substitute(bn)), prec, An, bn, substitute)


def solve_general(A, b, prec: PrecisionConfig = MACHINE) -> SolveResult:
    """Solve A x = b by LU with partial pivoting.

    An exactly singular matrix raises SingularMatrixError."""
    if prec.is_extended:
        with prec.workprec():
            Am = _to_mp_matrix(A)
            n = Am.rows
            bm = _to_mp_vec(b, n)
            with mp.workprec(prec.bits + 10):  # the guard bits of mp.lu_solve and mp.inverse
                try:
                    LU, p = mp.LU_decomp(Am)
                except ZeroDivisionError as e:
                    raise SingularMatrixError(f"matrix is singular at {prec.bits} bits") from e
            return _result_mp(Am, bm, lambda v: mp.U_solve(LU, mp.L_solve(LU, v, p)), prec)
    import scipy.linalg  # deferred, as in solve_spd

    An = _to_numpy_matrix(A)
    n = An.shape[0]
    bn = _to_numpy_vec(b, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(An)
    if np.any(np.diag(lu) == 0.0):
        raise SingularMatrixError("matrix has an exactly zero pivot")
    substitute = lambda v: scipy.linalg.lu_solve((lu, piv), v)
    return SolveResult(tuple(float(v) for v in substitute(bn)), prec, An, bn, substitute)


def condition_estimate(A, prec: PrecisionConfig = MACHINE) -> float:
    """Inf-norm condition number from the factorized inverse of one LU
    solve; inf when the matrix is singular at the working precision."""
    try:
        return solve_general(A, [0] * len(A), prec).condition
    except SingularMatrixError:
        return math.inf

"""Dense linear solves at machine or extended precision.

Both lanes run one code path at the precision's ``bits`` (53 for machine
mode) with 10 guard bits, taking and returning ``mpf`` (floats in machine
mode); inside, it runs on raw ``_mpf_`` tuples through the ``mpmath.libmp``
calls that the ``mpf`` operators make, from input rounded as ``mp.mpf``
rounds it; an exact dot product sums in one integer and rounds once (Brent
and Zimmermann, *Modern Computer Arithmetic*, 2010, sec. 3.1).  The
Cholesky and LU factors and substitutions are mpmath's, operation for
operation (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
ch. 9 and 10), so the bits are those of ``cholesky_solve`` and
``lu_solve``.  A solve factors the matrix once and returns the solution;
the condition number, the residual and the conditioning warning are
computed from the stored factor on first read, so a caller that reads only
the solution pays for nothing else.  The condition number takes the inverse
from the factor through one triangular inverse (Higham, ch. 14): X = L^-1
and A^-1 = X^T X for Cholesky, U^-1 L^-1 for LU, whose rows are those of
A^-1 up to the order of their entries.  Where the inverse is known to be
checkerboard, as for the Gram matrix of a totally positive kernel, one
substitution gives its norm instead (:func:`checkerboard_condition`).
An inf-norm sums at the working precision only the rows whose float sums
leave them able to hold the maximum (:func:`_inf_norm`), which gives the
bits of the sum over all rows.  A solve enters its working precision once
for the input and once for the guard bits, in which it factors and
substitutes.  The Cholesky diagonal is s / sqrt(s), the value mpmath
keeps, from the one s = a_jj - sum_k l_jk^2.  Ill-conditioning is never
patched by jitter or regularization here; the remedy on failure is more
precision, and the errors say so.
"""
from __future__ import annotations

import math
from functools import cached_property, cmp_to_key
from numbers import Rational
from typing import Any, Callable, Optional

from mpmath import mp
from mpmath.libmp import (
    fnone, fone, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_neg, mpf_rdiv_int,
    mpf_sqrt, mpf_sub, mpf_sum, normalize, to_float,
)

from .core import MACHINE, PrecisionConfig, Real, _Frozen, _length_scale, _set
from .errors import NumericallyIndefiniteError, SingularMatrixError

_BY_VALUE = cmp_to_key(mpf_cmp)  # max(raw mpf values, key=_BY_VALUE) keeps the first largest, as max() of mpf


class SolveResult(_Frozen):
    """Solution of one linear system; its diagnostics are computed from the
    stored factor on first read, each at its own fixed precision, so the
    values do not depend on mpmath's global precision at the time of
    reading.

    ``residual_norm`` is the inf-norm of b - A x for the returned
    solution, evaluated with 64 guard bits.  ``condition`` is the inf-norm
    condition number ||A|| ||A^-1|| with the inverse taken from the factor
    through one triangular inverse at the solve's guard bits (the norms
    summed at the working precision); :func:`checkerboard_condition` gives
    the same number from one ``substitute`` when A^-1 is checkerboard.
    The solution and the residual are mpf, floats in machine mode;
    ``matrix`` and ``rhs``, the system at the working precision, and
    ``substitute`` and ``inverse`` are on raw ``_mpf_`` tuples.  ``warning`` is set when the condition estimate
    exceeds the precision policy's threshold; the solve still returns.
    Equality, hashing and the repr see the solution and the precision.
    """

    _fields = ("solution", "precision")

    def __init__(self, solution: tuple[Real, ...], precision: PrecisionConfig, matrix: Any, rhs: Any,
                 substitute: Callable, inverse: Callable) -> None:
        _set(self, "solution", solution)
        _set(self, "precision", precision)
        # the working-precision system, the map v -> A^-1 v through the factor, and the rows
        # of A^-1 from it (each up to the order of its entries), on raw mpf
        _set(self, "matrix", matrix)
        _set(self, "rhs", rhs)
        _set(self, "substitute", substitute)
        _set(self, "inverse", inverse)

    @cached_property
    def condition(self) -> float:
        bits = self.precision.bits
        with mp.workprec(bits + 10):  # the guard bits of the solve
            inv = self.inverse()
        with mp.workprec(bits):
            prec, rnd = mp._prec_rounding
            return to_float(mpf_mul(_inf_norm(self.matrix), _inf_norm(inv), prec, rnd), rnd=rnd)

    @cached_property
    def residual_norm(self) -> Real:
        return _output(_residual_mp(self.matrix, self.solution, self.rhs, self.precision.bits)._mpf_, self.precision)

    @cached_property
    def warning(self) -> Optional[str]:
        return _warning_for(self.condition, self.precision)

    def resolve(self, b) -> "SolveResult":
        """The solve of A x = b for another right-hand side, through the
        stored factor: what a fresh solve of the same matrix returns."""
        with mp.workprec(self.precision.bits):
            bm = _to_vec(b, len(self.matrix))
        with mp.workprec(self.precision.bits + 10):
            return _result(self.matrix, bm, self.substitute, self.inverse, self.precision)


def auto_precision_bits(length_scale: float, n_points: int) -> int:
    """Mantissa bits needed to solve flat-limit weight systems reliably.

    The Gram spectrum collapses like powers of the inverse length scale, so
    the requirement grows with N log2(l): bits = max(64, 64 + ceil(2 N log2 l)).
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    return max(64, 64 + math.ceil(2 * n_points * math.log2(_length_scale(length_scale))))


def _raw_entry(v, prec: int, rnd: str) -> tuple:
    """The raw mpf of ``mp.mpf(v)`` at the working precision ``prec``; an mpf is
    rounded there directly, and an exact rational that is not an int (a Fraction) rounds once."""
    if type(v) is mp.mpf:
        sign, man, exp, bc = v._mpf_
        return normalize(sign, man, exp, bc, prec, rnd) if man else v._mpf_
    if isinstance(v, Rational) and not isinstance(v, int):
        return (mp.mpf(v.numerator) / mp.mpf(v.denominator))._mpf_
    return mp.mpf(v)._mpf_


def _to_rows(A) -> list:
    """The raw mpf rows of a square matrix of finite entries rounded to the
    working precision; an array-like (a numpy array or an mpmath matrix) is
    read through ``tolist()``."""
    if hasattr(A, "tolist"):
        A = A.tolist()
    prec, rnd = mp._prec_rounding
    try:
        rows = [[_raw_entry(v, prec, rnd) for v in row] for row in A]
    except TypeError as e:  # a scalar row: a vector, not a matrix
        raise ValueError("matrix must be a sequence of rows of numbers") from e
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"matrix must be square and not empty, got row lengths {[len(row) for row in rows]}")
    if not all(v[1] or not v[2] for row in rows for v in row):  # inf and nan: no mantissa, an exponent
        raise ValueError("matrix entries must be finite")
    return rows


def _to_vec(b, n: int) -> list:
    if getattr(b, "cols", None) == 1:  # an mpmath vector: an n x 1 matrix
        b = list(b)
    elif hasattr(b, "tolist"):  # an array-like: a column array reads as rows, and is rejected
        b = b.tolist()
    prec, rnd = mp._prec_rounding
    try:
        v = [_raw_entry(c, prec, rnd) for c in b]
    except TypeError as e:  # a scalar, or a sequence of sequences
        raise ValueError("right-hand side must be a sequence of numbers") from e
    if len(v) != n or not all(c[1] or not c[2] for c in v):
        raise ValueError(f"right-hand side must be {n} finite numbers")
    return v


def _fdot(a, b, prec: int, rnd: str) -> tuple:
    """mp.fdot on finite raw mpf: ``mpf_sum`` of the exact ``mpf_mul(x, y)``
    bit for bit, in one integer; as there, a product 2 prec bits below the
    sum so far is dropped, and one that far above it replaces the sum."""
    man, exp, gap = 0, 0, 2 * prec
    for (xs, xm, xe, _), (ys, ym, ye, _) in zip(a, b):
        m, e = (-xm * ym if xs != ys else xm * ym), xe + ye
        if not m:
            continue
        delta = e - exp
        if delta >= 0:
            if delta > gap and (not man or delta - man.bit_length() > gap):
                man, exp = m, e
            else:
                man += m << delta
        elif -delta - m.bit_length() <= gap:
            man, exp = (man << -delta) + m, e
        elif not man:
            man, exp = m, e
    return normalize(int(man < 0), abs(man), exp, man.bit_length(), prec, rnd) if man else fzero


def _cholesky(A: list, tol: tuple) -> list:
    """The rows of the lower triangular L with A = L L^T, as mpmath's
    ``cholesky(A, tol)`` forms them, on raw mpf rows: a pivot below
    ``tol`` raises :class:`NumericallyIndefiniteError`."""
    prec, rnd = mp._prec_rounding
    n = len(A)
    L = [[fzero] * n for _ in range(n)]
    for j in range(n):
        Lj = L[j]
        s = mpf_sub(A[j][j], _fdot(Lj[:j], Lj[:j], prec, rnd), prec, rnd)
        if mpf_lt(s, tol):
            raise NumericallyIndefiniteError("matrix is not positive-definite")
        # mpmath divides the diagonal too: L_jj = s / sqrt(s), by which the rows below divide
        Lj[j] = mpf_div(s, mpf_sqrt(s, prec, rnd), prec, rnd)
        for i in range(j + 1, n):
            L[i][j] = mpf_div(mpf_sub(A[i][j], _fdot(L[i][:j], Lj[:j], prec, rnd), prec, rnd), Lj[j], prec, rnd)
    return L


def _lu(A: list) -> tuple[list, list]:
    """P A = L U of raw mpf rows as mpmath's ``LU_decomp`` forms it, with its pivot rule (the
    largest |a_kj| over the row sum of |a_kl|, l >= j) and tolerance ||A||_1 eps: the rows of
    L below the unit diagonal and of U in one matrix, and the row swapped with row j at step
    j.  A pivot or a row sum within the tolerance raises SingularMatrixError."""
    prec, rnd = mp._prec_rounding
    n = len(A)
    A = [row[:] for row in A]
    colsum = max((mpf_sum([row[j] for row in A], prec, rnd, absolute=True) for j in range(n)), key=_BY_VALUE)
    tol = mpf_abs(mpf_mul(colsum, mp.eps._mpf_, prec, rnd), prec, rnd)
    p = []
    for j in range(n):  # the last step only checks the last pivot
        biggest, pivot = fzero, j  # a zero column keeps row j, whose zero pivot raises below
        for k in range(j, n):
            s = mpf_sum([mpf_abs(v, prec, rnd) for v in A[k][j:]], prec, rnd)
            if mpf_le(s, tol):
                raise SingularMatrixError("matrix is numerically singular")
            current = mpf_mul(mpf_rdiv_int(1, s, prec, rnd), mpf_abs(A[k][j], prec, rnd), prec, rnd)
            if mpf_gt(current, biggest):
                biggest, pivot = current, k
        p.append(pivot)
        A[j], A[pivot] = A[pivot], A[j]
        top = A[j]
        if mpf_le(mpf_abs(top[j], prec, rnd), tol):
            raise SingularMatrixError("matrix is numerically singular")
        for row in A[j + 1:]:
            f = row[j] = mpf_div(row[j], top[j], prec, rnd)
            for k in range(j + 1, n):
                row[k] = mpf_sub(row[k], mpf_mul(f, top[k], prec, rnd), prec, rnd)
    return A, p[:-1]


def _l_solve(LU: list, b: list, p: list) -> list:
    """y with L y = P b for the unit lower triangle of ``LU`` and swaps ``p``, as mpmath's ``L_solve``."""
    prec, rnd = mp._prec_rounding
    y = list(b)
    for k, pk in enumerate(p):
        y[k], y[pk] = y[pk], y[k]
    for i in range(1, len(y)):
        for j in range(i):
            y[i] = mpf_sub(y[i], mpf_mul(LU[i][j], y[j], prec, rnd), prec, rnd)
    return y


def _cholesky_substitute(L: list, v: list) -> list:
    """x with L L^T x = v for the Cholesky factor ``L``, in the order of mpmath's ``cholesky_solve``."""
    prec, rnd = mp._prec_rounding
    y = list(v)
    for i, row in enumerate(L):
        s = mpf_sum([mpf_mul(row[j], y[j], prec, rnd) for j in range(i)], prec, rnd)
        y[i] = mpf_div(mpf_sub(y[i], s, prec, rnd), row[i], prec, rnd)
    return _u_solve(list(zip(*L)), y)


def _u_solve(U: list, y: list) -> list:
    """x with U x = y for the upper triangle of ``U``, as mpmath's ``U_solve``."""
    prec, rnd = mp._prec_rounding
    x = list(y)
    for i in range(len(x) - 1, -1, -1):
        for j in range(i + 1, len(x)):
            x[i] = mpf_sub(x[i], mpf_mul(U[i][j], x[j], prec, rnd), prec, rnd)
        x[i] = mpf_div(x[i], U[i][i], prec, rnd)
    return x


def _inf_norm_mp(rows) -> tuple:
    """max_i sum_j |a_ij| of raw mpf rows, each row summed left to right, as sum() of mpf."""
    prec, rnd = mp._prec_rounding
    norms = [fzero] * len(rows)
    for i, row in enumerate(rows):
        for v in row:
            norms[i] = mpf_add(norms[i], mpf_abs(v, prec, rnd), prec, rnd)
    return max(norms, key=_BY_VALUE)


def _inf_norm(rows) -> tuple:
    """``_inf_norm_mp(rows)``, summing only the rows that can hold the maximum.  The
    float row sums of |a_ij| (each entry's mantissa cut to 53 bits) and the sums that
    ``_inf_norm_mp`` rounds at the working precision prec lie within a relative
    (n + 2) 2^(2 - min(prec, 53)) of each other, up to 2n 2^-1074 of underflow in the
    floats, so a row whose float sum lies further below the largest cannot reach the
    maximum and is left out.  The other rows, exact ties included, are summed as
    ``_inf_norm_mp`` sums them, in row order, so the value and the first largest are
    its own.  An entry past the float range leaves every row in."""
    n = len(rows[0])
    try:
        sums = [sum([math.ldexp(m >> (bc - 53), e + bc - 53) if bc > 53 else math.ldexp(m, e) for _, m, e, bc in row])
                for row in rows]
    except OverflowError:
        return _inf_norm_mp(rows)
    top, tol, tiny = max(sums), (n + 2) * 2.0 ** (2 - min(mp.prec, 53)), 2 * n * 2.0 ** -1074
    cut = (top - tiny) * (1 - tol) / (1 + tol) - tiny if top < math.inf else -math.inf  # rows below it are out
    return _inf_norm_mp([row for row, total in zip(rows, sums) if not total < cut])


def _lower_inverse(rows, unit: bool = False) -> list:
    """The inverse X of the lower triangle of ``rows`` (unit diagonal when
    ``unit``) by forward substitution, n^3/6 products; column j of X is
    returned as its entries in rows j..n-1."""
    prec, rnd = mp._prec_rounding
    n = len(rows)
    cols = []
    for j in range(n):
        col = [fone if unit else mpf_rdiv_int(1, rows[j][j], prec, rnd)]
        for i in range(j + 1, n):
            s = mpf_neg(_fdot(rows[i][j:i], col, prec, rnd), prec, rnd)
            col.append(s if unit else mpf_div(s, rows[i][i], prec, rnd))
        cols.append(col)
    return cols


def _triangular_product(upper, lower, symmetric: bool = False) -> list:
    """The rows of Y X for upper triangular Y, given by its rows
    (row i as its entries in columns i..n-1), and lower triangular X,
    given by its columns (column j as its entries in rows j..n-1).  Entry
    (i, j) sums over k >= max(i, j).  With ``symmetric`` (Y = X^T) only
    the upper triangle is formed and mirrored."""
    prec, rnd = mp._prec_rounding
    n = len(lower)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            k = max(i, j)
            out[i][j] = _fdot(upper[i][k - i:], lower[j][k - j:], prec, rnd)
            if symmetric:
                out[j][i] = out[i][j]
    return out


def _residual_mp(A: list, x, b: list, bits: int) -> mp.mpf:
    # 64 guard bits so the reported residual is trustworthy at size u_bits
    with mp.workprec(bits + 64):
        r = mp.mpf(0)
        for row, s in zip(A, map(mp.make_mpf, b)):
            for a, xj in zip(row, x):
                s -= mp.make_mpf(a) * xj
            r = max(r, abs(s))
        return r


def _output(v: tuple, prec: PrecisionConfig) -> Real:
    # a raw mpf at the API: an mpf, or in the machine lane a float rounded as float(mpf) rounds
    return mp.make_mpf(v) if prec.is_extended else to_float(v, rnd=mp._prec_rounding[1])


def _result(A: list, b: list, substitute, inverse, prec: PrecisionConfig) -> SolveResult:
    """The solution from one factorization, where ``substitute(v)`` solves
    A x = v with the factor on raw mpf values inside the guard bits
    ``prec.bits + 10``, which the caller has entered; the diagnostics reuse
    the factor when read."""
    return SolveResult(tuple(_output(v, prec) for v in substitute(b)), prec, A, b, substitute, inverse)


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
        Am = _to_rows(A)
        n = len(Am)
        bm = _to_vec(b, n)
        if any(Am[i][j] != Am[j][i] for i in range(n) for j in range(i)):  # finite raw mpf are normalized
            raise ValueError("matrix must be symmetric")
        tol = mp.eps._mpf_  # definiteness is judged at the working precision
        with mp.workprec(prec.bits + 10):  # the guard bits of mpmath's cholesky_solve
            try:
                Lc = _cholesky(Am, tol)
            except NumericallyIndefiniteError as e:
                raise NumericallyIndefiniteError(
                    f"Cholesky failed at {prec.bits} bits ({e}); increase the precision"
                ) from e

            def inverse():
                # A^-1 = X^T X with X = L^-1
                X = _lower_inverse(Lc)
                return _triangular_product(X, X, symmetric=True)

            return _result(Am, bm, lambda v: _cholesky_substitute(Lc, v), inverse, prec)


def solve_general(A, b, prec: PrecisionConfig = MACHINE) -> SolveResult:
    """Solve A x = b by LU with partial pivoting.

    A matrix singular at the working precision raises SingularMatrixError."""
    with mp.workprec(prec.bits):
        Am = _to_rows(A)
        bm = _to_vec(b, len(Am))
        with mp.workprec(prec.bits + 10):  # the guard bits of mpmath's lu_solve and of the inverse
            try:
                LU, p = _lu(Am)
            except SingularMatrixError as e:
                raise SingularMatrixError(f"matrix is singular at {prec.bits} bits") from e

            def inverse():
                # P A = L U, so A^-1 = U^-1 L^-1 P: P only reorders the
                # columns of U^-1 L^-1, which leaves each row's entries.
                # The rows of U^-1 are the columns of (U^T)^-1.
                return _triangular_product(_lower_inverse(list(zip(*LU))), _lower_inverse(LU, unit=True))

            return _result(Am, bm, lambda v: _u_solve(LU, _l_solve(LU, v, p)), inverse, prec)


def condition_estimate(A, prec: PrecisionConfig = MACHINE) -> float:
    """Inf-norm condition number of one LU solve at ``prec``: the inverse
    from the factor through one triangular inverse; inf when the matrix
    is singular at the working precision."""
    try:
        return solve_general(A, [0] * len(A), prec).condition
    except SingularMatrixError:
        return math.inf


def checkerboard_condition(sol: SolveResult, signs) -> float:
    """``sol.condition`` of an SPD solve whose inverse has the sign pattern
    s_i s_j (A^-1)_ij > 0 for ``signs`` (each +1 or -1), as a strictly
    totally positive matrix has with alternating signs (Karlin, *Total
    Positivity*, 1968): row i of |A^-1| sums to s_i (A^-1 s)_i, so
    ||A^-1|| = ||A^-1 s||, one substitution through the stored factor at
    the solve's guard bits, rounded to its ``bits``; ||A|| sums only the
    candidate rows of :func:`_inf_norm`, to the bits of every row's sum.  A
    reading above the solve's warning threshold u^(-1/2) gives way to
    ``sol.condition``: near 1/u the factor of A rounded to u need no longer
    keep the sign pattern, and ||A^-1 s|| reads low."""
    bits = sol.precision.bits
    with mp.workprec(bits + 10):
        y = sol.substitute([fone if s > 0 else fnone for s in signs])
    with mp.workprec(bits):
        prec, rnd = mp._prec_rounding
        inv_norm = max((mpf_abs(v, prec, rnd) for v in y), key=_BY_VALUE)
        cond = to_float(mpf_mul(_inf_norm(sol.matrix), inv_norm, prec, rnd), rnd=rnd)
    return cond if cond <= sol.precision.warn_threshold else sol.condition

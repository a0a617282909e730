import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp
from numpy.testing import assert_allclose

from flatlimit import (
    NumericallyIndefiniteError,
    PrecisionConfig,
    SingularMatrixError,
    auto_precision_bits,
    condition_estimate,
    solve_general,
    solve_spd,
)


def hilbert(n):
    return [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]


def hilbert_solution_exact(n):
    """Solve H x = 1 over the rationals by Gaussian elimination."""
    A = [row[:] + [Fraction(1)] for row in hilbert(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                fac = A[r][col] / A[col][col]
                A[r] = [a - fac * b for a, b in zip(A[r], A[col])]
    return [A[i][n] / A[i][i] for i in range(n)]


def test_solve_spd_identity():
    res = solve_spd([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert_allclose(res.solution, [1.0, 2.0])
    assert res.residual_norm <= 1e-15
    assert res.warning is None


def test_solve_spd_known_system():
    A = [[4.0, 2.0], [2.0, 3.0]]
    b = [10.0, 8.0]
    res = solve_spd(A, b)
    # exact solution (7/4, 3/2)
    assert_allclose(res.solution, [1.75, 1.5], rtol=1e-14)


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NumericallyIndefiniteError):
        solve_spd([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0])
    with pytest.raises(NumericallyIndefiniteError):
        solve_spd([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0], PrecisionConfig.extended(128))


def test_solve_general_singular():
    with pytest.raises(SingularMatrixError):
        solve_general([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(SingularMatrixError):
        solve_general([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], PrecisionConfig.extended(128))


def test_solve_general_known_system():
    A = [[0.0, 1.0], [1.0, 0.0]]
    res = solve_general(A, [3.0, 7.0])
    assert_allclose(res.solution, [7.0, 3.0])


def test_residual_certifies_solution():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 5))
    A = A @ A.T + 5.0 * np.eye(5)
    b = rng.normal(size=5)
    res = solve_spd(A, b)
    direct = np.max(np.abs(A @ np.array(res.solution) - b))
    assert res.residual_norm <= 1e-12
    assert direct <= 10 * max(res.residual_norm, 1e-16)


def test_condition_reported_and_warning_triggered():
    eps = 1e-9
    A = [[1.0, 1.0 - eps], [1.0 - eps, 1.0]]
    res = solve_spd(A, [1.0, 1.0])
    assert res.condition > 1e8
    assert res.warning is not None
    # tightening the threshold by hand keeps the warning off for benign systems
    benign = solve_spd([[2.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    assert benign.condition < 5.0
    assert benign.warning is None


def test_condition_estimate_singular_is_inf():
    assert condition_estimate([[1.0, 1.0], [1.0, 1.0]]) == math.inf


def test_hilbert8_forward_error_against_exact_solution():
    """H_8 has condition ~1.5e10: at machine precision roughly 6 digits
    survive, while 256 bits recover the solution essentially exactly."""
    n = 8
    H = hilbert(n)
    b = [Fraction(1)] * n
    exact = [float(x) for x in hilbert_solution_exact(n)]

    res53 = solve_spd([[float(v) for v in row] for row in H], [1.0] * n)
    err53 = max(abs(a - e) / max(1.0, abs(e)) for a, e in zip(res53.solution, exact))
    assert err53 < 1e-4
    assert res53.warning is not None

    res256 = solve_spd(H, b, PrecisionConfig.extended(256))
    err256 = max(abs(float(a) - e) / max(1.0, abs(e)) for a, e in zip(res256.solution, exact))
    assert err256 < 1e-15
    assert res256.residual_norm < mp.mpf(10) ** -60


def test_hilbert_forward_error_decreases_with_precision():
    n = 8
    H = hilbert(n)
    b = [Fraction(1)] * n
    exact = hilbert_solution_exact(n)

    errs = []
    for bits in (128, 256, 512):
        res = solve_spd(H, b, PrecisionConfig.extended(bits))
        with mp.workprec(bits + 64):
            err = max(abs(a - mp.mpf(e.numerator) / e.denominator) for a, e in zip(res.solution, exact))
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_fraction_entries_are_converted_exactly():
    res = solve_general(
        [[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1)]],
        [Fraction(1), Fraction(2)],
        PrecisionConfig.extended(128),
    )
    with mp.workprec(128):
        assert abs(res.solution[0] - 3) < mp.mpf(2) ** -120


def test_auto_precision_bits_scales_with_flatness():
    assert auto_precision_bits(1.0, 3) == 64
    b100 = auto_precision_bits(100.0, 3)
    b10000 = auto_precision_bits(10000.0, 3)
    assert b100 > 64
    assert b10000 > b100
    # doubling log10(ell) doubles the extra digits needed
    assert b10000 - 64 == pytest.approx(2 * (b100 - 64), abs=2)


def count_mp_calls(monkeypatch, *names):
    """Count calls of mpmath context methods, including nested ones."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(type(mp), name)

        def counted(ctx, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(ctx, *args, **kwargs)

        monkeypatch.setattr(type(mp), name, counted)
    return counts


def inf_norm(A):
    return max(sum(abs(A[i, j]) for j in range(A.cols)) for i in range(A.rows))


def test_extended_solve_spd_factors_once_and_matches_cholesky_solve(monkeypatch):
    bits = 128
    prec = PrecisionConfig.extended(bits)
    with mp.workprec(bits):
        xs = [mp.mpf(k) / 4 for k in range(-3, 4)]
        A = mp.matrix([[mp.exp(-(x - y) ** 2 / 8) for y in xs] for x in xs])  # Gaussian Gram, l = 2
        b = mp.matrix([mp.mpf(k + 1) / 3 for k in range(len(xs))])
        x_ref = mp.cholesky_solve(A, b)
        cond_ref = inf_norm(A) * inf_norm(mp.inverse(A))
    counts = count_mp_calls(monkeypatch, "cholesky", "cholesky_solve", "inverse", "LU_decomp")
    res = solve_spd(A, b, prec)
    assert counts == {"cholesky": 1, "cholesky_solve": 0, "inverse": 0, "LU_decomp": 0}
    assert list(res.solution) == list(x_ref)
    assert cond_ref > 1e6
    assert abs(res.condition - float(cond_ref)) <= 1e-10 * float(cond_ref)


def test_extended_solve_general_factors_once_and_matches_lu_solve(monkeypatch):
    bits = 128
    prec = PrecisionConfig.extended(bits)
    with mp.workprec(bits):
        xs = [mp.mpf(k) / 3 for k in (-3, -1, 0, 2, 3)]
        A = mp.matrix([[x ** j for x in xs] for j in range(len(xs))])  # transposed Vandermonde
        b = mp.matrix([mp.mpf(2) / (j + 1) if j % 2 == 0 else 0 for j in range(len(xs))])
        x_ref = mp.lu_solve(A, b)
        cond_ref = float(inf_norm(A) * inf_norm(mp.inverse(A)))
    counts = count_mp_calls(monkeypatch, "LU_decomp", "lu_solve", "inverse")
    res = solve_general(A, b, prec)
    assert counts == {"LU_decomp": 1, "lu_solve": 0, "inverse": 0}
    assert list(res.solution) == list(x_ref)
    assert res.condition == cond_ref

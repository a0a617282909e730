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
    linalg,
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
    # a benign system stays below the threshold u^(-1/2)
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


@pytest.mark.parametrize("ell", [math.inf, math.nan, 0.0, -1.0])
def test_auto_precision_bits_rejects_a_length_scale_that_is_not_positive_and_finite(ell):
    with pytest.raises(ValueError, match="positive and finite"):
        auto_precision_bits(ell, 3)


def count_calls(monkeypatch, owner, *names):
    """Count calls of the functions ``names`` of ``owner`` (a module, or
    mpmath's context class), including nested ones."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


# mpmath's solvers, none of which a solve calls
MPMATH_SOLVERS = ("cholesky", "LU_decomp", "L_solve", "U_solve", "inverse", "cholesky_solve", "lu_solve")
NO_MPMATH_SOLVE = dict.fromkeys(MPMATH_SOLVERS, 0)


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
    mp_counts = count_calls(monkeypatch, type(mp), *MPMATH_SOLVERS)
    counts = count_calls(monkeypatch, linalg, "_cholesky", "_lu")
    res = solve_spd(A, b, prec)
    assert counts == {"_cholesky": 1, "_lu": 0}
    assert list(res.solution) == list(x_ref)
    assert cond_ref > 1e6
    assert abs(res.condition - float(cond_ref)) <= 1e-10 * float(cond_ref)
    assert counts == {"_cholesky": 1, "_lu": 0}
    assert mp_counts == NO_MPMATH_SOLVE


def test_extended_solve_general_factors_once_and_matches_lu_solve(monkeypatch):
    bits = 128
    prec = PrecisionConfig.extended(bits)
    with mp.workprec(bits):
        xs = [mp.mpf(k) / 3 for k in (-3, -1, 0, 2, 3)]
        A = mp.matrix([[x ** j for x in xs] for j in range(len(xs))])  # transposed Vandermonde
        b = mp.matrix([mp.mpf(2) / (j + 1) if j % 2 == 0 else 0 for j in range(len(xs))])
        x_ref = mp.lu_solve(A, b)
        cond_ref = float(inf_norm(A) * inf_norm(mp.inverse(A)))
    mp_counts = count_calls(monkeypatch, type(mp), *MPMATH_SOLVERS)
    counts = count_calls(monkeypatch, linalg, "_cholesky", "_lu")
    res = solve_general(A, b, prec)
    assert counts == {"_cholesky": 0, "_lu": 1}
    assert list(res.solution) == list(x_ref)
    assert res.condition == cond_ref
    assert counts == {"_cholesky": 0, "_lu": 1}
    assert mp_counts == NO_MPMATH_SOLVE


PIVOTING_4X4 = [[2.0**-10, 2.0, 1.0, -3.0], [3.0, 1.0, 0.5, 2.0], [1.0, -4.0, 2.5, 1.0], [-2.0, 1.0, 7.0, 0.25]]


def test_pivoted_lu_condition_matches_the_inverse():
    """Partial pivoting swaps rows here, P A = L U, and A^-1 = U^-1 L^-1 P:
    the triangular inverse gives each row of A^-1 with its entries in
    another order, so the condition of the solve and condition_estimate
    equal ||A|| ||mp.inverse(A)||."""
    bits = 128
    prec = PrecisionConfig.extended(bits)
    A = PIVOTING_4X4
    with mp.workprec(bits):
        Am = mp.matrix(A)
        _, p = mp.LU_decomp(Am.copy())
        assert p != list(range(len(A) - 1))  # rows are swapped
        ref = mp.inverse(Am)
        cond_ref = float(inf_norm(Am) * inf_norm(ref))
    res = solve_general(A, [1, 2, 3, 4], prec)
    with mp.workprec(bits + 10):
        rows = res.inverse()  # raw mpf values
        for i, row in enumerate(rows):
            for got, want in zip(sorted(map(mp.make_mpf, row)), sorted(ref[i, j] for j in range(len(A)))):
                assert abs(got - want) <= mp.mpf(2) ** (8 - bits) * abs(want)
    assert res.condition == cond_ref
    assert condition_estimate(A, prec) == cond_ref


def factor_systems():
    """Rows of mpf at the working precision: a Gaussian Gram matrix and a
    random B B^T + I (symmetric positive definite), a transposed
    Vandermonde matrix, the pivoting 4 x 4 and a random 8 x 8."""
    rng = np.random.default_rng(17)
    B = [[mp.mpf(v) for v in row] for row in rng.uniform(-1.0, 1.0, size=(8, 8))]
    xs = [mp.mpf(k) / 4 for k in range(-3, 4)]
    ys = [mp.mpf(k) / 3 for k in (-3, -1, 0, 2, 3)]
    spd = {
        "gram": [[mp.exp(-(x - y) ** 2 / 8) for y in xs] for x in xs],
        "random_spd": [[mp.fdot(u, v) + (i == j) for j, v in enumerate(B)] for i, u in enumerate(B)],
    }
    general = {
        "gram": spd["gram"],
        "vandermonde": [[y**j for y in ys] for j in range(len(ys))],
        "pivoting": [[mp.mpf(v) for v in row] for row in PIVOTING_4X4],
        "random": B,
    }
    return spd, general


def raw(rows):
    """The raw mpf tuples of rows of mpf."""
    return [[v._mpf_ for v in row] for row in rows]


def mpf_rows(rows):
    return [[mp.make_mpf(v) for v in row] for row in rows]


@pytest.mark.parametrize("bits", [63, 138, 700])
def test_factors_equal_mpmath_entry_for_entry(bits):
    """The in-repo Cholesky, LU and substitutions on raw mpf give the bits
    of mpmath's cholesky, LU_decomp (pivots included), L_solve and U_solve."""
    with mp.workprec(bits):
        spd, general = factor_systems()
        for A in spd.values():
            assert linalg._cholesky(raw(A), mp.eps._mpf_) == raw(mp.cholesky(mp.matrix(A), +mp.eps).tolist())
        swapped = False
        for A in general.values():
            LU, p = linalg._lu(raw(A))
            LU_ref, p_ref = mp.LU_decomp(mp.matrix(A))
            assert p == p_ref
            assert LU == raw(LU_ref.tolist())
            swapped = swapped or p != list(range(len(A) - 1))
            b = [mp.mpf(k + 1) / 3 for k in range(len(A))]
            x = linalg._u_solve(LU, linalg._l_solve(LU, [v._mpf_ for v in b], p))
            assert x == [v._mpf_ for v in mp.U_solve(LU_ref, mp.L_solve(LU_ref, mp.matrix(b), p_ref))]
        assert swapped


# The mpf-object forms of the raw-mpf kernels, as linalg ran them before it
# moved to raw tuples; the oracle of test_raw_kernels_equal_the_mpf_object_forms.
def mpf_inf_norm(rows):
    return max(sum(map(abs, row), mp.mpf(0)) for row in rows)


def mpf_lower_inverse(rows, unit=False):
    n = len(rows)
    cols = []
    for j in range(n):
        col = [mp.one if unit else 1 / rows[j][j]]
        for i in range(j + 1, n):
            s = -mp.fdot(rows[i][j:i], col)
            col.append(s if unit else s / rows[i][i])
        cols.append(col)
    return cols


def mpf_triangular_product(upper, lower, symmetric=False):
    n = len(lower)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            k = max(i, j)
            out[i][j] = mp.fdot(upper[i][k - i:], lower[j][k - j:])
            if symmetric:
                out[j][i] = out[i][j]
    return out


def mpf_cholesky_substitute(L, v):
    y = list(v)
    for i in range(len(y)):
        y[i] -= mp.fsum(L[i][j] * y[j] for j in range(i))
        y[i] /= L[i][i]
    return list(mp.U_solve(mp.matrix(L).T, mp.matrix(y)))


@pytest.mark.parametrize("bits", [63, 138, 700])
def test_raw_kernels_equal_the_mpf_object_forms(bits):
    """The Cholesky substitution, the triangular inverses, their product
    and the inf-norm on raw mpf give the bits of the same loops on mpf
    objects, the norms also at fewer bits than their entries carry."""
    with mp.workprec(bits):
        spd, general = factor_systems()
        for A in spd.values():
            Lc = linalg._cholesky(raw(A), mp.eps._mpf_)
            Lm = mpf_rows(Lc)
            b = [mp.mpf(k + 1) / 3 for k in range(len(A))]
            x = linalg._cholesky_substitute(Lc, [v._mpf_ for v in b])
            assert x == [v._mpf_ for v in mpf_cholesky_substitute(Lm, b)]
            X, Xm = linalg._lower_inverse(Lc), mpf_lower_inverse(Lm)
            assert X == raw(Xm)
            inv, inv_m = linalg._triangular_product(X, X, symmetric=True), mpf_triangular_product(Xm, Xm, symmetric=True)
            assert inv == raw(inv_m)
            for norm_bits in (bits, bits - 10):
                with mp.workprec(norm_bits):
                    assert linalg._inf_norm_mp(inv) == mpf_inf_norm(inv_m)._mpf_
                    assert linalg._inf_norm_mp(raw(A)) == mpf_inf_norm(A)._mpf_
        for A in general.values():
            LU, _ = linalg._lu(raw(A))
            LUm = mpf_rows(LU)
            Ut, Utm = linalg._lower_inverse(list(zip(*LU))), mpf_lower_inverse(list(zip(*LUm)))
            Li, Lim = linalg._lower_inverse(LU, unit=True), mpf_lower_inverse(LUm, unit=True)
            assert (Ut, Li) == (raw(Utm), raw(Lim))
            inv, inv_m = linalg._triangular_product(Ut, Li), mpf_triangular_product(Utm, Lim)
            assert inv == raw(inv_m)
            for norm_bits in (bits, bits - 10):
                with mp.workprec(norm_bits):
                    assert linalg._inf_norm_mp(inv) == mpf_inf_norm(inv_m)._mpf_


def random_raw(rng, n, bits, exps):
    """n raw mpf of random signs and ``bits``-bit mantissas, at exponents
    drawn from ``exps``, with every fifth entry zero."""
    out = []
    for k in range(n):
        man = int(rng.integers(1, 2**62)) << (bits - 62) if bits > 62 else int(rng.integers(1, 2**bits))
        v = mp.ldexp(mp.mpf(man), int(rng.choice(exps)) - bits) * (-1) ** int(rng.integers(2))
        out.append(mp.zero._mpf_ if k % 5 == 4 else v._mpf_)
    return out


@pytest.mark.parametrize("bits", [63, 138, 712])
def test_fused_dot_equals_mpf_sum_of_exact_products(bits):
    """_fdot is mpf_sum over the exact mpf_mul products, bit for bit, in
    every rounding: on random vectors with zeros and mixed signs, with
    exponent gaps beyond 2 bits in both orders (which mpf_sum drops or lets
    replace the sum), after a sum cancelled to zero, and on empty and
    one-term vectors."""
    from mpmath.libmp import mpf_mul, mpf_neg, mpf_sum

    rng = np.random.default_rng(bits)
    far = 3 * bits + 70  # past 2 bits plus a product's bits
    x, y = mp.mpf(3) / 7, mp.mpf(-5) / 11
    with mp.workprec(bits):
        big, tiny, one = x._mpf_, mp.ldexp(y, -far)._mpf_, mp.one._mpf_
        cases = [([], []), ([big], [tiny]), ([mp.zero._mpf_], [big])]
        cases += [([big, tiny, big], [one, one, one]), ([tiny, big, tiny], [one, one, mpf_neg(one)])]
        cases += [([big, mpf_neg(big), tiny, big], [one] * 4), ([tiny, big, mpf_neg(big), tiny], [one] * 4)]
        cases += [([big, big], [tiny, big]), ([tiny, tiny], [big, tiny])]
        for n in (1, 2, 8, 13):
            for exps in ([0], range(-8, 9), [-far, 0, far], range(-4 * bits, 4 * bits)):
                cases.append((random_raw(rng, n, bits, exps), random_raw(rng, n, bits, exps)))
    for a, b in cases:
        for rnd in "nfcdu":
            expected = mpf_sum([mpf_mul(u, v) for u, v in zip(a, b)], bits, rnd)
            assert linalg._fdot(a, b, bits, rnd) == expected, (a, b, rnd)


@pytest.mark.parametrize("bits", [63, 138, 712])
def test_solve_input_rounds_as_mpf_and_rejects_non_finite_entries(bits):
    """_to_rows and _to_vec read an mpf of more bits than the working
    precision as mp.mpf(v) rounds it, other numbers through mp.mpf too,
    and refuse inf, nan and ragged rows."""
    with mp.workprec(bits + 300):
        over = [mp.pi, -mp.e / 3, mp.ldexp(mp.sqrt(2), -900), mp.zero, mp.mpf(1) + mp.ldexp(1, -bits - 1)]
    with mp.workprec(bits):
        expected = [mp.mpf(v)._mpf_ for v in over]
        assert expected != [v._mpf_ for v in over]
        assert linalg._to_vec(over, len(over)) == expected
        assert linalg._to_rows([over] * len(over)) == [expected] * len(over)
        mixed = [0.1, 3, Fraction(1, 3), mp.mpf(2) / 3]
        assert linalg._to_rows([mixed] * 4)[0] == [mp.mpf(v)._mpf_ for v in (0.1, 3, mp.mpf(1) / 3, mp.mpf(2) / 3)]
        for bad in (mp.inf, -mp.inf, mp.nan, math.inf, math.nan):
            with pytest.raises(ValueError):
                linalg._to_rows([[mp.one, bad], [bad, mp.one]])
            with pytest.raises(ValueError):
                linalg._to_vec([mp.one, bad], 2)
        with pytest.raises(ValueError):
            linalg._to_rows([[mp.one, mp.one], [mp.one]])


def test_factor_failures_are_typed():
    with mp.workprec(63):
        with pytest.raises(SingularMatrixError):
            linalg._lu(raw([[mp.mpf(1), mp.mpf(2)], [mp.mpf(2), mp.mpf(4)]]))
        with pytest.raises(NumericallyIndefiniteError):
            linalg._cholesky(raw([[mp.mpf(1), mp.mpf(2)], [mp.mpf(2), mp.mpf(1)]]), mp.eps._mpf_)


@pytest.mark.parametrize(
    "prec", [PrecisionConfig.machine(), PrecisionConfig.extended(128)], ids=["machine", "extended"]
)
def test_zero_pivot_column_is_singular(prec):
    """A column that is zero from the diagonal down, in rows of nonzero
    sum, leaves mpmath's LU_decomp without a pivot row (a TypeError
    there); here it is a singular matrix."""
    with pytest.raises(SingularMatrixError):
        solve_general([[0.0, 1.0], [0.0, 1.0]], [1.0, 1.0], prec)
    assert condition_estimate([[1.0, 2.0, 3.0], [1.0, 2.0, 5.0], [2.0, 4.0, 1.0]], prec) == math.inf


@pytest.mark.parametrize(
    "prec", [PrecisionConfig.machine(), PrecisionConfig.extended(128)], ids=["machine", "extended"]
)
def test_condition_estimate_is_the_condition_of_one_lu_solve(prec):
    A = [[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [2.0, 0.5, 1.0]]
    assert condition_estimate(A, prec) == solve_general(A, [0.0, 0.0, 0.0], prec).condition
    assert condition_estimate([[1.0, 2.0], [2.0, 4.0]], prec) == math.inf


def diagnostic_systems(prec):
    """A Gaussian Gram system (SPD) and a transposed Vandermonde system,
    built at 128 bits and rounded to float64 for the machine lane."""
    with mp.workprec(128):
        xs = [mp.mpf(k) / 4 for k in range(-3, 4)]
        G = [[mp.exp(-(x - y) ** 2 / 8) for y in xs] for x in xs]
        b = [mp.mpf(k + 1) / 3 for k in range(len(xs))]
        ys = [mp.mpf(k) / 3 for k in (-3, -1, 0, 2, 3)]
        V = [[y ** j for y in ys] for j in range(len(ys))]
        c = [mp.mpf(2) / (j + 1) if j % 2 == 0 else 0 for j in range(len(ys))]
    if not prec.is_extended:
        G, V = ([[float(v) for v in row] for row in M] for M in (G, V))
        b, c = ([float(v) for v in vec] for vec in (b, c))
    return {"spd": (solve_spd, G, b), "general": (solve_general, V, c)}


# The diagnostics the eager solves reported before they became lazy:
# (condition, residual norm as a float or an mpf's (sign, man, exp, bc),
# warning), for the systems of diagnostic_systems.  The machine entries are
# those of the mpmath solve at 53 + 10 bits, with the residual of the
# returned float solution evaluated with 64 guard bits.
EAGER_DIAGNOSTICS = {
    ("machine", "spd"): (
        839509254981.9287,
        2.167001447462736e-11,
        "condition estimate 8.395e+11 exceeds threshold 9.491e+07 at 53 bits; consider a higher precision",
    ),
    ("machine", "general"): (70.0, 5.551115123125783e-17, None),
    ("extended", "spd"): (839513240325.3585, (0, 120654436130713383, -177, 57), None),
    ("extended", "general"): (70.0, (0, 52031587694887131, -193, 56), None),
}
LANES = {"machine": PrecisionConfig.machine(), "extended": PrecisionConfig.extended(128)}


@pytest.mark.parametrize("lane", ["machine", "extended"])
@pytest.mark.parametrize("kind", ["spd", "general"])
def test_unread_diagnostics_cost_no_inverse_columns(monkeypatch, lane, kind):
    prec = LANES[lane]
    solve, A, b = diagnostic_systems(prec)[kind]
    mp_counts = count_calls(monkeypatch, type(mp), *MPMATH_SOLVERS)
    counts = count_calls(monkeypatch, linalg, "_u_solve")
    res = solve(A, b, prec)
    assert counts["_u_solve"] == 1  # the solution only
    res.residual_norm
    assert counts["_u_solve"] == 1  # the residual needs no substitution
    res.condition
    res.warning
    assert counts["_u_solve"] == 1  # the inverse comes from the factor
    assert mp_counts == NO_MPMATH_SOLVE


@pytest.mark.parametrize("kind", ["spd", "general"])
def test_machine_condition_is_that_of_the_float64_system(kind):
    """The machine lane reads ||A|| ||A^-1|| of the float64-rounded system,
    with A^-1 from mp.inverse at 400 bits as the reference: the Gram
    system within a relative kappa 2^-63 (u at the 63 bits of the
    solve), the Vandermonde system to the float."""
    prec = PrecisionConfig.machine()
    solve, A, b = diagnostic_systems(prec)[kind]
    with mp.workprec(400):
        Am = mp.matrix(A)
        exact = inf_norm(Am) * inf_norm(mp.inverse(Am))
        got = solve(A, b, prec).condition
        if kind == "spd":
            assert abs(got - exact) <= exact * exact * mp.mpf(2) ** -63
        else:
            assert got == float(exact) == 70.0


MALFORMED = {
    "one_dimensional": ([1.0, 2.0], [1.0, 2.0]),
    "one_dimensional_array": (np.array([1.0, 2.0]), [1.0, 2.0]),
    "empty": ([], []),
    "non_square": ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 2.0]),
    "ragged": ([[1.0, 2.0], [3.0]], [1.0, 2.0]),
    "non_finite_entry": ([[1.0, math.nan], [math.nan, 1.0]], [1.0, 2.0]),
    "non_finite_rhs": ([[2.0, 0.0], [0.0, 1.0]], [1.0, math.inf]),
    "rhs_wrong_length": ([[2.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0]),
    "rhs_scalar": ([[2.0, 0.0], [0.0, 1.0]], 1.0),
    "rhs_nested": ([[2.0, 0.0], [0.0, 1.0]], [[1.0], [2.0]]),
    "rhs_column_array": ([[2.0, 0.0], [0.0, 1.0]], np.array([[1.0], [2.0]])),
}


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), PrecisionConfig.extended(128)], ids=["machine", "extended"])
@pytest.mark.parametrize(
    "solve,A,b",
    [
        pytest.param(solve, A, b, id=f"{name}-{solve.__name__}")
        for name, (A, b) in MALFORMED.items()
        for solve in (solve_spd, solve_general)
    ]
    + [pytest.param(solve_spd, [[2.0, 1.0], [0.0, 1.0]], [1.0, 2.0], id="non_symmetric-solve_spd")],
)
def test_malformed_systems_raise_value_error(prec, solve, A, b):
    with pytest.raises(ValueError):
        solve(A, b, prec)


@pytest.mark.parametrize("lane,kind", list(EAGER_DIAGNOSTICS), ids=["-".join(k) for k in EAGER_DIAGNOSTICS])
@pytest.mark.parametrize("read_bits", [None, 20, 600])
def test_lazy_diagnostics_equal_the_eager_values(lane, kind, read_bits):
    """Read on first use, at the solve's own precision: the same bytes as
    the eager diagnostics, whatever mpmath's global precision is when they
    are read."""
    prec = LANES[lane]
    solve, A, b = diagnostic_systems(prec)[kind]
    res = solve(A, b, prec)
    condition, residual, warning = EAGER_DIAGNOSTICS[(lane, kind)]
    if read_bits is None:
        got = (res.condition, res.residual_norm, res.warning)
    else:
        with mp.workprec(read_bits):
            got = (res.condition, res.residual_norm, res.warning)
    assert repr(got[0]) == repr(condition)
    assert (got[1]._mpf_ if prec.is_extended else repr(got[1])) == (residual if prec.is_extended else repr(residual))
    assert got[2] == warning


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), PrecisionConfig.extended(128)], ids=["machine", "extended"])
@pytest.mark.parametrize("solve", [solve_spd, solve_general], ids=["spd", "general"])
def test_resolve_through_the_factor_equals_a_fresh_solve(prec, solve):
    """Another right-hand side through the stored factor gives the bytes,
    residual and condition of a fresh solve of the same matrix."""
    A = hilbert(5)
    b = [Fraction(k - 2, k + 3) for k in range(5)]
    again = solve(A, [1] * 5, prec).resolve(b)
    fresh = solve(A, b, prec)
    assert again.solution == fresh.solution
    assert again.residual_norm == fresh.residual_norm
    assert again.condition == fresh.condition


@pytest.mark.parametrize("bits", [128, 300])
def test_checkerboard_condition_of_totally_positive_systems(bits):
    """Hilbert matrices and the diagnostic Gaussian Gram are totally
    positive, so their inverses are checkerboard: the condition from one
    substitution with alternating signs is the one from the whole inverse,
    and all signs +1 read less."""
    prec = PrecisionConfig.extended(bits)
    _, G, _ = diagnostic_systems(prec)["spd"]
    for A in [G] + [hilbert(n) for n in (2, 5, 9)]:
        res = solve_spd(A, [1] * len(A), prec)
        assert linalg.checkerboard_condition(res, [(-1) ** i for i in range(len(A))]) == res.condition
        assert linalg.checkerboard_condition(res, [1] * len(A)) < res.condition

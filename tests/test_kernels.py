import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from numpy.testing import assert_allclose

from flatlimit import kernels
from flatlimit import (
    FunctionalSpec,
    MultiIndex,
    PointSet,
    PrecisionConfig,
    auto_precision_bits,
    chebyshev_system_zero_count,
    damped_moment,
    double_embedding,
    gram_matrix,
    kernel_embedding,
    kernel_eval,
    optimal_weights,
    optimize_points,
    phi_basis_eval,
    phi_weights,
    worst_case_error,
)

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_gaussian_closed_form():
    k = 2.0
    assert kernel_eval(k, 1.0, 1.0) == 1.0
    assert_allclose(kernel_eval(k, 0.0, 2.0), math.exp(-0.5))
    k2 = 1.0
    assert_allclose(kernel_eval(k2, (0.0, 0.0), (1.0, 1.0)), math.exp(-1.0))


@given(x=coord, y=coord, ell=st.floats(min_value=0.5, max_value=50.0))
@settings(deadline=None)
def test_gaussian_symmetry_and_bounds(x, y, ell):
    k = ell
    v = kernel_eval(k, x, y)
    assert kernel_eval(k, y, x) == v
    assert 0.0 < v <= 1.0


def power_series(coefficient, t, terms=120):
    """sum_{n < terms} coefficient(n) t^n at 128 bits.  The Gaussian
    kernel is such a series in t = x . y / l^2, with its damping
    exp(-|x|^2/(2 l^2)) exp(-|y|^2/(2 l^2)) and 1/n!."""
    with mp.workprec(128):
        t = mp.mpf(t)
        return float(mp.fsum(coefficient(n) * t**n for n in range(terms)))


def inverse_factorial(n):
    return 1 / mp.factorial(n)


def test_series_reproduces_gaussian():
    """The closed-form Gaussian kernel in 2-D agrees with its power series."""
    ell = 1.5
    k_closed = ell
    pts = [(-1.3, 0.4), (0.2, -0.9), (1.8, 1.1)]
    for x in pts:
        for y in pts:
            damping = math.exp(-(sum(c * c for c in x) + sum(c * c for c in y)) / (2 * ell * ell))
            series = damping * power_series(inverse_factorial, sum(a * b for a, b in zip(x, y)) / ell**2)
            assert_allclose(kernel_eval(k_closed, x, y), series, rtol=0, atol=1e-10)


def test_phi_basis_eval():
    from flatlimit.core import MultiIndex

    ell = 2.0
    a = MultiIndex((2,))
    x = 1.5
    expected = math.exp(-(x * x) / (2 * ell * ell)) * x ** 2
    assert_allclose(phi_basis_eval(ell, a, x), expected)
    # degree zero at the origin is exactly one
    assert phi_basis_eval(ell, MultiIndex((0, 0)), (0.0, 0.0)) == 1.0


def test_gram_matrix_machine_is_an_exactly_symmetric_list_of_rows():
    """At machine precision the Gram matrix is a list of rows whose entries
    are kernel_eval's floats bit for bit, and exactly symmetric, whatever
    mpmath's precision is when it is built."""
    X = PointSet.from_points([-1.0, 0.0, 0.7])
    ell = 3.0
    for bits in (20, 53, 300):
        with mp.workprec(bits):
            G = gram_matrix(ell, X, PrecisionConfig.machine())
        assert isinstance(G, list) and all(isinstance(row, list) and len(row) == 3 for row in G)
        assert len(G) == 3
        for i, x in enumerate(X):
            for j, y in enumerate(X):
                assert G[i][j] == G[j][i]
                assert type(G[i][j]) is float
                assert G[i][j] == kernel_eval(ell, x, y)
        assert [G[i][i] for i in range(3)] == [1.0, 1.0, 1.0]


def test_gram_matrix_extended_uses_working_precision():
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    prec = PrecisionConfig.extended(256)
    ell = 100.0
    for bits in (20, 53, 300):
        with mp.workprec(bits):
            G = gram_matrix(ell, X, prec)
        assert isinstance(G, list) and all(isinstance(row, list) and len(row) == 3 for row in G)
        for i, x in enumerate(X):
            for j, y in enumerate(X):
                assert G[i][j] == G[j][i]
                assert G[i][j]._mpf_ == kernel_eval(ell, x, y, prec)._mpf_
    # off-diagonal entries at ell=100 differ from 1 only near the 5th digit;
    # 256 bits must resolve far beyond float64
    with mp.workprec(256):
        delta = mp.mpf(1) - G[0][1]
    assert delta > 0
    assert mp.log(delta, 10) < -4


def chebyshev(n):
    """Chebyshev points of the first kind on [-1, 1], mirrored so the set is
    exactly symmetric in binary (the node sets of the perfbench sweeps)."""
    half = [math.cos((2 * k + 1) * math.pi / (2 * n)) for k in range(n // 2)]
    return sorted([-x for x in half] + ([0.0] if n % 2 else []) + half)


@pytest.mark.parametrize("points,exps", [([-1.0, 0.0, 1.0], 3), (chebyshev(6), 10), (chebyshev(10), 26)])
@pytest.mark.parametrize("bits", [64, 692])
def test_extended_gaussian_gram_takes_one_exp_per_distinct_exponent(points, exps, bits, monkeypatch):
    """A mirrored node set repeats squared distances: {-1, 0, 1} has 3
    distinct exponents among its 6 upper-triangle entries, 6 Chebyshev
    points 10 of 21, 10 of them 26 of 55."""
    calls = []
    original = kernels.mpf_exp
    monkeypatch.setattr(kernels, "mpf_exp", lambda *args: calls.append(args[0]) or original(*args))
    X = PointSet.from_points(points)
    for ell in (1.0, 46.4, 10000.0):
        calls.clear()
        G = gram_matrix(ell, X, PrecisionConfig.extended(bits))
        assert len(calls) == len(set(calls)) == exps
        assert len({id(v) for row in G for v in row}) == exps  # entries of one exponent share one mpf


def mpf_gaussian(x, y, ell):
    """The Gaussian kernel on mpf objects: exp(-sq_dist(x, y) / (2 l^2)),
    the squared distance summed left to right."""
    d2 = 0
    for a, b in zip(x, y):
        d2 += (a - b) * (a - b)
    return mp.exp(-d2 / (2 * ell * ell))


GRAM_POINT_SETS = {
    "symmetric": PointSet.from_points(chebyshev(7)),
    "asymmetric": PointSet.from_points([-0.9, -0.31, 0.0, 0.2, 0.77, 1.0]),
    "plane": PointSet.from_points([(math.sin(3 * k + 1), math.cos(5 * k)) for k in range(8)]),
}


@pytest.mark.parametrize("name", GRAM_POINT_SETS)
@pytest.mark.parametrize("ell", [0.7, 100.0])
def test_extended_gaussian_gram_entries_are_kernel_eval_bits(name, ell):
    """Every entry of the extended Gaussian Gram, whatever mpmath's
    precision at the call, is kernel_eval's mpf and the mpf-object formula's
    at the Gram's bits."""
    X = GRAM_POINT_SETS[name]
    for bits in (64, 700):
        prec = PrecisionConfig.extended(bits)
        with mp.workprec(bits):
            want = [[mpf_gaussian([mp.mpf(c) for c in x], [mp.mpf(c) for c in y], mp.mpf(ell))._mpf_ for y in X] for x in X]
        for outer in (20, 53, 300, 700):
            with mp.workprec(outer):
                G = gram_matrix(ell, X, prec)
                got = [[v._mpf_ for v in row] for row in G]
                assert got == want
                assert got == [[kernel_eval(ell, x, y, prec)._mpf_ for y in X] for x in X]


def test_gram_condition_growth_with_flatness():
    """The three-point Gram matrix degenerates as the kernel flattens; these
    reference values come from an independent eigenvalue computation."""
    X = PointSet.from_points([-1.0, 0.0, 1.0])
    G10 = np.array(gram_matrix(10.0, X, PrecisionConfig.machine()), dtype=float)
    G100 = np.array(gram_matrix(100.0, X, PrecisionConfig.machine()), dtype=float)
    assert_allclose(np.linalg.cond(G10, 2), 8.970571e4, rtol=1e-5)
    assert_allclose(np.linalg.cond(G100, 2), 8.999700e8, rtol=1e-5)
    assert_allclose(np.linalg.cond(G100, np.inf), 1.199990e9, rtol=1e-5)


def test_three_dimensional_kernel_sums_left_to_right():
    """A 3-D Gaussian kernel value is the exp of the squared distance
    summed left to right, on every interpreter."""
    x, y = (1.0, 1e-8, 1e-8), (0.0, 0.0, 0.0)
    d2 = 0.0
    for a, b in zip(x, y):
        d2 += (a - b) * (a - b)
    assert d2 == 1.0
    assert kernel_eval(1.0, x, y) == math.exp(-d2 / 2) == math.exp(-0.5)


_BOX = FunctionalSpec.lebesgue_box(-1.0, 1.0)
_NODES = PointSet.from_points([-1.0, 0.0, 1.0])
_SIMPSON = optimal_weights(2.0, _BOX, _NODES).rule

# every public function that takes the length scale l, called with l
TAKES_LENGTH_SCALE = {
    "kernel_eval": lambda ell: kernel_eval(ell, 0.0, 1.0),
    "gram_matrix": lambda ell: gram_matrix(ell, _NODES),
    "phi_basis_eval": lambda ell: phi_basis_eval(ell, MultiIndex((2,)), 0.5),
    "kernel_embedding": lambda ell: kernel_embedding(_BOX, ell, 0.5),
    "double_embedding": lambda ell: double_embedding(_BOX, ell),
    "damped_moment": lambda ell: damped_moment(_BOX, ell, MultiIndex((2,))),
    "optimal_weights": lambda ell: optimal_weights(ell, _BOX, _NODES),
    "worst_case_error": lambda ell: worst_case_error(ell, _BOX, _SIMPSON),
    "phi_weights": lambda ell: phi_weights(_BOX, ell, _NODES, 2),
    "optimize_points": lambda ell: optimize_points(ell, _BOX, 2),
    "chebyshev_system_zero_count": lambda ell: chebyshev_system_zero_count(ell, [1.0, -2.0]),
    "auto_precision_bits": lambda ell: auto_precision_bits(ell, 3),
}
# each bad length scale and the error it raises; 10**400 is past the float range
BAD_LENGTH_SCALES = {
    "zero": (0.0, ValueError),
    "negative": (-2.0, ValueError),
    "inf": (math.inf, ValueError),
    "-inf": (-math.inf, ValueError),
    "nan": (math.nan, ValueError),
    "huge_int": (10**400, ValueError),
    "true": (True, TypeError),
    "string": ("3", TypeError),
}


@pytest.mark.parametrize("bad", BAD_LENGTH_SCALES)
@pytest.mark.parametrize("name", TAKES_LENGTH_SCALE)
def test_every_entry_point_checks_the_length_scale(name, bad):
    """One rule (:func:`core._length_scale`) checks l wherever it enters:
    a real number, not a bool or a string, with 0 < l < inf."""
    value, error = BAD_LENGTH_SCALES[bad]
    with pytest.raises(error):
        TAKES_LENGTH_SCALE[name](value)

import math

import pytest
from mpmath import mp
from numpy.testing import assert_allclose

from flatlimit import (
    FunctionalSpec,
    MultiIndex,
    PrecisionConfig,
    QuadratureError,
    damped_moment,
    double_embedding,
    kernel_embedding,
    moment,
    phi_basis_eval,
)
from flatlimit.functionals import apply_functional, quad1d


def test_point_eval_applies_at_location():
    L = FunctionalSpec.point_eval(1.5)
    assert apply_functional(L, lambda x: x * x) == 2.25
    L2 = FunctionalSpec.point_eval((1.0, 2.0))
    assert apply_functional(L2, lambda p: p[0] + p[1]) == 3.0


def test_lebesgue_moments_closed_form():
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    # int_{-1}^{1} x^k dx = (1 - (-1)^{k+1}) / (k+1)
    assert_allclose(moment(L, MultiIndex((0,))), 2.0)
    assert_allclose(moment(L, MultiIndex((1,))), 0.0, atol=1e-15)
    assert_allclose(moment(L, MultiIndex((2,))), 2.0 / 3.0)
    assert_allclose(moment(L, MultiIndex((6,))), 2.0 / 7.0)
    Lb = FunctionalSpec.lebesgue_box(0.0, 2.0)
    assert_allclose(moment(Lb, MultiIndex((3,))), 4.0)


def test_gaussian_moments_are_double_factorials():
    L = FunctionalSpec.gaussian_measure(1)
    assert_allclose(moment(L, MultiIndex((0,))), 1.0)
    assert_allclose(moment(L, MultiIndex((1,))), 0.0, atol=1e-15)
    assert_allclose(moment(L, MultiIndex((2,))), 1.0)
    assert_allclose(moment(L, MultiIndex((4,))), 3.0)
    assert_allclose(moment(L, MultiIndex((6,))), 15.0)
    assert_allclose(moment(L, MultiIndex((8,))), 105.0)
    L2 = FunctionalSpec.gaussian_measure(2)
    assert_allclose(moment(L2, MultiIndex((2, 4))), 3.0)


def test_moments_match_numeric_integration():
    for L in (FunctionalSpec.lebesgue_box(-1.0, 1.0), FunctionalSpec.gaussian_measure(1)):
        for k in (0, 1, 2, 3, 4):
            a = MultiIndex((k,))
            num = apply_functional(L, lambda x: x ** k)
            assert_allclose(moment(L, a), num, atol=1e-12)


def test_damped_moment_matches_numeric():
    ell = 3.0
    for L in (FunctionalSpec.lebesgue_box(-1.0, 1.0), FunctionalSpec.gaussian_measure(1)):
        for k in (0, 2, 4):
            a = MultiIndex((k,))
            num = apply_functional(L, lambda x: phi_basis_eval(ell, a, x))
            assert_allclose(damped_moment(L, ell, a), num, rtol=1e-12, atol=1e-14)


def test_damped_moment_point_functional():
    L = FunctionalSpec.point_eval(0.5)
    a = MultiIndex((3,))
    assert_allclose(damped_moment(L, 2.0, a), phi_basis_eval(2.0, a, 0.5))


def test_embedding_closed_forms_match_numeric():
    k = 3.0
    Ll = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    Lg = FunctionalSpec.gaussian_measure(1)
    for x in (-0.7, 0.0, 0.4, 2.0):
        num_l = apply_functional(Ll, lambda t: math.exp(-(t - x) ** 2 / (2 * 9.0)))
        assert_allclose(kernel_embedding(Ll, k, x), num_l, rtol=1e-10)
        num_g = apply_functional(Lg, lambda t: math.exp(-(t - x) ** 2 / (2 * 9.0)))
        assert_allclose(kernel_embedding(Lg, k, x), num_g, rtol=1e-10)


def test_embedding_gaussian_closed_form_value():
    # with unit length scale the embedding into the standard normal is
    # sqrt(1/2) * exp(-x^2/4)
    k = 1.0
    Lg = FunctionalSpec.gaussian_measure(1)
    for x in (0.0, 1.0, -2.0):
        assert_allclose(kernel_embedding(Lg, k, x), math.sqrt(0.5) * math.exp(-x * x / 4.0))


def test_double_embedding_gaussian_closed_form():
    Lg = FunctionalSpec.gaussian_measure(1)
    for ell in (1.0, 2.0, 10.0):
        k = ell
        expected = math.sqrt(ell * ell / (2.0 + ell * ell))
        assert_allclose(double_embedding(Lg, k), expected, rtol=1e-13)
    Lg2 = FunctionalSpec.gaussian_measure(2)
    k2 = 2.0
    assert_allclose(double_embedding(Lg2, k2), 4.0 / 6.0, rtol=1e-13)


def test_double_embedding_lebesgue_closed_form():
    """Independent closed form for the box [a, b] with side length S:

    int int exp(-(x-y)^2/(2 l^2)) dx dy
      = 2 S l sqrt(pi/2) erf(S / (sqrt(2) l)) - 2 l^2 (1 - exp(-S^2/(2 l^2)))
    """
    a, b = -1.0, 1.0
    S = b - a
    L = FunctionalSpec.lebesgue_box(a, b)
    for ell in (0.7, 1.0, 3.0, 25.0):
        k = ell
        expected = (
            2.0 * S * ell * math.sqrt(math.pi / 2.0) * math.erf(S / (math.sqrt(2.0) * ell))
            - 2.0 * ell * ell * (1.0 - math.exp(-S * S / (2.0 * ell * ell)))
        )
        assert_allclose(double_embedding(L, k), expected, rtol=1e-12)


def test_double_embedding_point_functional():
    L = FunctionalSpec.point_eval(0.3)
    k = 2.0
    assert_allclose(double_embedding(L, k), 1.0)


def test_numeric_oracle_functional():
    # density x^2 on [0, 1]: integrates f against an unnormalized measure
    L = FunctionalSpec.numeric_oracle(lambda x: x * x, 0.0, 1.0)
    assert_allclose(apply_functional(L, lambda x: 1.0), 1.0 / 3.0, rtol=1e-10)
    assert_allclose(moment(L, MultiIndex((2,))), 1.0 / 5.0, rtol=1e-10)
    assert not L.assumptions_checked


def test_extended_precision_embedding():
    from mpmath import mp

    prec = PrecisionConfig.extended(128)
    L = FunctionalSpec.lebesgue_box(-1.0, 1.0)
    k = 10.0
    v = kernel_embedding(L, k, 0.0, prec)
    assert isinstance(v, mp.mpf)
    assert_allclose(float(v), kernel_embedding(L, k, 0.0), rtol=1e-13)


def test_dimension_mismatch_rejected():
    L = FunctionalSpec.lebesgue_box((-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        moment(L, MultiIndex((2,)))


def test_lebesgue_box_validation():
    with pytest.raises(ValueError):
        FunctionalSpec.lebesgue_box(1.0, -1.0)
    with pytest.raises(TypeError):
        FunctionalSpec.lebesgue_box("12", (3.0, 4.0))
    with pytest.raises(TypeError):
        FunctionalSpec.point_eval("0")


@pytest.mark.parametrize(
    "make",
    [
        lambda: FunctionalSpec.gaussian_measure(1.5),
        lambda: FunctionalSpec.gaussian_measure(3.0),
        lambda: FunctionalSpec.gaussian_measure(True),
        lambda: FunctionalSpec("lebesgue_box", 1.0, lower=(-1.0,), upper=(1.0,)),
    ],
    ids=["gaussian_1.5", "gaussian_3.0", "gaussian_True", "box_1.0"],
)
def test_functional_dimension_must_be_an_int(make):
    """A dimension is an int, never a float or a bool: a "1.5-dimensional"
    Gaussian measure used to build and give a double embedding."""
    with pytest.raises(TypeError, match="dimension must be an int"):
        make()
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        FunctionalSpec.gaussian_measure(0)


QUAD_BITS = 500
CLOSED_FORM_BOXES = [(-1.0, 1.0), (0.3, 2.5), (-2.5, -0.3), (-2.0, 0.5)]


@pytest.mark.parametrize("ell", [0.05, 0.3, 1.0, 1e2, 1e4])
def test_box_closed_forms_match_500_bit_quadrature(ell):
    """The extended-lane box damped moments (k <= 12) and double embedding
    against tanh-sinh quadrature at 500 bits, to a relative 2^-(bits - 8)
    at 64 and 200 bits.  At ell = 0.05 the flat-regime series alone would
    be off by up to e^(c R^2); the incomplete gamma branch takes over
    there."""
    from mpmath import mp

    for a, b in CLOSED_FORM_BOXES:
        L = FunctionalSpec.lebesgue_box(a, b)
        with mp.workprec(QUAD_BITS):
            c = 1 / (2 * mp.mpf(ell) ** 2)
            damping = {}

            def damped(t, k):
                if t not in damping:  # the nodes repeat across k
                    damping[t] = mp.exp(-c * t * t)
                return t**k * damping[t]

            nodes = [a, 0, b] if a < 0 < b else [a, b]
            refs = [mp.quad(lambda t: damped(t, k), nodes) for k in range(13)]
            # LL = int int K(x - y) dx dy = 2 int_0^W (W - t) exp(-c t^2) dt
            width = mp.mpf(b) - mp.mpf(a)
            refs.append(2 * mp.quad(lambda t: (width - t) * mp.exp(-c * t * t), [0, width]))
        for bits in (64, 200):
            prec = PrecisionConfig.extended(bits)
            values = [damped_moment(L, ell, MultiIndex((k,)), prec) for k in range(13)]
            values.append(double_embedding(L, ell, prec))
            with mp.workprec(QUAD_BITS):
                for k, (value, ref) in enumerate(zip(values, refs)):
                    if k % 2 == 1 and k < 13 and a == -b:
                        assert value == 0
                    else:
                        assert abs(value - ref) <= mp.mpf(2) ** (8 - bits) * abs(ref), (a, b, k, bits)


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), PrecisionConfig.extended(128)], ids=["machine", "128"])
@pytest.mark.parametrize(
    "f, a, b", [(lambda t: 1 / t, 0.0, 1.0), (lambda t: abs(t - 0.3), -1.0, 1.0)], ids=["pole", "kink"]
)
def test_quadrature_error_on_a_divergent_or_kinked_integrand(f, a, b, prec):
    """tanh-sinh converges fast only on an integrand smooth inside the
    interval: on 1/t over (0, 1) and |t - 0.3| over (-1, 1) its error
    estimate stays above the tolerance in both lanes, and the error says
    what to do."""
    with pytest.raises(QuadratureError, match="must be smooth inside the interval and its integral finite"):
        quad1d(f, a, b, prec)


def test_two_dimensional_quadrature_checks_the_inner_axis():
    """A kink along the inner axis raises QuadratureError: the inner
    integrals are quadratures of their own, each held to its tolerance."""
    L = FunctionalSpec.lebesgue_box((-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(QuadratureError):
        apply_functional(L, lambda p: abs(p[1] - 0.3))


def pointwise_embedding(L, length_scale, xv, prec):
    """The closed forms of the Gaussian kernel's embedding, point by point,
    every factor formed afresh: the oracle of the per-row embedding."""
    from flatlimit.core import rexp, rpi, rsqrt, sq_norm

    rerf = mp.erf if prec.is_extended else math.erf

    with prec.workprec():
        xv = prec.to_point(xv)
        ell = prec.to_real(length_scale)
        if L.kind == "gaussian_measure":
            v = ell * ell / (1 + ell * ell)
            return v ** (prec.to_real(L.dimension) / 2) * rexp(-sq_norm(xv) / (2 * (1 + ell * ell)))
        root2 = rsqrt(prec.to_real(2))
        scale = ell * rsqrt(rpi(ell) / 2)
        out = prec.to_real(1)
        for a, b, xi in zip(L.lower, L.upper, xv):
            ar, br = prec.to_real(a), prec.to_real(b)
            out = out * scale * (rerf((br - xi) / (root2 * ell)) - rerf((ar - xi) / (root2 * ell)))
        return out


_CHEB_HALF = [0.15643446504023092, 0.4539904997395468, 0.7071067811865476, 0.8910065241883679, 0.9876883405951378]
ROW_POINT_SETS = {
    # (points, the number of distinct |x|^2 among them)
    "three": ([(-1.0,), (0.0,), (1.0,)], 2),
    "chebyshev10": ([(-x,) for x in reversed(_CHEB_HALF)] + [(x,) for x in _CHEB_HALF], 5),
    "plane": ([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.5, -0.25), (-0.25, 0.5), (0.0, 0.0)], 3),
}
ROW_PRECISIONS = [PrecisionConfig.machine(), PrecisionConfig.extended(64), PrecisionConfig.extended(692)]


@pytest.mark.parametrize("prec", ROW_PRECISIONS, ids=["machine", "64", "692"])
@pytest.mark.parametrize("name", ROW_POINT_SETS)
@pytest.mark.parametrize("kind", ["gaussian_measure", "lebesgue_box"])
def test_row_embeddings_are_the_pointwise_closed_forms(kind, name, prec, monkeypatch):
    """The embeddings a row takes at once equal kernel_embedding's and the
    point-by-point closed form's bits, for the Gaussian measure and the
    box in one and two dimensions; under the Gaussian measure they take
    one exp per distinct |x|^2 (the mirrored sets repeat it)."""
    from flatlimit import core
    from flatlimit.functionals import _row_embeddings

    points, distinct = ROW_POINT_SETS[name]
    d = len(points[0])
    L = FunctionalSpec.gaussian_measure(d)
    if kind == "lebesgue_box":
        L = FunctionalSpec.lebesgue_box((-1.0,) * d, (1.0,) * d)
    calls = []
    original = core.rexp
    monkeypatch.setattr(core, "rexp", lambda x: calls.append(getattr(x, "_mpf_", x)) or original(x))
    for ell in (1.0, 46.4, 10000.0):
        calls.clear()
        row = _row_embeddings(L, ell, points, prec)
        if kind == "gaussian_measure":
            assert len(calls) == len(set(calls)) == distinct
        singles = [kernel_embedding(L, ell, x, prec) for x in points]
        oracle = [pointwise_embedding(L, ell, x, prec) for x in points]
        assert [getattr(v, "_mpf_", v) for v in row] == [getattr(v, "_mpf_", v) for v in singles]
        assert [getattr(v, "_mpf_", v) for v in row] == [getattr(v, "_mpf_", v) for v in oracle]
        assert all(isinstance(v, float) != prec.is_extended for v in row)


def test_box_row_takes_one_erf_per_mirrored_pair(monkeypatch):
    """On six Chebyshev nodes mirrored about 0 the extended box row takes
    one erf per distinct |u|, 6 and not 12: erf(-u) = -erf(u) bit for bit
    in mpmath, so each value equals kernel_embedding's at its point."""
    from flatlimit.functionals import _row_embeddings

    half = [math.cos((2 * k - 1) * math.pi / 12) for k in (3, 2, 1)]
    points = [(-x,) for x in reversed(half)] + [(x,) for x in half]
    L, prec = FunctionalSpec.lebesgue_box(-1.0, 1.0), PrecisionConfig.extended(160)
    calls = []
    original = type(mp).erf
    monkeypatch.setattr(type(mp), "erf", lambda ctx, x: calls.append(x) or original(ctx, x))
    row = _row_embeddings(L, 46.4, points, prec)
    assert len(calls) == 6
    singles = [kernel_embedding(L, 46.4, x, prec) for x in points]
    assert [v._mpf_ for v in row] == [v._mpf_ for v in singles]


def per_alpha_damped_moment(L, length_scale, alpha, prec):
    """The closed forms of the damped moment one multi-index at a time,
    every factor formed afresh and the power taken by mpf ** mpf: the
    mpf-object oracle of the per-row damped moments."""
    from flatlimit import functionals

    with prec.workprec():
        ell = prec.to_real(length_scale)
        if L.kind == "gaussian_measure":
            if any(k % 2 == 1 for k in alpha):
                return prec.to_real(0)
            v = ell * ell / (1 + ell * ell)
            dd = 1
            for k in alpha:
                dd *= functionals._odd_double_factorial(k)
            return v ** (prec.to_real(L.dimension + alpha.degree()) / 2) * dd
        out = prec.to_real(1)
        for a, b, k in zip(L.lower, L.upper, alpha):
            out = out * prec.to_real(functionals._box_damped_moment(a, b, length_scale, k, prec.bits))
        return out


DAMPED_ROWS = {
    # the functional and the degree of its row
    "normal_1d": (FunctionalSpec.gaussian_measure(1), 9),
    "normal_2d": (FunctionalSpec.gaussian_measure(2), 5),
    "normal_3d": (FunctionalSpec.gaussian_measure(3), 3),
    "box_1d": (FunctionalSpec.lebesgue_box(-1.0, 1.0), 9),
    "box_2d": (FunctionalSpec.lebesgue_box((-1.0, 0.25), (1.0, 2.0)), 5),
}


@pytest.mark.parametrize("prec", [PrecisionConfig.machine(), PrecisionConfig.extended(64),
                                  PrecisionConfig.extended(300)], ids=["machine", "64", "300"])
@pytest.mark.parametrize("name", DAMPED_ROWS)
def test_row_damped_moments_are_the_per_alpha_closed_forms(name, prec):
    """A row's damped moments, and damped_moment one at a time, have the
    bits of the per-multi-index closed forms in both lanes.  The length
    scales fall on both sides of the box's switch from the series to the
    incomplete gammas at R^2 = 2 l^2 (R = 1 and 2 on the two axes of the
    2-D box)."""
    from flatlimit import enumerate_multi_indices, functionals

    L, degree = DAMPED_ROWS[name]
    alphas = list(enumerate_multi_indices(L.dimension, degree))
    for ell in (0.3, 1.0, 46.4, 1e4):
        row = functionals._row_damped_moments(L, ell, alphas, prec)
        singles = [damped_moment(L, ell, alpha, prec) for alpha in alphas]
        oracle = [per_alpha_damped_moment(L, ell, alpha, prec) for alpha in alphas]
        assert [getattr(v, "_mpf_", v) for v in row] == [getattr(v, "_mpf_", v) for v in oracle]
        assert [getattr(v, "_mpf_", v) for v in singles] == [getattr(v, "_mpf_", v) for v in oracle]
        assert all(isinstance(v, float) != prec.is_extended for v in row)

"""Linear functionals that cubature rules approximate, and their
interactions with the Gaussian kernel: moments, damped moments, kernel
embeddings and the double embedding.

Four kinds are supported: point evaluation, integration over a bounded box,
integration against the standard Gaussian measure, and a user-supplied
density on a box ("numeric oracle", evaluated only by quadrature).  The
first three have closed forms for all of these, the damped moments and
the double embedding of a box included.  The numeric oracle, and
:func:`apply_functional` on any integral, go through tanh-sinh quadrature
in both lanes (:func:`quad1d`) to a fixed relative tolerance: 1e-10 at
machine precision and for the numeric oracle, 2^-(bits // 2) otherwise.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

from mpmath import mp

from .core import (
    MACHINE,
    MultiIndex,
    PrecisionConfig,
    Real,
    _Frozen,
    _coords,
    _length_scale,
    monomial_eval,
    rerf_once,
    rexp,
    rexp_once,
    rpi,
    rsqrt,
    sq_norm,
)
from .errors import QuadratureError
from .kernels import _as_points, kernel_eval, phi_basis_eval

_KINDS = ("point_eval", "lebesgue_box", "gaussian_measure", "numeric_oracle")


class FunctionalSpec(_Frozen):
    """A continuous linear functional L on functions over R^d.

    kind "point_eval":       L[f] = f(location)
    kind "lebesgue_box":     L[f] = integral of f over [lower, upper]
    kind "gaussian_measure": L[f] = integral of f against N(0, I_d)
    kind "numeric_oracle":   L[f] = integral of f * density over [lower, upper]

    The numeric oracle is integrated by tanh-sinh quadrature to a
    relative 1e-10 in both lanes; its standing assumptions (a density
    smooth inside the box, a finite integral) cannot be checked
    mechanically, which :attr:`assumptions_checked` reports.  The
    dimension is an int, never a bool or a float that reads as one.
    """

    __slots__ = _fields = ("kind", "dimension", "location", "lower", "upper", "density")

    def __init__(self, kind: str, dimension: int, location: Optional[tuple[float, ...]] = None,
                 lower: Optional[tuple[float, ...]] = None, upper: Optional[tuple[float, ...]] = None,
                 density: Optional[Callable] = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown functional kind {kind!r}")
        if not isinstance(dimension, int) or isinstance(dimension, bool):
            raise TypeError(f"dimension must be an int, got {dimension!r}")
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if kind == "point_eval":
            if location is None or len(location) != dimension:
                raise ValueError("point_eval needs a location of matching dimension")
            if not all(math.isfinite(c) for c in location):
                raise ValueError("point_eval location must be finite")
        if kind in ("lebesgue_box", "numeric_oracle"):
            if lower is None or upper is None:
                raise ValueError(f"{kind} needs lower and upper bounds")
            if len(lower) != dimension or len(upper) != dimension:
                raise ValueError("box bounds must match the dimension")
            for a, b in zip(lower, upper):
                if not (math.isfinite(a) and math.isfinite(b) and a < b):
                    raise ValueError(f"box bounds must be finite with lower < upper, got [{a}, {b}]")
        if kind == "numeric_oracle" and density is None:
            raise ValueError("numeric_oracle needs a density callable")
        self._bind(kind, dimension, location, lower, upper, density)

    @classmethod
    def point_eval(cls, location) -> "FunctionalSpec":
        location = _coords(location)
        return cls("point_eval", len(location), location=location)

    @classmethod
    def lebesgue_box(cls, lower, upper) -> "FunctionalSpec":
        lower, upper = _coords(lower), _coords(upper)
        return cls("lebesgue_box", len(lower), lower=lower, upper=upper)

    @classmethod
    def gaussian_measure(cls, dimension: int = 1) -> "FunctionalSpec":
        return cls("gaussian_measure", dimension)

    @classmethod
    def numeric_oracle(cls, density: Callable, lower, upper) -> "FunctionalSpec":
        lower, upper = _coords(lower), _coords(upper)
        return cls("numeric_oracle", len(lower), lower=lower, upper=upper, density=density)

    @property
    def is_bounded(self) -> bool:
        """Whether the functional only sees a bounded region."""
        return self.kind != "gaussian_measure"

    @property
    def assumptions_checked(self) -> bool:
        """False when correctness rests on unverifiable user input."""
        return self.kind != "numeric_oracle"

    def label(self) -> str:
        if self.kind == "point_eval":
            return f"point_eval@{self.location}"
        if self.kind == "lebesgue_box":
            return f"lebesgue_box{list(self.lower)}..{list(self.upper)}"
        if self.kind == "gaussian_measure":
            return f"gaussian_measure(d={self.dimension})"
        return f"numeric_oracle{list(self.lower)}..{list(self.upper)}"


def _odd_double_factorial(n: int) -> int:
    """(n - 1)!! for even n >= 0, with (-1)!! = 1."""
    out = 1
    for k in range(1, n, 2):
        out *= k
    return out


def quad1d(
    f: Callable[[Real], Real],
    a: float,
    b: float,
    prec: PrecisionConfig = MACHINE,
    rel_tol: float = 1e-10,
) -> Real:
    """The integral of f over (a, b), whose endpoints may be infinite, by
    tanh-sinh quadrature at the lane's bits: 53 in machine mode, where f
    receives floats and the value returns as a float.  Raises
    QuadratureError when the error estimate is above
    10 max(1e-14, rel_tol |v|) in machine mode, rel_tol max(1, |v|) in
    extended mode, as it is on a kink, a jump or a divergent integral."""
    with mp.workprec(prec.bits):
        g = f if prec.is_extended else lambda t: f(float(t))
        val, err = mp.quad(g, [mp.mpf(a), mp.mpf(b)], error=True)
        if prec.is_extended:
            bound = rel_tol * max(1, abs(val))
        else:
            val, err = float(val), float(err)
            bound = 10 * max(1e-14, rel_tol * abs(val))
        if not err <= bound:
            raise QuadratureError(
                f"tanh-sinh error estimate {mp.nstr(mp.mpf(err), 4)} above {mp.nstr(mp.mpf(bound), 4)} on ({a}, {b}):"
                " the integrand must be smooth inside the interval and its integral finite; split the"
                " interval at a kink or jump, or integrate a singularity in closed form"
            )
        return val


_SERIES_GUARD_BITS = 16


def _half_gamma(k: int, lo: float, hi: float, length_scale: float, bits: int) -> mp.mpf:
    """The integral of t^k exp(-c t^2) over [lo, hi], 0 <= lo < hi, as
    (1/2) c^-s (Gamma(s, c lo^2) - Gamma(s, c hi^2)) with s = (k + 1) / 2,
    the lower gammas taking the place of the upper ones below the peak.
    The difference cancels when lo and hi are close, so it is formed at
    raised precision until the bits it loses are covered."""
    extra = _SERIES_GUARD_BITS
    while True:
        with mp.workprec(bits + extra):
            c = 1 / (2 * mp.mpf(length_scale) ** 2)
            s = mp.mpf(k + 1) / 2
            x1, x2 = c * mp.mpf(lo) ** 2, c * mp.mpf(hi) ** 2
            if x2 <= s:
                big, small = mp.gammainc(s, 0, x2), mp.gammainc(s, 0, x1)
            else:
                big, small = mp.gammainc(s, x1), mp.gammainc(s, x2)
            diff = big - small
            if diff == 0:
                extra *= 2
                continue
            lost = mp.mag(big) - mp.mag(diff)
            if lost + _SERIES_GUARD_BITS <= extra:
                return diff / (2 * c**s)
            extra = lost + 2 * _SERIES_GUARD_BITS


def _box_damped_moment(a: float, b: float, length_scale: float, k: int, bits: int) -> mp.mpf:
    """The integral of t^k exp(-c t^2) over [a, b], c = 1 / (2 l^2), to a
    relative 2^-bits, as an mpf rounded to ``bits``.

    Flat regime x = c R^2 <= 1 (R = max(|a|, |b|)): with a' = a / R and
    b' = b / R the value is R^(k+1) sum_j t_j with
    t_j = (-x)^j (b'^p - a'^p) / (j! p), p = k + 2 j + 1.  For every sign
    pattern of a, b and k the integrals (b'^p - a'^p) / p share one sign,
    so sum_j |t_j| <= e^(2x) |sum_j t_j| and |sum| >= e^-2 |t_0|.  The
    sum is therefore taken in fixed point with ``bits`` + 16 fraction bits
    below |t_0| (t_0 exact from the binary endpoints), and stops once the
    tail bound 2 |b' - a'| x^j / j! falls below 2^-(bits+2) |sum|.
    Otherwise incomplete gamma functions with s = (k + 1) / 2: two lower
    gammas added for an even k across the origin, and one difference
    (:func:`_half_gamma`) for a one-sided box or an odd k, whose
    cancellation is covered by raised precision.  The gammas alone would
    serve every c R^2, but in the flat regime they cost 2-8 times the
    series per call, which made a whole flat sweep on [-1, 1] about 30%
    slower end to end.
    """
    if k % 2 == 1 and a == -b:
        return mp.zero
    R = max(abs(a), abs(b))
    if R * R <= 2 * length_scale * length_scale:
        # a = A / 2^e and b = B / 2^e exactly, so a' = A / Rn and b' = B / Rn
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        e = max(da, db).bit_length() - 1
        A, B = na * (1 << e) // da, nb * (1 << e) // db
        Rn = max(abs(A), abs(B))
        d0 = B ** (k + 1) - A ** (k + 1)
        F = bits + _SERIES_GUARD_BITS + 8 + max(0, (k + 1) * Rn.bit_length() - d0.bit_length())
        # X = floor(x 2^F) for x = c R^2 = (nr / dr)^2 / (2 (nl / dl)^2), exactly
        (nr, dr), (nl, dl) = R.as_integer_ratio(), length_scale.as_integer_ratio()
        X = (nr * nr * dl * dl << F) // (2 * dr * dr * nl * nl)
        a1, b1 = (A << F) // Rn, (B << F) // Rn
        a2, b2 = a1 * a1 >> F, b1 * b1 >> F
        ap, bp = a1, b1
        for _ in range(k):
            ap, bp = ap * a1 >> F, bp * b1 >> F
        width = b1 - a1  # b' - a' <= 2
        total = (d0 << F) // (Rn ** (k + 1) * (k + 1))
        coef, j = 1 << F, 0
        while True:
            j += 1
            coef = -(coef * X >> F) // j
            if coef == 0 or 2 * abs(coef) * width >> F <= abs(total) >> (bits + 2):
                break
            ap, bp = ap * a2 >> F, bp * b2 >> F
            total += coef * (bp - ap) // (k + 2 * j + 1) >> F
        with mp.workprec(bits + _SERIES_GUARD_BITS):
            out = mp.ldexp(mp.mpf(total), -F) * mp.mpf(R) ** (k + 1)
    elif a < 0 < b and k % 2 == 0:
        with mp.workprec(bits + _SERIES_GUARD_BITS):
            out = _half_gamma(k, 0.0, -a, length_scale, bits) + _half_gamma(k, 0.0, b, length_scale, bits)
    else:
        # [a, b] or its mirror image; for an odd k across the origin the
        # halves cancel except on [min(|a|, b), max(|a|, b)]
        lo, hi = sorted((abs(a), abs(b)))
        sign = 1 if a >= 0 else (-1) ** k if b <= 0 else (1 if b > -a else -1)
        with mp.workprec(bits + _SERIES_GUARD_BITS):
            out = sign * _half_gamma(k, lo, hi, length_scale, bits)
    with mp.workprec(bits):
        return +out


def _box_double_embedding(a: float, b: float, length_scale: float, bits: int) -> mp.mpf:
    """The Gaussian kernel integrated over [a, b] in both arguments,
    s^2 (sqrt(pi) u erf(u) + exp(-u^2) - 1) with s = sqrt(2) l and
    u = (b - a) / s, as an mpf rounded to ``bits``.  The bracket cancels
    like u^2 as the kernel flattens, so it is evaluated with
    32 + 2 log2(1/u) guard bits."""
    u_float = (b - a) / (math.sqrt(2) * length_scale)
    guard = 32 + max(0, 2 * math.ceil(-math.log2(u_float)))
    with mp.workprec(bits + guard):
        s = mp.sqrt(2) * mp.mpf(length_scale)
        u = (mp.mpf(b) - mp.mpf(a)) / s
        out = s * s * (mp.sqrt(mp.pi) * u * mp.erf(u) + mp.exp(-u * u) - 1)
    with mp.workprec(bits):
        return +out


def apply_functional(L: FunctionalSpec, f: Callable, prec: PrecisionConfig = MACHINE) -> Real:
    """L[f] by direct evaluation (point_eval) or tanh-sinh quadrature
    (:func:`quad1d`) to a relative 1e-10 at machine precision and for the
    numeric oracle, 2^-(bits // 2) otherwise.

    ``f`` receives a bare scalar in one dimension and a coordinate tuple
    otherwise, matching CubatureRule.apply.  Quadrature supports d <= 2,
    in two dimensions as nested 1-D quadratures, the inner ones to a tenth
    of the tolerance; higher-dimensional functionals only expose their
    closed-form operations.
    """
    with prec.workprec():
        if L.kind == "point_eval":
            x0 = prec.to_point(L.location)
            return f(x0[0]) if L.dimension == 1 else f(x0)
        if L.dimension > 2:
            raise ValueError(f"quadrature supports dimension <= 2, got {L.dimension}")
        tol = 1e-10 if L.kind == "numeric_oracle" or not prec.is_extended else 2.0 ** (-(prec.bits // 2))
        box = [(-math.inf, math.inf)] * L.dimension if L.kind == "gaussian_measure" else list(zip(L.lower, L.upper))
        # the normal density c exp(-|t|^2 / 2), its constant (2 pi)^(-d/2) formed once
        c = (2 * rpi(prec.to_real(1))) ** (-prec.to_real(L.dimension) / 2)

        def g(*t):
            x = t[0] if L.dimension == 1 else t
            value = f(x) * L.density(x) if L.kind == "numeric_oracle" else f(x)
            return value * (c * rexp(-sq_norm(t) / 2)) if L.kind == "gaussian_measure" else value

        if L.dimension == 1:
            return quad1d(g, *box[0], prec, tol)
        (ax, bx), (ay, by) = box
        return quad1d(lambda x: quad1d(lambda y: g(x, y), ay, by, prec, tol / 10), ax, bx, prec, tol)


def moment(L: FunctionalSpec, alpha: MultiIndex, prec: PrecisionConfig = MACHINE) -> Real:
    """L[x^alpha].

    Closed forms: monomial value (point_eval), per-axis power-rule integrals
    (lebesgue_box), and products of double factorials for the Gaussian
    measure, whose odd moments vanish.  The numeric oracle integrates.
    """
    if alpha.dimension != L.dimension:
        raise ValueError(f"multi-index dimension {alpha.dimension} != functional dimension {L.dimension}")
    with prec.workprec():
        if L.kind == "point_eval":
            return monomial_eval(prec.to_point(L.location), alpha)
        if L.kind == "lebesgue_box":
            out = prec.to_real(1)
            for a, b, k in zip(L.lower, L.upper, alpha):
                ar, br = prec.to_real(a), prec.to_real(b)
                out = out * (br ** (k + 1) - ar ** (k + 1)) / (k + 1)
            return out
        if L.kind == "gaussian_measure":
            if any(k % 2 == 1 for k in alpha):
                return prec.to_real(0)
            out = 1
            for k in alpha:
                out *= _odd_double_factorial(k)
            return prec.to_real(out)
        return apply_functional(L, _monomial_fn(alpha), prec)


def _monomial_fn(alpha: MultiIndex):
    if alpha.dimension == 1:
        return lambda t: t ** alpha[0]
    return lambda p: monomial_eval(p, alpha)


def _row_damped_moments(L: FunctionalSpec, length_scale: float, alphas, prec: PrecisionConfig) -> list:
    """The damped moments L[phi_alpha] of ``alphas``, under the Gaussian
    measure with v = l^2 / (1 + l^2) formed once for the row."""
    for alpha in alphas:
        if alpha.dimension != L.dimension:
            raise ValueError(f"multi-index dimension {alpha.dimension} != functional dimension {L.dimension}")
    with prec.workprec():
        if L.kind == "point_eval":
            return [phi_basis_eval(length_scale, alpha, L.location, prec) for alpha in alphas]
        if L.kind == "gaussian_measure":
            ell = prec.to_real(length_scale)
            v = ell * ell / (1 + ell * ell)
            out = []
            for alpha in alphas:
                if any(k % 2 == 1 for k in alpha):
                    out.append(prec.to_real(0))
                    continue
                dd = 1
                for k in alpha:
                    dd *= _odd_double_factorial(k)
                out.append(v ** (prec.to_real(L.dimension + alpha.degree()) / 2) * dd)
            return out
        if L.kind == "lebesgue_box":
            out = []
            for alpha in alphas:
                value = prec.to_real(1)
                for a, b, k in zip(L.lower, L.upper, alpha):
                    value = value * prec.to_real(_box_damped_moment(a, b, length_scale, k, prec.bits))
                out.append(value)
            return out
        return [apply_functional(L, lambda t: phi_basis_eval(length_scale, alpha, t, prec), prec) for alpha in alphas]


def damped_moment(
    L: FunctionalSpec,
    length_scale: float,
    alpha: MultiIndex,
    prec: PrecisionConfig = MACHINE,
) -> Real:
    """L[phi_alpha] for the damped monomial phi_alpha(x) = exp(-|x|^2/(2 l^2)) x^alpha,
    one moment of :func:`_row_damped_moments`.

    Gaussian measure: with v = l^2 / (1 + l^2) the value is
    v^((d + |alpha|)/2) * prod_i (alpha_i - 1)!!  for all-even alpha, zero
    otherwise.  Boxes factorize into one closed form per axis (a series
    in the power moments in the flat regime, incomplete gamma functions
    otherwise; see :func:`_box_damped_moment`).  The numeric oracle
    integrates.
    """
    return _row_damped_moments(L, _length_scale(length_scale), [alpha], prec)[0]


def _row_embeddings(L: FunctionalSpec, length_scale: float, points, prec: PrecisionConfig) -> list:
    """The embeddings z(x) = L[K(., x)] of ``points``, the factors the
    closed forms share formed once: under the Gaussian measure v^(d/2) and
    2 (1 + l^2), with one exp per distinct exponent; on a box sqrt(2) l,
    the scale and the endpoints, with one extended erf per distinct
    magnitude, so nodes mirrored about 0 share theirs."""
    with prec.workprec():
        if L.kind == "point_eval":
            return [kernel_eval(length_scale, L.location, x, prec) for x in points]
        xs = _as_points(points, prec)
        for xv in xs:
            if len(xv) != L.dimension:
                raise ValueError(f"point dimension {len(xv)} != functional dimension {L.dimension}")
        ell = prec.to_real(length_scale)
        if L.kind == "gaussian_measure":
            c = (ell * ell / (1 + ell * ell)) ** (prec.to_real(L.dimension) / 2)
            den, values = 2 * (1 + ell * ell), {}
            return [c * rexp_once(-sq_norm(xv) / den, values) for xv in xs]
        if L.kind == "lebesgue_box":
            box = list(zip(prec.to_point(L.lower), prec.to_point(L.upper)))
            s, scale, out, erfs = rsqrt(prec.to_real(2)) * ell, ell * rsqrt(rpi(ell) / 2), [], {}
            for xv in xs:
                z = prec.to_real(1)
                for (a, b), xi in zip(box, xv):
                    z = z * scale * (rerf_once((b - xi) / s, erfs) - rerf_once((a - xi) / s, erfs))
                out.append(z)
            return out
        targets = [xv[0] for xv in xs] if L.dimension == 1 else xs
        return [apply_functional(L, lambda t: kernel_eval(length_scale, t, y, prec), prec) for y in targets]


def kernel_embedding(
    L: FunctionalSpec,
    length_scale: float,
    x,
    prec: PrecisionConfig = MACHINE,
) -> Real:
    """The embedding z(x) = L[K(., x)], one point of :func:`_row_embeddings`.

    Closed forms cover point evaluation (a kernel value), the Gaussian
    measure and a box; the numeric oracle uses tanh-sinh quadrature.
    """
    return _row_embeddings(L, _length_scale(length_scale), [x], prec)[0]


def double_embedding(L: FunctionalSpec, length_scale: float, prec: PrecisionConfig = MACHINE) -> Real:
    """The initial worst-case-error term L (x) L [K], the kernel integrated
    by the functional in both arguments.

    The Gaussian measure has the closed form (l^2 / (2 + l^2))^(d/2).  A
    box factorizes into one closed form per axis,
    s^2 (sqrt(pi) u erf(u) + exp(-u^2) - 1), evaluated with guard bits for
    its cancellation (see :func:`_box_double_embedding`).  The numeric
    oracle integrates the embedding function.
    """
    length_scale = _length_scale(length_scale)
    with prec.workprec():
        if L.kind == "point_eval":
            return kernel_eval(length_scale, L.location, L.location, prec)
        if L.kind == "gaussian_measure":
            ell = prec.to_real(length_scale)
            v = ell * ell / (2 + ell * ell)
            return v ** (prec.to_real(L.dimension) / 2)
        if L.kind == "lebesgue_box":
            out = prec.to_real(1)
            for a, b in zip(L.lower, L.upper):
                out = out * prec.to_real(_box_double_embedding(a, b, length_scale, prec.bits))
            return out
        z = lambda t: kernel_embedding(L, length_scale, t, prec)
        return apply_functional(L, z, prec)

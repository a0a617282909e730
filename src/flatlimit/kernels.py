"""Positive-definite kernels with a length scale.

Families: the Gaussian kernel in any dimension, two one-dimensional Taylor
kernels (exponential and Szego), and the generic damped power series
form that subsumes all three,

    K(x, y) = G(|x|/l) G(|y|/l) sum_alpha w_alpha / (alpha!)^2 / l^(q|alpha|)
              * x^alpha y^alpha ,

with damping G, growth exponent q and positive series weights w_alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from mpmath import mp
from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_neg, mpf_sub

from .core import (
    MACHINE,
    MultiIndex,
    PointSet,
    PrecisionConfig,
    Real,
    degree_compositions,
    monomial_eval,
    rexp,
    sq_dist,
    sq_norm,
)
from .errors import KernelDomainError, SeriesConvergenceError

_FAMILIES = ("gaussian", "exponential", "szego", "damped_power_series")


@dataclass(frozen=True)
class DampedSeriesParams:
    """Parameters of the damped power series form.

    ``damping`` is "gaussian" for G(r) = exp(-r^2/2) or "none" for G = 1.
    ``weights`` maps a MultiIndex to the positive series weight w_alpha.
    The series is summed to a tolerance of 1e-14 at machine precision and
    2^(-bits/2) extended, up to ``max_degree`` or the ratio test's bound.
    """

    damping: str
    exponent: float
    weights: Callable[[MultiIndex], float]
    max_degree: int = 200

    def __post_init__(self) -> None:
        if self.damping not in ("gaussian", "none"):
            raise ValueError(f"damping must be 'gaussian' or 'none', got {self.damping!r}")
        if not self.exponent > 0:
            raise ValueError(f"series exponent must be positive, got {self.exponent}")
        if self.max_degree < 2:
            raise ValueError("max_degree must be at least 2")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its length scale."""

    family: str
    length_scale: float
    series: Optional[DampedSeriesParams] = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        ls = self.length_scale
        if not (isinstance(ls, (int, float)) and math.isfinite(ls) and ls > 0):
            raise ValueError(f"length_scale must be positive and finite, got {ls!r}")
        if self.family == "damped_power_series" and self.series is None:
            raise ValueError("damped_power_series requires series parameters")

    @classmethod
    def gaussian(cls, length_scale: float) -> "KernelSpec":
        return cls("gaussian", float(length_scale))

    @classmethod
    def exponential(cls, length_scale: float) -> "KernelSpec":
        """exp(x y / l), one-dimensional (series weights n!, q = 1)."""
        return cls("exponential", float(length_scale))

    @classmethod
    def szego(cls, length_scale: float) -> "KernelSpec":
        """l^2 / (l^2 - x y), one-dimensional (series weights (n!)^2, q = 2);
        defined only for |x y| < l^2."""
        return cls("szego", float(length_scale))

    @classmethod
    def damped_power_series(
        cls,
        length_scale: float,
        damping: str,
        exponent: float,
        weights: Callable[[MultiIndex], float],
        max_degree: int = 200,
    ) -> "KernelSpec":
        params = DampedSeriesParams(damping, float(exponent), weights, max_degree)
        return cls("damped_power_series", float(length_scale), params)


def _as_point(x, prec: PrecisionConfig) -> tuple[Real, ...]:
    if isinstance(x, (int, float)) or isinstance(x, mp.mpf):
        return (prec.to_real(x),)
    return tuple(prec.to_real(c) for c in x)


def _series_value(spec: KernelSpec, x: Sequence[Real], y: Sequence[Real], prec: PrecisionConfig) -> Real:
    """Sum the power series degree by degree, in mpmath at ``prec.bits``
    (53 in machine mode).  mpf has no exponent range to leave, so a
    weight, a factorial or a power of x y or l may pass the float64 range
    while the term they form does not; a machine-mode term or value
    that does pass it raises SeriesConvergenceError.

    Stops once the geometric tail estimate from the last two nonzero terms
    drops below tolerance, or once two consecutive degree terms vanish
    exactly (which for the built-in weight families means the exact tail is
    zero).  The heuristic presumes eventually decaying terms, which holds on
    the domain of every built-in family.  It gives up past ``max_degree``
    unless the pair of terms there decays (ratio r < 1); then it extends
    once, to the degree where that estimate, falling by r a degree, drops
    below tolerance.
    """
    params = spec.series
    assert params is not None
    machine = not prec.is_extended

    def in_float_range(value, what: str):
        if math.isinf(float(value)):
            raise SeriesConvergenceError(
                f"{what} of the power series is past the float64 range (length_scale={spec.length_scale})"
            )
        return value

    with mp.workprec(prec.bits):
        ell = mp.mpf(spec.length_scale)
        tol = mp.mpf(1e-14 if machine else 2.0 ** (-prec.bits // 2))
        u = tuple(mp.mpf(a) * mp.mpf(b) for a, b in zip(x, y))
        total = mp.zero
        prev_abs: Optional[Real] = None
        converged = False
        cap, deg = params.max_degree, -1
        while not converged and deg < cap:
            deg += 1
            term = mp.zero
            scale = ell ** (-params.exponent * deg)
            for comp in degree_compositions(len(x), deg):
                alpha = MultiIndex(comp)
                coeff = mp.mpf(params.weights(alpha)) / mp.mpf(alpha.factorial()) ** 2
                term = term + coeff * monomial_eval(u, alpha)
            term = term * scale
            if machine:
                in_float_range(term, f"the term of degree {deg}")
            total = total + term
            t = abs(term)
            if deg >= 1:
                tol_abs = tol * max(mp.one, abs(total))
                if prev_abs is not None and prev_abs > 0 and t > 0:
                    r = t / prev_abs
                    if r < 1 and t * r / (1 - r) < tol_abs:
                        converged = True
                    elif r < 1 and deg == params.max_degree:  # the estimate falls by r a degree
                        with mp.workprec(53):
                            cap += int(mp.ceil(mp.log(tol_abs * (1 - r) / (t * r), r)))
                if prev_abs == 0 and t == 0 and deg >= 2:
                    converged = True
            prev_abs = t
        if not converged:
            raise SeriesConvergenceError(
                f"power series did not converge within degree {cap} "
                f"(length_scale={spec.length_scale}); increase max_degree or the length scale"
            )
        if params.damping == "gaussian":
            gx, gy = (mp.exp(-sq_norm(p) / (2 * ell * ell)) for p in (x, y))
            total = gx * gy * total
        return float(in_float_range(total, "the value")) if machine else total


def _gaussian_value(x: Sequence, y: Sequence, den: tuple, values: dict, prec: int, rnd: str) -> mp.mpf:
    """exp(-|x - y|^2 / den) of mpf coordinates and a raw mpf den = 2 l^2, with the roundings of
    rexp(-sq_dist(x, y) / den) (the squared distance summed left to right) made on raw mpf; exp
    runs once per exponent not yet in ``values``, which maps each exponent to its value."""
    total = fzero
    for a, b in zip(x, y):
        d = mpf_sub(a._mpf_, b._mpf_, prec, rnd)
        total = mpf_add(total, mpf_mul(d, d, prec, rnd), prec, rnd)
    e = mpf_div(mpf_neg(total, prec, rnd), den, prec, rnd)
    if e not in values:
        values[e] = mp.make_mpf(mpf_exp(e, prec, rnd))
    return values[e]


def _kernel_value(spec: KernelSpec, xv: Sequence[Real], yv: Sequence[Real], ell: Real, prec: PrecisionConfig) -> Real:
    """K(x, y) of points and a length scale already converted to the
    working type, inside the working precision."""
    if len(xv) != len(yv):
        raise ValueError(f"points have dimensions {len(xv)} and {len(yv)}")
    if spec.family == "gaussian":
        if isinstance(ell, float):
            return math.exp(-sq_dist(xv, yv) / (2 * ell * ell))
        return _gaussian_value(xv, yv, (2 * ell * ell)._mpf_, {}, *mp._prec_rounding)
    if spec.family == "exponential":
        if len(xv) != 1:
            raise ValueError("exponential kernel is one-dimensional")
        return rexp(xv[0] * yv[0] / ell)
    if spec.family == "szego":
        if len(xv) != 1:
            raise ValueError("szego kernel is one-dimensional")
        p = xv[0] * yv[0]
        if abs(p) >= ell * ell:
            raise KernelDomainError(
                f"szego kernel needs |x*y| < l^2, got |{float(p)!r}| with l^2={spec.length_scale ** 2!r}"
            )
        return ell * ell / (ell * ell - p)
    return _series_value(spec, xv, yv, prec)


def kernel_eval(spec: KernelSpec, x, y, prec: PrecisionConfig = MACHINE) -> Real:
    """K(x, y) at the working precision.

    Accepts bare scalars for one-dimensional points.  Raises
    KernelDomainError for the Szego family when |x y| >= l^2.
    """
    with prec.workprec():
        return _kernel_value(spec, _as_point(x, prec), _as_point(y, prec), prec.to_real(spec.length_scale), prec)


def gram_matrix(spec: KernelSpec, points: PointSet, prec: PrecisionConfig = MACHINE):
    """Kernel matrix G[i, j] = K(x_i, x_j) as a list of rows.

    The entries are floats at machine precision and mpf at extended
    precision, filled at ``prec.bits`` (53 in machine mode), so they are
    those of :func:`kernel_eval` whatever mpmath's precision is.  The
    points and the length scale are converted once; only the upper
    triangle is evaluated and the lower is mirrored, so the result is
    exactly symmetric.  The extended Gaussian Gram forms 2 l^2 once and
    each exponent as :func:`kernel_eval` does, on raw mpf tuples, and takes
    exp once per distinct exponent (3 of the 6 entries of {-1, 0, 1}).
    """
    n = len(points)
    with mp.workprec(prec.bits):  # prec.workprec(), but 53 bits in machine mode
        xs = [_as_point(x, prec) for x in points]
        ell = prec.to_real(spec.length_scale)
        out = [[None] * n for _ in range(n)]
        entry = lambda x, y: _kernel_value(spec, x, y, ell, prec)
        if spec.family == "gaussian" and prec.is_extended:
            den, values = (2 * ell * ell)._mpf_, {}
            entry = lambda x, y: _gaussian_value(x, y, den, values, *mp._prec_rounding)
        for i in range(n):
            for j in range(i, n):
                out[i][j] = out[j][i] = entry(xs[i], xs[j])
        return out


def phi_basis_eval(length_scale: float, alpha: MultiIndex, x, prec: PrecisionConfig = MACHINE) -> Real:
    """Damped monomial  exp(-|x|^2 / (2 l^2)) x^alpha.

    These span the same space as the monomials up to any fixed degree and
    stay uniformly bounded as the length scale grows.
    """
    with prec.workprec():
        xv = _as_point(x, prec)
        if len(xv) != alpha.dimension:
            raise ValueError(f"point has dimension {len(xv)}, multi-index {alpha.dimension}")
        ell = prec.to_real(length_scale)
        return rexp(-sq_norm(xv) / (2 * ell * ell)) * monomial_eval(xv, alpha)

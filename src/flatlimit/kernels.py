"""The Gaussian kernel K(x, y) = exp(-|x - y|^2 / (2 l^2)) in any
dimension, given by its length scale l alone (:func:`core._length_scale`):
its values, its Gram matrix and the damped monomials
exp(-|x|^2 / (2 l^2)) x^alpha through which its RKHS is described.
"""
from __future__ import annotations

import math
from typing import Sequence

from mpmath import mp
from mpmath.libmp import from_float, fzero, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_mul_int, mpf_neg, mpf_sub

from .core import (
    MACHINE,
    MultiIndex,
    PointSet,
    PrecisionConfig,
    Real,
    _length_scale,
    monomial_eval,
    rexp,
    sq_dist,
    sq_norm,
)


def _as_point(x, prec: PrecisionConfig) -> tuple[Real, ...]:
    if isinstance(x, (int, float)) or isinstance(x, mp.mpf):
        return (prec.to_real(x),)
    return tuple(prec.to_real(c) for c in x)


def _as_points(points, prec: PrecisionConfig) -> Sequence[tuple[Real, ...]]:
    """The points of a :class:`PointSet` or a sequence in the working type, inside the
    working precision; the extended lane reads a PointSet's own mpf (:meth:`PointSet.mpf_points`)."""
    if prec.is_extended and isinstance(points, PointSet):
        return points.mpf_points()
    return [_as_point(x, prec) for x in points]


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


def _kernel_value(xv: Sequence[Real], yv: Sequence[Real], ell: Real) -> Real:
    """K(x, y) of points and a length scale already converted to the
    working type, inside the working precision."""
    if len(xv) != len(yv):
        raise ValueError(f"points have dimensions {len(xv)} and {len(yv)}")
    if isinstance(ell, float):
        return math.exp(-sq_dist(xv, yv) / (2 * ell * ell))
    return _gaussian_value(xv, yv, (2 * ell * ell)._mpf_, {}, *mp._prec_rounding)


def kernel_eval(length_scale: float, x, y, prec: PrecisionConfig = MACHINE) -> Real:
    """K(x, y) at the working precision.

    Accepts bare scalars for one-dimensional points.
    """
    with prec.workprec():
        return _kernel_value(_as_point(x, prec), _as_point(y, prec), prec.to_real(_length_scale(length_scale)))


def gram_matrix(length_scale: float, points: PointSet, prec: PrecisionConfig = MACHINE):
    """Kernel matrix G[i, j] = K(x_i, x_j) as a list of rows.

    The entries are floats at machine precision and mpf at extended
    precision, filled at ``prec.bits`` (53 in machine mode), so they are
    those of :func:`kernel_eval` whatever mpmath's precision is.  Only the
    upper triangle is evaluated and the lower is mirrored, so the result is
    exactly symmetric.  The extended Gram enters no precision: it reads the
    points' mpf from :meth:`PointSet.mpf_points`, forms 2 l^2 once and each
    exponent as :func:`kernel_eval` does, on raw mpf tuples at ``prec.bits``,
    and takes exp once per distinct exponent (3 of the 6 entries of
    {-1, 0, 1}).
    """
    n = len(points)
    ell = _length_scale(length_scale)
    out = [[None] * n for _ in range(n)]
    if prec.is_extended:
        bits, rnd = prec.bits, mp._prec_rounding[1]
        xs, e = points.mpf_points(), from_float(ell)
        den, values = mpf_mul(mpf_mul_int(e, 2, bits, rnd), e, bits, rnd), {}  # the roundings of 2 * l * l
        entry = lambda x, y: _gaussian_value(x, y, den, values, bits, rnd)
    else:
        xs = [_as_point(x, prec) for x in points]
        entry = lambda x, y: _kernel_value(x, y, ell)
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
        ell = prec.to_real(_length_scale(length_scale))
        return rexp(-sq_norm(xv) / (2 * ell * ell)) * monomial_eval(xv, alpha)

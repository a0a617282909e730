"""Positive-definite kernels with a length scale.

Families: the Gaussian kernel in any dimension, two one-dimensional Taylor
kernels (exponential and Szego), and the generic damped power series
form that subsumes all three,

    K(x, y) = G(|x|/l) G(|y|/l) sum_alpha w_alpha / (alpha!)^2 / l^(q|alpha|)
              * x^alpha y^alpha ,

with damping G, growth exponent q and positive series weights w_alpha.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from mpmath import mp

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
    ``tolerance`` of None defers to the precision default (1e-14 at machine
    precision, 2^(-bits/2) in extended mode).
    """

    damping: str
    exponent: float
    weights: Callable[[MultiIndex], float]
    tolerance: Optional[float] = None
    max_degree: int = 200

    def __post_init__(self) -> None:
        if self.damping not in ("gaussian", "none"):
            raise ValueError(f"damping must be 'gaussian' or 'none', got {self.damping!r}")
        if not self.exponent > 0:
            raise ValueError(f"series exponent must be positive, got {self.exponent}")
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError("series tolerance must be positive")
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
        if not (isinstance(ls, (int, float)) and np.isfinite(ls) and ls > 0):
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
        tolerance: Optional[float] = None,
        max_degree: int = 200,
    ) -> "KernelSpec":
        params = DampedSeriesParams(damping, float(exponent), weights, tolerance, max_degree)
        return cls("damped_power_series", float(length_scale), params)


def _as_point(x, prec: PrecisionConfig) -> tuple[Real, ...]:
    if isinstance(x, (int, float)) or isinstance(x, mp.mpf):
        return (prec.to_real(x),)
    return tuple(prec.to_real(c) for c in x)


def _damping_value(kind: str, x: Sequence[Real], ell: Real) -> Real:
    if kind == "none":
        return 1.0 if isinstance(ell, float) else mp.mpf(1)
    return rexp(-sq_norm(x) / (2 * ell * ell))


def _series_value(spec: KernelSpec, x: Sequence[Real], y: Sequence[Real], prec: PrecisionConfig) -> Real:
    """Sum the power series degree by degree.

    Stops once the geometric tail estimate from the last two nonzero terms
    drops below tolerance, or once two consecutive degree terms vanish
    exactly (which for the built-in weight families means the exact tail is
    zero).  The heuristic presumes eventually decaying terms, which holds on
    the domain of every built-in family.
    """
    params = spec.series
    assert params is not None
    ell = prec.to_real(spec.length_scale)
    d = len(x)
    tol = params.tolerance
    if tol is None:
        tol = 1e-14 if not prec.is_extended else 2.0 ** (-prec.bits // 2)
    tol = prec.to_real(tol)

    u = tuple(a * b for a, b in zip(x, y))
    total = prec.to_real(0)
    prev_abs: Optional[Real] = None
    converged = False
    for deg in range(params.max_degree + 1):
        term = prec.to_real(0)
        scale = ell ** (-params.exponent * deg)
        for comp in degree_compositions(d, deg):
            alpha = MultiIndex(comp)
            coeff = prec.to_real(params.weights(alpha)) / prec.to_real(alpha.factorial()) ** 2
            term = term + coeff * monomial_eval(u, alpha)
        term = term * scale
        total = total + term
        t = abs(term)
        if deg >= 1:
            tol_abs = tol * max(prec.to_real(1), abs(total))
            if prev_abs is not None and prev_abs > 0 and t > 0:
                r = t / prev_abs
                if r < 1 and t * r / (1 - r) < tol_abs:
                    converged = True
                    break
            if prev_abs == 0 and t == 0 and deg >= 2:
                converged = True
                break
        prev_abs = t
    if not converged:
        raise SeriesConvergenceError(
            f"power series did not converge within degree {params.max_degree} "
            f"(length_scale={spec.length_scale}); increase max_degree or the length scale"
        )
    gx = _damping_value(params.damping, x, ell)
    gy = _damping_value(params.damping, y, ell)
    return gx * gy * total


def kernel_eval(spec: KernelSpec, x, y, prec: PrecisionConfig = MACHINE) -> Real:
    """K(x, y) at the working precision.

    Accepts bare scalars for one-dimensional points.  Raises
    KernelDomainError for the Szego family when |x y| >= l^2.
    """
    with prec.workprec():
        xv = _as_point(x, prec)
        yv = _as_point(y, prec)
        if len(xv) != len(yv):
            raise ValueError(f"points have dimensions {len(xv)} and {len(yv)}")
        ell = prec.to_real(spec.length_scale)
        if spec.family == "gaussian":
            return rexp(-sq_dist(xv, yv) / (2 * ell * ell))
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


def gram_matrix(spec: KernelSpec, points: PointSet, prec: PrecisionConfig = MACHINE):
    """Kernel matrix G[i, j] = K(x_i, x_j).

    Returns a float64 numpy array at machine precision and an mpmath matrix
    in extended mode.  Only the upper triangle is evaluated; the lower is
    mirrored, so the result is exactly symmetric.
    """
    n = len(points)
    with prec.workprec():
        out = prec._matrix(n, n)
        for i in range(n):
            for j in range(i, n):
                v = kernel_eval(spec, points[i], points[j], prec)
                out[i, j] = v
                out[j, i] = v
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

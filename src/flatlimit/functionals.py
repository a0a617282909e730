"""Linear functionals that cubature rules approximate, and their
interactions with kernels: moments, damped moments, kernel embeddings.

Four kinds are supported: point evaluation, integration over a bounded box,
integration against the standard Gaussian measure, and a user-supplied
density on a box ("numeric oracle", evaluated only by adaptive quadrature).
Closed forms are used wherever available; everything else goes through
adaptive quadrature with an explicit tolerance and budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from mpmath import mp

from .core import (
    MACHINE,
    MultiIndex,
    PrecisionConfig,
    Real,
    monomial_eval,
    rerf,
    rexp,
    rpi,
    rsqrt,
    sq_norm,
)
from .errors import QuadratureError
from .kernels import KernelSpec, kernel_eval, phi_basis_eval

_KINDS = ("point_eval", "lebesgue_box", "gaussian_measure", "numeric_oracle")


@dataclass(frozen=True)
class FunctionalSpec:
    """A continuous linear functional L on functions over R^d.

    kind "point_eval":       L[f] = f(location)
    kind "lebesgue_box":     L[f] = integral of f over [lower, upper]
    kind "gaussian_measure": L[f] = integral of f against N(0, I_d)
    kind "numeric_oracle":   L[f] = integral of f * density over [lower, upper]

    The numeric oracle carries its own quadrature tolerance and subdivision
    budget; its standing assumptions (continuity, integrability of the
    density) cannot be checked mechanically, which :attr:`assumptions_checked`
    reports.
    """

    kind: str
    dimension: int
    location: Optional[tuple[float, ...]] = None
    lower: Optional[tuple[float, ...]] = None
    upper: Optional[tuple[float, ...]] = None
    density: Optional[Callable] = None
    rel_tol: float = 1e-10
    subdivision_budget: int = 200

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.kind == "point_eval":
            if self.location is None or len(self.location) != self.dimension:
                raise ValueError("point_eval needs a location of matching dimension")
            if not all(math.isfinite(c) for c in self.location):
                raise ValueError("point_eval location must be finite")
        if self.kind in ("lebesgue_box", "numeric_oracle"):
            if self.lower is None or self.upper is None:
                raise ValueError(f"{self.kind} needs lower and upper bounds")
            if len(self.lower) != self.dimension or len(self.upper) != self.dimension:
                raise ValueError("box bounds must match the dimension")
            for a, b in zip(self.lower, self.upper):
                if not (math.isfinite(a) and math.isfinite(b) and a < b):
                    raise ValueError(f"box bounds must be finite with lower < upper, got [{a}, {b}]")
        if self.kind == "numeric_oracle":
            if self.density is None:
                raise ValueError("numeric_oracle needs a density callable")
            if not self.rel_tol > 0:
                raise ValueError("rel_tol must be positive")
            if self.subdivision_budget < 10:
                raise ValueError("subdivision_budget must be at least 10")

    @classmethod
    def point_eval(cls, location) -> "FunctionalSpec":
        if isinstance(location, (int, float)):
            location = (float(location),)
        else:
            location = tuple(float(c) for c in location)
        return cls("point_eval", len(location), location=location)

    @classmethod
    def lebesgue_box(cls, lower, upper) -> "FunctionalSpec":
        if isinstance(lower, (int, float)):
            lower = (float(lower),)
        else:
            lower = tuple(float(c) for c in lower)
        if isinstance(upper, (int, float)):
            upper = (float(upper),)
        else:
            upper = tuple(float(c) for c in upper)
        return cls("lebesgue_box", len(lower), lower=lower, upper=upper)

    @classmethod
    def gaussian_measure(cls, dimension: int = 1) -> "FunctionalSpec":
        return cls("gaussian_measure", dimension)

    @classmethod
    def numeric_oracle(
        cls,
        density: Callable,
        lower,
        upper,
        rel_tol: float = 1e-10,
        subdivision_budget: int = 200,
    ) -> "FunctionalSpec":
        if isinstance(lower, (int, float)):
            lower = (float(lower),)
        else:
            lower = tuple(float(c) for c in lower)
        if isinstance(upper, (int, float)):
            upper = (float(upper),)
        else:
            upper = tuple(float(c) for c in upper)
        return cls(
            "numeric_oracle",
            len(lower),
            lower=lower,
            upper=upper,
            density=density,
            rel_tol=rel_tol,
            subdivision_budget=subdivision_budget,
        )

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


def _quad_tols(L: FunctionalSpec, prec: PrecisionConfig, rel_tol: Optional[float]) -> float:
    if rel_tol is not None:
        return rel_tol
    if L.kind == "numeric_oracle":
        return L.rel_tol
    return 1e-10 if not prec.is_extended else 2.0 ** (-(prec.bits // 2))


def quad1d(
    f: Callable[[Real], Real],
    a: float,
    b: float,
    prec: PrecisionConfig = MACHINE,
    rel_tol: float = 1e-10,
    budget: int = 200,
) -> Real:
    """Adaptive integral of f over (a, b); the endpoints may be infinite.

    Machine mode uses QUADPACK, extended mode tanh-sinh quadrature at the
    working precision.  Raises QuadratureError when the error estimate
    cannot be pushed below tolerance within the budget.
    """
    if prec.is_extended:
        with prec.workprec():
            lo = mp.mpf(a) if math.isfinite(a) else mp.inf * (1 if a > 0 else -1)
            hi = mp.mpf(b) if math.isfinite(b) else mp.inf * (1 if b > 0 else -1)
            val, err = mp.quad(f, [lo, hi], error=True)
            bound = mp.mpf(rel_tol) * max(mp.mpf(1), abs(val))
            if not err <= bound:
                raise QuadratureError(
                    f"tanh-sinh error estimate {mp.nstr(err, 8)} above tolerance {mp.nstr(bound, 8)}"
                )
            return val
    import scipy.integrate  # deferred: only the machine lane needs QUADPACK

    out = scipy.integrate.quad(f, a, b, epsabs=1e-14, epsrel=rel_tol, limit=budget, full_output=1)
    val_f, err_f = out[0], out[1]
    # QUADPACK warning messages are advisory; what matters is whether the
    # reported error estimate meets the tolerance
    if not err_f <= 10 * max(1e-14, rel_tol * abs(val_f)):
        detail = f": {out[3]}" if len(out) > 3 else ""
        raise QuadratureError(f"quadrature error estimate {err_f:.3e} above tolerance{detail}")
    return val_f


def _quad2d(f, ax, bx, ay, by, prec, rel_tol, budget) -> Real:
    """Nested 1-D adaptive quadrature over a (possibly unbounded) rectangle."""
    inner_tol = rel_tol / 10

    def outer(x):
        return quad1d(lambda y: f(x, y), ay, by, prec, inner_tol, budget)

    return quad1d(outer, ax, bx, prec, rel_tol, budget)


def _gauss_weight_1d(t: Real) -> Real:
    return rexp(-t * t / 2) / rsqrt(2 * rpi(t))


def apply_functional(
    L: FunctionalSpec,
    f: Callable,
    prec: PrecisionConfig = MACHINE,
    rel_tol: Optional[float] = None,
) -> Real:
    """L[f] by direct evaluation (point_eval) or adaptive quadrature.

    ``f`` receives a bare scalar in one dimension and a coordinate tuple
    otherwise, matching CubatureRule.apply.  Quadrature supports d <= 2;
    higher-dimensional functionals only expose their closed-form operations.
    """
    with prec.workprec():
        if L.kind == "point_eval":
            x0 = prec.to_point(L.location)
            return f(x0[0]) if L.dimension == 1 else f(x0)
        tol = _quad_tols(L, prec, rel_tol)
        budget = L.subdivision_budget
        if L.kind == "lebesgue_box":
            lo, hi = L.lower, L.upper
            weight = None
        elif L.kind == "gaussian_measure":
            lo = (-math.inf,) * L.dimension
            hi = (math.inf,) * L.dimension
            weight = _gauss_weight_1d
        else:
            lo, hi = L.lower, L.upper
            weight = None
        if L.dimension == 1:
            if L.kind == "numeric_oracle":
                g = lambda t: f(t) * L.density(t)
            elif weight is None:
                g = f
            else:
                g = lambda t: f(t) * weight(t)
            return quad1d(g, lo[0], hi[0], prec, tol, budget)
        if L.dimension == 2:
            if L.kind == "numeric_oracle":
                g2 = lambda s, t: f((s, t)) * L.density((s, t))
            elif weight is None:
                g2 = lambda s, t: f((s, t))
            else:
                g2 = lambda s, t: f((s, t)) * weight(s) * weight(t)
            return _quad2d(g2, lo[0], hi[0], lo[1], hi[1], prec, tol, budget)
        raise ValueError(f"adaptive quadrature supports dimension <= 2, got {L.dimension}")


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


def damped_moment(
    L: FunctionalSpec,
    length_scale: float,
    alpha: MultiIndex,
    prec: PrecisionConfig = MACHINE,
) -> Real:
    """L[phi_alpha] for the damped monomial phi_alpha(x) = exp(-|x|^2/(2 l^2)) x^alpha.

    Gaussian measure: with v = l^2 / (1 + l^2) the value is
    v^((d + |alpha|)/2) * prod_i (alpha_i - 1)!!  for all-even alpha, zero
    otherwise.  Bounded boxes integrate per axis (the integrand factorizes).
    """
    if alpha.dimension != L.dimension:
        raise ValueError(f"multi-index dimension {alpha.dimension} != functional dimension {L.dimension}")
    with prec.workprec():
        ell = prec.to_real(length_scale)
        if L.kind == "point_eval":
            return phi_basis_eval(length_scale, alpha, L.location, prec)
        if L.kind == "gaussian_measure":
            if any(k % 2 == 1 for k in alpha):
                return prec.to_real(0)
            v = ell * ell / (1 + ell * ell)
            dd = 1
            for k in alpha:
                dd *= _odd_double_factorial(k)
            return v ** (prec.to_real(L.dimension + alpha.degree()) / 2) * dd
        if L.kind == "lebesgue_box":
            tol = _quad_tols(L, prec, None)
            out = prec.to_real(1)
            for a, b, k in zip(L.lower, L.upper, alpha):
                g = lambda t, k=k: t ** k * rexp(-t * t / (2 * ell * ell))
                out = out * quad1d(g, a, b, prec, tol, L.subdivision_budget)
            return out
        phi = lambda t: phi_basis_eval(length_scale, alpha, t, prec)
        return apply_functional(L, phi, prec)


def kernel_embedding(
    L: FunctionalSpec,
    spec: KernelSpec,
    x,
    prec: PrecisionConfig = MACHINE,
) -> Real:
    """The embedding z(x) = L[K(., x)].

    Closed forms cover point evaluation (a kernel value) and the Gaussian
    kernel against the Gaussian measure or a box; other combinations use
    adaptive quadrature.
    """
    with prec.workprec():
        if L.kind == "point_eval":
            return kernel_eval(spec, L.location, x, prec)
        if isinstance(x, (int, float)) or isinstance(x, mp.mpf):
            xv = (prec.to_real(x),)
        else:
            xv = tuple(prec.to_real(c) for c in x)
        if len(xv) != L.dimension:
            raise ValueError(f"point dimension {len(xv)} != functional dimension {L.dimension}")
        ell = prec.to_real(spec.length_scale)
        if spec.family == "gaussian" and L.kind == "gaussian_measure":
            v = ell * ell / (1 + ell * ell)
            return v ** (prec.to_real(L.dimension) / 2) * rexp(-sq_norm(xv) / (2 * (1 + ell * ell)))
        if spec.family == "gaussian" and L.kind == "lebesgue_box":
            root2 = rsqrt(prec.to_real(2))
            scale = ell * rsqrt(rpi(ell) / 2)
            out = prec.to_real(1)
            for a, b, xi in zip(L.lower, L.upper, xv):
                ar, br = prec.to_real(a), prec.to_real(b)
                out = out * scale * (rerf((br - xi) / (root2 * ell)) - rerf((ar - xi) / (root2 * ell)))
            return out
        target = xv[0] if L.dimension == 1 else xv
        return apply_functional(L, lambda t: kernel_eval(spec, t, target, prec), prec)


def double_embedding(L: FunctionalSpec, spec: KernelSpec, prec: PrecisionConfig = MACHINE) -> Real:
    """The initial worst-case-error term L (x) L [K], the kernel integrated
    by the functional in both arguments.

    Gaussian kernel against the Gaussian measure has the closed form
    (l^2 / (2 + l^2))^(d/2).  Gaussian kernel over a box factorizes into
    one numeric integral per axis (of the per-axis embedding, which is
    closed-form).  Everything else integrates the embedding function.
    """
    with prec.workprec():
        if L.kind == "point_eval":
            return kernel_eval(spec, L.location, L.location, prec)
        ell = prec.to_real(spec.length_scale)
        if spec.family == "gaussian" and L.kind == "gaussian_measure":
            v = ell * ell / (2 + ell * ell)
            return v ** (prec.to_real(L.dimension) / 2)
        tol = _quad_tols(L, prec, None)
        if spec.family == "gaussian" and L.kind == "lebesgue_box":
            root2 = rsqrt(prec.to_real(2))
            scale = ell * rsqrt(rpi(ell) / 2)
            out = prec.to_real(1)
            for a, b in zip(L.lower, L.upper):
                ar, br = prec.to_real(a), prec.to_real(b)

                def inner(t, ar=ar, br=br):
                    return scale * (rerf((br - t) / (root2 * ell)) - rerf((ar - t) / (root2 * ell)))

                out = out * quad1d(inner, a, b, prec, tol, L.subdivision_budget)
            return out
        z = lambda t: kernel_embedding(L, spec, t, prec)
        return apply_functional(L, z, prec)

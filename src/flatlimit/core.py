"""Foundational types: multi-indices, point sets, cubature rules, and the
working-precision configuration.

Everything downstream is written against one scalar convention: in machine
mode values are Python floats (and numpy arrays hold float64), in extended
mode they are mpmath ``mpf`` numbers evaluated inside a ``workprec`` block.
The helpers at the bottom (``rexp``, ``rsqrt``, ...) dispatch on the scalar
type so the same formula serves both modes.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np
from mpmath import mp, mpf

Real = Union[float, mpf]


@dataclass(frozen=True)
class MultiIndex:
    """Tuple of non-negative integer exponents, one per coordinate."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise ValueError("multi-index must have at least one entry")
        for e in self.entries:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"multi-index entries must be non-negative ints, got {e!r}")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def degree(self) -> int:
        return sum(self.entries)

    def factorial(self) -> int:
        """Product of the entrywise factorials, computed exactly."""
        out = 1
        for e in self.entries:
            out *= math.factorial(e)
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


def degree_compositions(dimension: int, total: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of the given dimension summing to ``total``,
    in descending lexicographic order."""
    if dimension == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in degree_compositions(dimension - 1, total - head):
            yield (head,) + tail


def enumerate_multi_indices(dimension: int, max_degree: int) -> "MultiIndexSet":
    """All multi-indices with degree at most ``max_degree``.

    Ordered by total degree, and within a degree block by descending
    lexicographic order, so d=2, max_degree=1 enumerates
    (0,0), (1,0), (0,1).  The order is part of the contract: basis matrices
    and weight vectors downstream are indexed by it.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    indices = []
    for deg in range(max_degree + 1):
        for comp in degree_compositions(dimension, deg):
            indices.append(MultiIndex(comp))
    return MultiIndexSet(dimension, max_degree, tuple(indices))


@dataclass(frozen=True)
class MultiIndexSet:
    """Graded enumeration of all multi-indices up to a maximal degree."""

    dimension: int
    max_degree: int
    indices: tuple[MultiIndex, ...]

    def __post_init__(self) -> None:
        expected = math.comb(self.dimension + self.max_degree, self.dimension)
        if len(self.indices) != expected:
            raise ValueError(
                f"expected {expected} indices for dimension {self.dimension}, "
                f"degree {self.max_degree}, got {len(self.indices)}"
            )

    @property
    def size(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int) -> MultiIndex:
        return self.indices[i]


def monomial_eval(x: Sequence[Real], alpha: MultiIndex) -> Real:
    """x^alpha with the empty-product convention 0^0 = 1.

    The result has the same scalar type as the coordinates of ``x``.
    """
    if len(x) != alpha.dimension:
        raise ValueError(f"point has dimension {len(x)}, multi-index {alpha.dimension}")
    out = None
    for xi, a in zip(x, alpha):
        p = xi ** a
        out = p if out is None else out * p
    return out


@dataclass(frozen=True)
class PointSet:
    """Finite set of pairwise distinct points in R^d.

    One-dimensional point sets are stored in ascending order so weight
    vectors have a canonical node order; no order is imposed for d > 1.
    Use :meth:`from_points` to construct from unsorted input.
    """

    points: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise ValueError("point set must be non-empty")
        d = len(self.points[0])
        if d == 0:
            raise ValueError("points must have at least one coordinate")
        for p in self.points:
            if len(p) != d:
                raise ValueError("all points must share one dimension")
            for c in p:
                if not math.isfinite(c):
                    raise ValueError(f"point coordinates must be finite, got {c!r}")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        if d == 1 and any(self.points[i][0] >= self.points[i + 1][0] for i in range(len(self.points) - 1)):
            raise ValueError("one-dimensional point sets must be ascending; use PointSet.from_points")

    @classmethod
    def from_points(cls, pts: Sequence) -> "PointSet":
        """Normalize a sequence of scalars (d=1) or coordinate sequences."""
        norm = []
        for p in pts:
            if isinstance(p, (int, float)):
                norm.append((float(p),))
            else:
                norm.append(tuple(float(c) for c in p))
        if norm and len(norm[0]) == 1:
            norm.sort()
        return cls(tuple(norm))

    @classmethod
    def from_1d(cls, xs: Sequence[float]) -> "PointSet":
        return cls.from_points([(float(x),) for x in xs])

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def coords_1d(self) -> tuple[float, ...]:
        if self.dimension != 1:
            raise ValueError("coords_1d is only defined for one-dimensional point sets")
        return tuple(p[0] for p in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        return iter(self.points)

    def __getitem__(self, i: int) -> tuple[float, ...]:
        return self.points[i]


@dataclass(frozen=True)
class CubatureRule:
    """Weighted point evaluation  Q[f] = sum_n w_n f(x_n).

    ``apply`` passes a bare scalar to ``f`` when the rule is
    one-dimensional and a coordinate tuple otherwise.
    """

    points: PointSet
    weights: tuple[Real, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.points):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.points)} points"
            )

    @property
    def dimension(self) -> int:
        return self.points.dimension

    def apply(self, f: Callable[..., Real]) -> Real:
        if self.dimension == 1:
            return sum(w * f(p[0]) for w, p in zip(self.weights, self.points))
        return sum(w * f(p) for w, p in zip(self.weights, self.points))

    def weights_float(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights)


@dataclass(frozen=True)
class PrecisionConfig:
    """Working-precision policy for a computation.

    mode "machine" is IEEE double (float / float64 arithmetic throughout);
    mode "extended" carries ``bits`` of mantissa through mpmath.  The
    condition-number warning threshold defaults to u^(-1/2), i.e. a warning
    fires once roughly half of the working digits must be presumed lost.
    """

    mode: str = "machine"
    bits: int = 53
    condition_warn_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("machine", "extended"):
            raise ValueError(f"mode must be 'machine' or 'extended', got {self.mode!r}")
        if self.mode == "machine" and self.bits != 53:
            raise ValueError("machine mode is fixed at 53 mantissa bits")
        if self.mode == "extended" and self.bits < 64:
            raise ValueError(f"extended mode needs at least 64 bits, got {self.bits}")
        if self.condition_warn_threshold is not None and not self.condition_warn_threshold > 0:
            raise ValueError("condition_warn_threshold must be positive")

    @classmethod
    def machine(cls) -> "PrecisionConfig":
        return cls("machine", 53)

    @classmethod
    def extended(cls, bits: int) -> "PrecisionConfig":
        return cls("extended", bits)

    @property
    def is_extended(self) -> bool:
        return self.mode == "extended"

    @property
    def unit_roundoff(self) -> float:
        # floored at the smallest positive float so thresholds derived from
        # it stay finite even for precisions past 1074 bits
        return max(2.0 ** (-self.bits), 5e-324)

    @property
    def warn_threshold(self) -> float:
        if self.condition_warn_threshold is not None:
            return self.condition_warn_threshold
        return self.unit_roundoff ** -0.5

    @contextmanager
    def workprec(self):
        """Context manager establishing the mpmath precision (no-op for
        machine mode)."""
        if self.is_extended:
            with mp.workprec(self.bits):
                yield self
        else:
            yield self

    def to_real(self, x) -> Real:
        """Convert a scalar to this precision's working type.  Conversion
        from float to mpf is exact; use inside a ``workprec`` block."""
        if self.is_extended:
            return mp.mpf(x)
        return float(x)

    def to_point(self, p: Sequence) -> tuple[Real, ...]:
        return tuple(self.to_real(c) for c in p)

    def _matrix(self, rows: int, cols: int):
        """Zero matrix of this precision's container type, indexed as
        ``A[i, j]``: a float64 numpy array in machine mode, an mpmath
        matrix in extended mode (package-internal)."""
        if self.is_extended:
            return mp.matrix(rows, cols)
        return np.zeros((rows, cols), dtype=float)


MACHINE = PrecisionConfig.machine()


def rexp(x: Real) -> Real:
    return mp.exp(x) if isinstance(x, mpf) else math.exp(x)


def rsqrt(x: Real) -> Real:
    return mp.sqrt(x) if isinstance(x, mpf) else math.sqrt(x)


def rerf(x: Real) -> Real:
    return mp.erf(x) if isinstance(x, mpf) else math.erf(x)


def rpi(like: Real) -> Real:
    return mp.pi if isinstance(like, mpf) else math.pi


def sq_norm(x: Sequence[Real]) -> Real:
    return sum(c * c for c in x)

def sq_dist(x: Sequence[Real], y: Sequence[Real]) -> Real:
    return sum((a - b) * (a - b) for a, b in zip(x, y))

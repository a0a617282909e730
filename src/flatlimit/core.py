"""Foundational types: multi-indices, point sets, cubature rules, and the
working-precision configuration.

Everything downstream is written against one scalar convention: in machine
mode values are Python floats, in extended mode they are mpmath ``mpf``
numbers evaluated inside a ``workprec`` block; vectors are lists or tuples
of them, and matrices are lists of rows.
The helpers at the bottom (``rexp``, ``rsqrt``, ...) dispatch on the scalar
type so the same formula serves both modes.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, Union

from mpmath import mp, mpf

Real = Union[float, mpf]

_set = object.__setattr__  # binds a field of a read-only record, in its __init__


class _Record:
    """A record of named fields: it is equal to a record of its own class
    whose ``_fields`` hold equal values, in order, and its repr lists
    them.  Each record's ``__init__`` binds its fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _bind(self, *values) -> None:
        """Bind the ``_fields`` to ``values``, in order; records built
        hundreds of times a run bind each field by name instead."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A read-only record, hashed by its ``_fields``: its ``__init__``
    binds each field once through ``object.__setattr__``, and every later
    assignment raises AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a read-only {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a read-only {type(self).__name__}")

    def __setstate__(self, state) -> None:
        """Restore a copied or unpickled record from its ``__dict__``, its slots, or both as a pair."""
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                _set(self, name, value)


class MultiIndex(_Frozen):
    """Tuple of non-negative integer exponents, one per coordinate."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        if len(entries) == 0:
            raise ValueError("multi-index must have at least one entry")
        for e in entries:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"multi-index entries must be non-negative ints, got {e!r}")
        _set(self, "entries", entries)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def degree(self) -> int:
        return sum(self.entries)

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


class MultiIndexSet(_Frozen):
    """Graded enumeration of all multi-indices up to a maximal degree."""

    __slots__ = _fields = ("dimension", "max_degree", "indices")

    def __init__(self, dimension: int, max_degree: int, indices: tuple[MultiIndex, ...]) -> None:
        expected = math.comb(dimension + max_degree, dimension)
        if len(indices) != expected:
            raise ValueError(
                f"expected {expected} indices for dimension {dimension}, "
                f"degree {max_degree}, got {len(indices)}"
            )
        self._bind(dimension, max_degree, indices)

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


def _real(value) -> float:
    """A real number given as an int or a float, never as a bool or a
    string that reads as one, nor as an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"expected a real number in the float range, got an integer of {value.bit_length()} bits") from None


def _length_scale(value) -> float:
    """The Gaussian kernel's length scale l: a real number (:func:`_real`) with 0 < l < inf."""
    ell = _real(value)
    if not 0 < ell < math.inf:
        raise ValueError(f"length_scale must be positive and finite, got {value!r}")
    return ell


def _coords(value) -> tuple[float, ...]:
    """A coordinate tuple from a bare real number or a sequence of them
    (:func:`_real`); a string is neither, and is not read one character
    at a time."""
    if isinstance(value, (str, bool, int, float)):
        return (_real(value),)
    return tuple(_real(c) for c in value)


class PointSet(_Frozen):
    """Finite set of pairwise distinct points in R^d.

    One-dimensional point sets are stored in ascending order so weight
    vectors have a canonical node order; no order is imposed for d > 1.
    Use :meth:`from_points` to construct from unsorted input.
    """

    __slots__ = _fields = ("points",)

    def __init__(self, points: tuple[tuple[float, ...], ...]) -> None:
        if len(points) == 0:
            raise ValueError("point set must be non-empty")
        d = len(points[0])
        if d == 0:
            raise ValueError("points must have at least one coordinate")
        for p in points:
            if len(p) != d:
                raise ValueError("all points must share one dimension")
            for c in p:
                if not math.isfinite(c):
                    raise ValueError(f"point coordinates must be finite, got {c!r}")
        if len(set(points)) != len(points):
            raise ValueError("points must be pairwise distinct")
        if d == 1 and any(points[i][0] >= points[i + 1][0] for i in range(len(points) - 1)):
            raise ValueError("one-dimensional point sets must be ascending; use PointSet.from_points")
        _set(self, "points", points)

    @classmethod
    def from_points(cls, pts: Sequence) -> "PointSet":
        """Normalize a sequence of scalars (d=1) or coordinate sequences."""
        norm = [_coords(p) for p in pts]
        if norm and len(norm[0]) == 1:
            norm.sort()
        return cls(tuple(norm))

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


class CubatureRule(_Frozen):
    """Weighted point evaluation  Q[f] = sum_n w_n f(x_n).

    ``apply`` passes a bare scalar to ``f`` when the rule is
    one-dimensional and a coordinate tuple otherwise.
    """

    __slots__ = _fields = ("points", "weights")

    def __init__(self, points: PointSet, weights: tuple[Real, ...]) -> None:
        if len(weights) != len(points):
            raise ValueError(f"{len(weights)} weights for {len(points)} points")
        _set(self, "points", points)
        _set(self, "weights", weights)

    @property
    def dimension(self) -> int:
        return self.points.dimension

    def apply(self, f: Callable[..., Real]) -> Real:
        if self.dimension == 1:
            return _dot(self.weights, [f(p[0]) for p in self.points])
        return _dot(self.weights, [f(p) for p in self.points])

    def weights_float(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights)


class PrecisionConfig(_Frozen):
    """Working-precision policy for a computation.

    mode "machine" is IEEE double (float64 results, with linear solves in
    mpmath at 53 + 10 bits);
    mode "extended" carries ``bits`` of mantissa through mpmath.  A
    condition-number warning fires above u^(-1/2) (:attr:`warn_threshold`),
    once roughly half of the working digits must be presumed lost.
    ``bits`` is an int, never a bool or a float that reads as one.
    """

    __slots__ = _fields = ("mode", "bits")

    def __init__(self, mode: str = "machine", bits: int = 53) -> None:
        if mode not in ("machine", "extended"):
            raise ValueError(f"mode must be 'machine' or 'extended', got {mode!r}")
        if not isinstance(bits, int) or isinstance(bits, bool):
            raise TypeError(f"bits must be an int, got {bits!r}")
        if mode == "machine" and bits != 53:
            raise ValueError("machine mode is fixed at 53 mantissa bits")
        if mode == "extended" and bits < 64:
            raise ValueError(f"extended mode needs at least 64 bits, got {bits}")
        _set(self, "mode", mode)
        _set(self, "bits", bits)

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


MACHINE = PrecisionConfig.machine()


def rexp(x: Real) -> Real:
    return mp.exp(x) if isinstance(x, mpf) else math.exp(x)


def rexp_once(x: Real, values: dict) -> Real:
    """rexp(x), taken once per distinct x: ``values`` maps each x seen (an mpf by its raw tuple) to it."""
    key = getattr(x, "_mpf_", x)
    if key not in values:
        values[key] = rexp(x)
    return values[key]


def rsqrt(x: Real) -> Real:
    return mp.sqrt(x) if isinstance(x, mpf) else math.sqrt(x)


def rerf_once(x: Real, values: dict) -> Real:
    """erf(x), an mpf x taken once per distinct |x|: ``values`` maps each |x| seen (by its raw tuple) to
    erf(|x|).  mpmath's erf sums its series on |x| and sets the sign last, so erf(-x) = -erf(|x|) bit for bit."""
    if not isinstance(x, mpf):
        return math.erf(x)
    ax = abs(x)
    key = ax._mpf_
    if key not in values:
        values[key] = mp.erf(ax)
    return -values[key] if x < 0 else values[key]


def rpi(like: Real) -> Real:
    return mp.pi if isinstance(like, mpf) else math.pi


def _dot(a, b):
    """sum_i a_i b_i, left to right on every Python (sum() compensates floats from 3.12 on)."""
    total = 0
    for p, q in zip(a, b):
        total += p * q
    return total


def sq_norm(x: Sequence[Real]) -> Real:
    return _dot(x, x)


def sq_dist(x: Sequence[Real], y: Sequence[Real]) -> Real:
    d = [a - b for a, b in zip(x, y)]
    return _dot(d, d)

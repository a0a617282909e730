"""Independent reference values for the benchmark's correctness checks.

Written with mpmath and ``fractions`` only; nothing here imports flatlimit,
so an error in the library cannot hide itself by also sitting in its
checker.  All extended-precision work runs in a private mpmath context, so
the global ``mpmath.mp`` precision is never touched.

A measure is a tuple: ``("lebesgue_box", a, b)`` for integration over
[a, b], or ``("gaussian_measure",)`` for the standard normal density.  The
kernel is the Gaussian K(x, y) = exp(-(x - y)^2 / (2 l^2)).
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath

BOX = "lebesgue_box"
NORMAL = "gaussian_measure"


def context(bits: int) -> mpmath.MPContext:
    ctx = mpmath.MPContext()
    ctx.prec = bits
    return ctx


def gram(ctx, xs, ell):
    n = len(xs)
    G = ctx.matrix(n, n)
    two_l2 = 2 * ctx.mpf(ell) ** 2
    for i in range(n):
        for j in range(n):
            d = ctx.mpf(xs[i]) - ctx.mpf(xs[j])
            G[i, j] = ctx.exp(-d * d / two_l2)
    return G


def embedding(ctx, measure, x, ell):
    """z(x) = L[K(., x)] in closed form."""
    ell = ctx.mpf(ell)
    x = ctx.mpf(x)
    if measure[0] == NORMAL:
        return ctx.sqrt(ell**2 / (1 + ell**2)) * ctx.exp(-x * x / (2 * (1 + ell**2)))
    a, b = ctx.mpf(measure[1]), ctx.mpf(measure[2])
    s = ctx.sqrt(2) * ell
    return s * ctx.sqrt(ctx.pi) / 2 * (ctx.erf((b - x) / s) - ctx.erf((a - x) / s))


def double_embedding(ctx, measure, ell):
    """LL[K] in closed form.

    On [a, b] this is s^2 (sqrt(pi) u erf(u) + exp(-u^2) - 1) with
    s = sqrt(2) l and u = (b - a) / s.  The bracket cancels like u^2 as the
    kernel flattens, so it is evaluated with guard bits for the lost digits.
    """
    ell = ctx.mpf(ell)
    if measure[0] == NORMAL:
        return ctx.sqrt(ell**2 / (2 + ell**2))
    width = float(measure[2]) - float(measure[1])
    u_float = width / (math.sqrt(2) * float(ell))
    guard = 32 + max(0, 2 * math.ceil(-math.log2(u_float)))
    with ctx.extraprec(guard):
        s = ctx.sqrt(2) * ell
        u = (ctx.mpf(measure[2]) - ctx.mpf(measure[1])) / s
        out = s * s * (ctx.sqrt(ctx.pi) * u * ctx.erf(u) + ctx.exp(-u * u) - 1)
    return +out


def double_embedding_by_quadrature(ctx, measure, ell):
    """LL[K] as the tanh-sinh integral of the closed-form embedding, an
    independent check of :func:`double_embedding`."""
    if measure[0] == NORMAL:
        density = lambda t: ctx.exp(-t * t / 2) / ctx.sqrt(2 * ctx.pi)
        return ctx.quad(lambda t: embedding(ctx, measure, t, ell) * density(t), [-ctx.inf, ctx.inf])
    a, b = ctx.mpf(measure[1]), ctx.mpf(measure[2])
    return ctx.quad(lambda t: embedding(ctx, measure, t, ell), [a, b])


def optimal(xs, measure, ell, bits):
    """Optimal weights and their worst-case error at ``bits`` of precision.

    Solves G w = z by LU and takes e^2 = LL[K] - w.z."""
    ctx = context(bits)
    G = gram(ctx, xs, ell)
    z = ctx.matrix([embedding(ctx, measure, x, ell) for x in xs])
    w = ctx.lu_solve(G, z)
    radicand = double_embedding(ctx, measure, ell) - sum(w[i] * z[i] for i in range(len(xs)))
    return [w[i] for i in range(len(xs))], ctx.sqrt(max(radicand, 0))


def rule_wce(xs, ws, measure, ell, bits):
    """Worst-case error of an arbitrary rule from the full quadratic form
    LL[K] - 2 w.z + w.G w."""
    ctx = context(bits)
    G = gram(ctx, xs, ell)
    w = [ctx.mpf(v) for v in ws]
    n = len(xs)
    cross = sum(w[i] * embedding(ctx, measure, xs[i], ell) for i in range(n))
    quad = sum(w[i] * G[i, j] * w[j] for i in range(n) for j in range(n))
    radicand = double_embedding(ctx, measure, ell) - 2 * cross + quad
    return ctx.sqrt(max(radicand, 0))


def moment(measure, k: int) -> Fraction:
    """L[x^k] as an exact rational (box bounds are read as exact binary floats)."""
    if measure[0] == NORMAL:
        if k % 2:
            return Fraction(0)
        out = 1
        for j in range(1, k, 2):
            out *= j
        return Fraction(out)
    a, b = Fraction(measure[1]), Fraction(measure[2])
    return (b ** (k + 1) - a ** (k + 1)) / (k + 1)


def polynomial_weights(xs, measure, degree: int) -> list[Fraction]:
    """Weights exact on polynomials up to ``degree``, by exact Gaussian
    elimination of the transposed Vandermonde system on the binary nodes."""
    n = len(xs)
    if n != degree + 1:
        raise ValueError(f"degree {degree} needs {degree + 1} nodes, got {n}")
    x = [Fraction(v) for v in xs]
    rows = [[x[i] ** j for i in range(n)] + [moment(measure, j)] for j in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def gauss_legendre_nodes(n: int, bits: int) -> list:
    """Nodes of the n-point Gauss-Legendre rule on [-1, 1]: Newton's method
    on the three-term recurrence from the Chebyshev-like first guesses."""
    ctx = context(bits)
    nodes = []
    for k in range(n):
        x = ctx.cos(ctx.pi * (4 * k + 3) / (4 * n + 2))
        for _ in range(200):
            p0, p1 = ctx.mpf(1), x
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            step = p1 * (x * x - 1) / (n * (x * p1 - p0))
            x -= step
            if abs(step) < ctx.mpf(2) ** (-bits + 4):
                break
        nodes.append(x)
    return sorted(nodes)


def digits(text: str, reference, cap: float) -> float:
    """Correct significant digits of the decimal ``text`` against the mpf
    ``reference``: -log10 of the relative error, read at the reference's
    precision and capped at ``cap`` (an exact match reads as the cap)."""
    ctx = reference.context
    err = abs(ctx.mpf(text) - reference)
    if err == 0:
        return cap
    return min(cap, float(-ctx.log10(err / abs(reference))))

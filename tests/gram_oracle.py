"""An independent worst-case error, optimal weights and Gram condition
number for the tests: the Gram form e^2 = LL[K] - 2 w.z + w.G w of the
Gaussian kernel, the system G w = z and ||G|| ||G^-1||, assembled in
mpmath from their closed forms alone (no flatlimit function is called), at
a precision far above the one under test."""
from mpmath import mp


def _gaussian_kernel(l2):
    """The Gaussian kernel of squared length scale ``l2``."""

    def kernel(x, y):
        return mp.exp(-mp.fsum((a - b) ** 2 for a, b in zip(x, y)) / (2 * l2))

    return kernel


def _closed_forms(ell, L, X):
    """The Gaussian kernel of length scale ``ell``, the embedding z of the
    points ``X`` and LL[K] for the point evaluation, box or N(0, I) ``L``,
    at the working precision.

    Per axis of a box [a, b], with s = sqrt(2) l, the embedding is
    s sqrt(pi) / 2 (erf((b - x) / s) - erf((a - x) / s)) and the double
    embedding s^2 (sqrt(pi) u erf(u) + exp(-u^2) - 1), u = (b - a) / s.
    Under N(0, I) in d dimensions they are
    (l^2 / (1 + l^2))^(d/2) exp(-|x|^2 / (2 (1 + l^2))) and
    (l^2 / (2 + l^2))^(d/2)."""
    l2 = mp.mpf(ell) ** 2
    kernel = _gaussian_kernel(l2)
    if L.kind == "point_eval":
        y = [mp.mpf(c) for c in L.location]
        return kernel, [kernel(x, y) for x in X], mp.one
    if L.kind == "lebesgue_box":
        s = mp.sqrt(2 * l2)
        bounds = [(mp.mpf(a), mp.mpf(b)) for a, b in zip(L.lower, L.upper)]
        z = [
            mp.fprod(s * mp.sqrt(mp.pi) / 2 * (mp.erf((b - xi) / s) - mp.erf((a - xi) / s)) for (a, b), xi in zip(bounds, x))
            for x in X
        ]
        us = [(b - a) / s for a, b in bounds]
        return kernel, z, mp.fprod(s * s * (mp.sqrt(mp.pi) * u * mp.erf(u) + mp.exp(-u * u) - 1) for u in us)
    if L.kind == "gaussian_measure":
        half_d = mp.mpf(L.dimension) / 2
        z = [(l2 / (1 + l2)) ** half_d * mp.exp(-mp.fsum(c * c for c in x) / (2 * (1 + l2))) for x in X]
        return kernel, z, (l2 / (2 + l2)) ** half_d
    raise ValueError(f"no closed form for {L.kind}")


def gaussian_wce(ell, L, rule, bits):
    """The wce of ``rule`` for the Gaussian kernel of length scale ``ell``
    and the point evaluation, box or N(0, I) ``L``, at ``bits``, with the
    weights taken as exact (closed forms as in :func:`_closed_forms`)."""
    with mp.workprec(bits):
        X = [[mp.mpf(c) for c in x] for x in rule.points]
        w = [mp.mpf(v) for v in rule.weights]
        kernel, z, ll = _closed_forms(ell, L, X)
        quad = mp.fsum(wi * wj * kernel(xi, xj) for wi, xi in zip(w, X) for wj, xj in zip(w, X))
        return mp.sqrt(ll - 2 * mp.fsum(wi * zi for wi, zi in zip(w, z)) + quad)


def gaussian_optimal_weights(ell, L, points, bits):
    """The optimal weights of the Gaussian kernel of length scale ``ell``
    for ``L`` at ``points``: G w = z from the closed forms of
    :func:`_closed_forms`, solved by mp.cholesky_solve at ``bits``."""
    with mp.workprec(bits):
        X = [[mp.mpf(c) for c in x] for x in points]
        kernel, z, _ = _closed_forms(ell, L, X)
        G = mp.matrix([[kernel(x, y) for y in X] for x in X])
        return list(mp.cholesky_solve(G, mp.matrix(z)))


def gaussian_gram_condition(ell, points, bits):
    """The inf-norm condition number ||G|| ||G^-1|| of the Gaussian Gram
    matrix of length scale ``ell`` at ``points``, for a solve at ``bits``:
    G from its closed form and G^-1 from mp.inverse, both at
    3 bits + 64."""
    with mp.workprec(3 * bits + 64):
        X = [[mp.mpf(c) for c in x] for x in points]
        kernel = _gaussian_kernel(mp.mpf(ell) ** 2)
        G = mp.matrix([[kernel(x, y) for y in X] for x in X])
        return mp.mnorm(G, mp.inf) * mp.mnorm(mp.inverse(G), mp.inf)


def assert_wce_matches(wce, ell, L, rule, bits):
    """``wce``, computed at ``bits``, against :func:`gaussian_wce` at
    4 bits + 128, to a relative 2^-(bits - 8)."""
    oracle_bits = 4 * bits + 128
    ref = gaussian_wce(ell, L, rule, oracle_bits)
    with mp.workprec(oracle_bits):
        assert abs(mp.mpf(wce) - ref) <= mp.mpf(2) ** (8 - bits) * ref, (float(wce), float(ref))

"""Gaussian quadrature from moments, and direct optimization of cubature
points.

The flat-limit endpoint of jointly optimized kernel cubature is classical
Gaussian quadrature, so both live here: ``gauss_rule_from_moments`` builds
the N-point rule exact to polynomial degree 2N - 1 for any functional with
accessible moments, and ``optimize_points`` minimizes the worst-case error
of the Gaussian kernel over node positions.  The optimal weights are
linear, so variable projection eliminates them: what is left is the
least-squares residual of the kernel's orthonormal basis in the nodes
alone (:class:`_BasisResidual`), which a bounded Levenberg-Marquardt
search (:func:`_levenberg_marquardt`) minimizes on Python lists of one
scalar type, float or mpf, in one code path.  It searches the
functional's interval, or (-10, 10) under the Gaussian measure.  The
search runs in float64 while 2 N log2(l / R) <= 40, and otherwise in
mpmath at the optimizer's own bits (:func:`_search_lane`), whatever the
output precision.  Each restart keeps only its last accepted nodes; the
winner's are re-solved once by :func:`cubature.optimal_weights` for the
written weights, and :func:`cubature.worst_case_error` gives the written
wce.
"""
from __future__ import annotations

import math
import operator
import random
from functools import reduce
from itertools import accumulate
from typing import Optional

from mpmath import mp

from .core import (
    MACHINE,
    _dot,
    CubatureRule,
    MultiIndex,
    PointSet,
    PrecisionConfig,
    _Frozen,
    _Record,
    _length_scale,
    rexp,
    rsqrt,
)
from .errors import (
    FlatLimitError,
    NumericalInconsistencyError,
    NumericallyIndefiniteError,
    SingularMatrixError,
)
from .cubature import optimal_weights, worst_case_error
from .functionals import FunctionalSpec, _row_damped_moments, moment, quad1d
from .linalg import _cholesky


class GaussRule(_Frozen):
    """An N-point rule exact on polynomials up to degree 2N - 1."""

    __slots__ = _fields = ("rule", "degree_of_exactness", "max_exactness_residual")

    def __init__(self, rule: CubatureRule, degree_of_exactness: int, max_exactness_residual: float) -> None:
        self._bind(rule, degree_of_exactness, max_exactness_residual)

    @property
    def nodes(self) -> tuple[float, ...]:
        return tuple(float(p[0]) for p in self.rule.points)

    @property
    def weights(self) -> tuple[float, ...]:
        return self.rule.weights_float()


def _construction_bits(prec: PrecisionConfig, n_points: int) -> int:
    # Hankel moment matrices are ill-conditioned; build well above the
    # output precision and round the finished nodes and weights down.
    return max(192, prec.bits + 64, 64 + 16 * n_points)


def _check_nodes(L: FunctionalSpec, n_points: int) -> None:
    """Gauss rules and optimized nodes are one-dimensional, with at least
    one node, and need a functional with a domain: the Hankel matrix of a
    point evaluation is singular, and its optimal rule is the point."""
    if L.kind == "point_eval":
        raise ValueError("node construction needs a functional with a domain, not point evaluation")
    if L.dimension != 1:
        raise ValueError(f"node construction is one-dimensional, got a {L.dimension}-dimensional functional")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")


def gauss_rule_from_moments(
    L: FunctionalSpec,
    n_points: int,
    prec: PrecisionConfig = MACHINE,
) -> GaussRule:
    """Gaussian quadrature for a one-dimensional functional via its moments.

    Pipeline: Cholesky-factor the (N+1) x (N+1) Hankel moment matrix, read
    off the three-term recurrence coefficients, assemble the symmetric
    Jacobi matrix and take its eigendecomposition; nodes are eigenvalues,
    weights mu_0 times squared first eigenvector components.  Construction
    always runs at a precision well above ``prec`` and the result is
    rounded to the output types (machine-float nodes, working-precision
    weights), then re-verified: the returned rule's moment residuals,
    normalized by max(1, |mu_n|), must sit at the roundoff level of the
    output types or the constructor raises.
    """
    _check_nodes(L, n_points)
    n = n_points
    cbits = _construction_bits(prec, n)
    cprec = PrecisionConfig.extended(cbits)
    with cprec.workprec():
        mu = [moment(L, MultiIndex((k,)), cprec) for k in range(2 * n + 1)]
        try:
            Lc = _cholesky([[m._mpf_ for m in mu[i:i + n + 1]] for i in range(n + 1)], mp.eps._mpf_)
        except NumericallyIndefiniteError as e:
            raise NumericallyIndefiniteError(
                f"Hankel moment matrix of order {n + 1} is not numerically positive "
                f"definite at {cbits} bits; the functional may not be a positive "
                "measure with distinct-support, or needs more precision"
            ) from e
        # R upper triangular with M = R^T R gives the Jacobi matrix J
        r = lambda i, j: mp.make_mpf(Lc[j][i])
        J = mp.matrix(n, n)
        for k in range(n):
            J[k, k] = r(k, k + 1) / r(k, k)
            if k >= 1:
                J[k, k] -= r(k - 1, k) / r(k - 1, k - 1)
                J[k - 1, k] = J[k, k - 1] = r(k, k) / r(k - 1, k - 1)
        E, Q = mp.eigsy(J)
        nodes_mp = [E[k] for k in range(n)]
        weights_mp = [mu[0] * Q[0, k] ** 2 for k in range(n)]
        for k in range(n - 1):
            if not nodes_mp[k] < nodes_mp[k + 1]:
                raise NumericalInconsistencyError("computed nodes are not strictly increasing")
        for w in weights_mp:
            if not w > 0:
                raise NumericalInconsistencyError("computed weights are not all positive")
        if L.kind in ("lebesgue_box", "numeric_oracle"):
            lo, hi = L.lower[0], L.upper[0]
            for x in nodes_mp:
                if not (lo < x < hi):
                    raise NumericalInconsistencyError(
                        f"node {float(x)} escaped the open integration interval ({lo}, {hi})"
                    )

        # node coordinates are always stored as machine floats; weights keep
        # the working precision
        nodes_out = [float(x) for x in nodes_mp]
        with prec.workprec():
            weights_out = tuple(prec.to_real(w) for w in weights_mp)

        # residuals of the rounded rule, measured back at construction precision
        resid = mp.mpf(0)
        for k in range(2 * n):
            q = mp.mpf(0)
            for x, w in zip(nodes_out, weights_out):
                q += mp.mpf(w) * mp.mpf(x) ** k
            resid = max(resid, abs(q - mu[k]) / max(1, abs(mu[k])))
        # exactness of the returned rule is capped by the float64 node storage,
        # so the certificate floor is 2^-53 regardless of the weight precision
        eff_bits = min(prec.bits, 53)
        tol = 100 * n * 2.0 ** (-eff_bits)
        if not resid <= tol:
            raise NumericalInconsistencyError(
                f"constructed rule misses exactness: residual {mp.nstr(resid, 6)} "
                f"above {float(tol):.3e} at {prec.bits} output bits"
            )
    points = PointSet(tuple((x,) for x in nodes_out))
    rule = CubatureRule(points, weights_out)
    return GaussRule(rule, 2 * n - 1, float(resid))


class OptimizerSettings(_Frozen):
    """Settings for the point optimizer: the random restarts after the
    Gauss start, the residual evaluations each restart may make, and the
    seed of the restarts' starting nodes."""

    __slots__ = _fields = ("restarts", "max_evals", "seed")

    def __init__(self, restarts: int = 8, max_evals: int = 10000, seed: int = 0) -> None:
        for name, value in (("restarts", restarts), ("max_evals", max_evals), ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if restarts < 0:
            raise ValueError("restarts must be >= 0")
        if max_evals < 10:
            raise ValueError("max_evals must be at least 10")
        self._bind(restarts, max_evals, seed)


class OptimizationTrace(_Record):
    """The result of a node search: the wce of the returned rule, whether
    the winning restart converged, the arithmetic the search ran in
    ("float64" or "extended", see :func:`_search_lane`) and one summary
    per restart."""

    __slots__ = _fields = ("wce", "converged", "search", "restart_summaries")

    def __init__(self, wce: float, converged: bool, search: str, restart_summaries: list[dict]) -> None:
        self._bind(wce, converged, search, restart_summaries)


def _default_optimizer_bits(length_scale: float, n_points: int) -> int:
    # the optimum's squared error scales like l^(-4N); resolve its
    # differences well below it
    return max(128, 64 + math.ceil(4 * n_points * math.log2(max(length_scale, 2.0))) + 32)


_UNBOUNDED_BOX = (-10.0, 10.0)  # the search box under the Gaussian measure, which concentrates well inside it
_TAIL_BITS = 55  # the dropped basis rows stay below 2^-55 of e^2
_MAX_BASIS_ROWS = 512
_LM_DAMPING = 1e-3  # the first Levenberg-Marquardt parameter, relative to the smallest pivot
_REL_DECREASE = 1e-12  # an accepted step that lowers e^2 by no more ends the search
_STEP_TOL = 1e-13  # a step below this, relative to the box's reach, ends the search


def _search_lane(L: FunctionalSpec, n_points: int, length_scale: float, box: tuple[float, float]) -> str:
    """The arithmetic of a node search: "float64" while
    2 N log2(l / R) <= 40, "extended" (mpmath at the optimizer's bits)
    otherwise.  R is the search box's largest |endpoint|, or 1 under the
    Gaussian measure.

    Measured on [-1, 1] from the Gauss-Legendre start alone, the float64
    search ended at the extended search's wce to 6 digits up to
    2 N log2 l = 53 for N = 2 and 4, 60 for N = 3, 49 for N = 5 and 48 for
    N = 6 (there to 5 digits, 0.044375 against 0.044374 of the Gauss
    nodes' wce).  It drifted at 60 for N = 6 (l = 32: 0.0719 against
    0.0443) and at 80 for N = 4 (l = 1e3: 0.1613 against 0.1559).
    """
    r = 1.0 if L.kind == "gaussian_measure" else max(abs(box[0]), abs(box[1]))
    return "float64" if 2 * n_points * math.log2(length_scale / r) <= 40 else "extended"


def _gamma_tail(m: int, u: float) -> float:
    """An upper bound for sum_{k >= m} e^-u u^k / k!, the regularized lower
    incomplete gamma function P(m, u): e^-u u^m / m! (m + 1) / (m + 1 - u)
    for m + 1 > u (the tail of a geometric series), 1 otherwise."""
    if m + 1 <= u:
        return 1.0
    return math.exp(m * math.log(u) - u - math.lgamma(m + 1)) * (m + 1) / (m + 1 - u)


def _householder(columns: list) -> tuple[list, list, list]:
    """Householder QR of the m x n matrix given by its n ``columns``
    (m > n) of float or mpf entries, as LAPACK's dgeqr2 forms it, one
    column at a time: the reflectors v_j (from row j on, with
    v_j[0] = 1) and their factors tau_j, so that Q = H_0 ... H_(n-1) with
    H_j = I - tau_j v_j v_j^T, and the columns of the n x n upper
    triangle R (column j down to its diagonal).  A zero or non-finite
    pivot raises :class:`SingularMatrixError`."""
    vs, taus, upper = [], [], []
    for j, column in enumerate(columns):
        x = _reflect(vs, taus, column)
        norm = rsqrt(_dot(x[j:], x[j:]))
        if not 0 < norm < math.inf:
            raise SingularMatrixError(f"column {j} of the least-squares matrix has a zero or non-finite pivot")
        beta = -norm if x[j] >= 0 else norm
        vs.append([1] + [t / (x[j] - beta) for t in x[j + 1:]])
        taus.append((beta - x[j]) / beta)
        upper.append(x[:j] + [beta])
    return vs, taus, upper


def _reflect(vs: list, taus: list, b: list) -> list:
    """Q^T b for the vector ``b``, with Q from the reflectors of
    :func:`_householder`."""
    b = list(b)
    for j in range(len(taus)):
        s = _dot(vs[j], b[j:]) * taus[j]
        b[j:] = [bi - vi * s for bi, vi in zip(b[j:], vs[j])]
    return b


def _back_substitute(upper: list, b: list) -> list:
    """R^-1 b for R upper triangular, given by its columns."""
    x = list(b)
    for k in reversed(range(len(upper))):
        x[k] /= upper[k][k]
        x[:k] = [xi - rik * x[k] for xi, rik in zip(x[:k], upper[k])]
    return x


def _basis_solve(phi: list, dphi: list, c: list):
    """min_w ||c - phi w|| by Householder QR of the M x N matrix phi = QR,
    given by its columns, and the Jacobian of its residual in the nodes,
    both in the coordinates of Q^T: the weights w, the squared residual
    norm e^2 = ||Q_2^T c||^2, Q^T r = [0; Q_2^T c] for the residual
    r = P c with P = I - Q Q^T, and the columns of Q^T J for the
    variable-projection Jacobian J (Golub & Pereyra, SIAM J. Numer. Anal.
    1973).  Column n of ``phi`` depends on x_n alone, with derivative
    column n of ``dphi``, so

        Q^T dr/dx_n = Q^T (-w_n P phi'_n - (phi'_n . r) Q R^-T e_n)
                    = [-(Q_2^T phi'_n . Q_2^T c) R^-T e_n; -w_n Q_2^T phi'_n] .

    The Levenberg-Marquardt step, Marquardt's scaling and 2 J^T r do not
    change under Q^T, so r and J are never reflected back.

    A zero or non-finite pivot, or weights that are not finite, raise
    :class:`SingularMatrixError`."""
    n = len(phi)
    vs, taus, upper = _householder(phi)
    t = [_reflect(vs, taus, col) for col in [c] + dphi]
    w = _back_substitute(upper, t[0][:n])
    if not all(abs(wn) < math.inf for wn in w):
        raise SingularMatrixError("the basis least-squares weights are not finite")
    tail = t[0][n:]
    inverse = [_back_substitute(upper, [int(i == k) for i in range(n)]) for k in range(n)]  # columns of R^-1
    jac = []
    for k, tk in enumerate(t[1:]):
        lower = tk[n:]  # Q_2^T phi'_k
        jac.append([-_dot(lower, tail) * col[k] for col in inverse] + [-w[k] * v for v in lower])
    return w, _dot(tail, tail), [0] * n + tail, jac


class _BasisResidual:
    """The residual of the node search, in float64 or, in the "extended"
    lane, in mpmath at ``prec``: the optimal-weight residual of the
    Gaussian kernel's orthonormal basis
    phi_k(x) = exp(-x^2 / 2 l^2) x^k / (sqrt(k!) l^k), k < M (Steinwart,
    Hush & Scovel, IEEE Trans. Inf. Theory 2006).

    With c_k = L[phi_k] = damped_moment(L, l, k) / (sqrt(k!) l^k), computed
    at ``prec`` (and rounded once in the float64 lane), and
    Phi_kn = phi_k(x_n), a rule's squared error is
    sum_k (c_k - (Phi w)_k)^2 over all k.  Over the first M rows its
    minimum is e^2 = ||r||^2 with the variable-projection residual
    r = P c, free of the cancellation in LL[K] - w.z; :func:`_basis_solve`
    gives r and its Jacobian J in the coordinates of Q^T.  The derivatives
    of the basis are phi_k' = sqrt(k) / l phi_(k-1) - x / l^2 phi_k.
    Formed as c - Phi w, r cancels in the leading rows: at l = 100 with
    nodes (-0.7, 0.1, 0.8) on [-1, 1] the gradient 2 J^T r was off by a
    relative 3e-5, against 7e-15 from the reflectors, next to a 400-bit
    central difference.

    Tail bound: sum_{k >= M} phi_k(x)^2 = P(M, x^2 / l^2) is at most
    t_M = :func:`_gamma_tail` (M, R^2 / l^2) on the search box |x| <= R.
    By Cauchy-Schwarz sum_{k >= M} c_k^2 is at most m^2 t_M for a box or a
    numeric oracle of total variation at most m, and under the Gaussian measure,
    where c_k^2 <= v (1 + l^2)^-k with v = l^2 / (1 + l^2), at most
    v q^ceil(M / 2) / (1 - q) with q = (1 + l^2)^-2.  So the rows k >= M
    add at most (sqrt(sum_{k >= M} c_k^2) + ||w||_1 sqrt(t_M))^2 to the
    M-row e^2, which is itself a lower bound.  Each evaluation checks that
    this is below 2^-55 e^2, and otherwise adds rows until it is.

    Only the coefficients are computed in an mpmath context, at ``prec``;
    in the float64 lane ``arith`` is MACHINE, so an evaluation, and the
    search's own arithmetic, enter none.
    """

    def __init__(
        self, ell: float, L: FunctionalSpec, n_points: int, box: tuple[float, float],
        prec: PrecisionConfig, lane: str,
    ):
        self.ell, self.L, self.prec, self.lane = ell, L, prec, lane
        # the entries: float64, or mpf at the working precision of prec
        self.real = mp.mpf if lane == "extended" else float
        self.arith = prec if lane == "extended" else MACHINE
        self.u = (max(abs(box[0]), abs(box[1])) / self.ell) ** 2
        if L.kind == "gaussian_measure":
            self.mass = None
        elif L.kind == "lebesgue_box":
            self.mass = L.upper[0] - L.lower[0]
        else:
            # int |rho| <= sqrt((b - a) int rho^2), whose integrand stays smooth where rho changes sign
            a, b = L.lower[0], L.upper[0]
            self.mass = math.sqrt((b - a) * float(quad1d(lambda t: L.density(t) ** 2, a, b)))
        self.c: list = []
        self._grow(2 * n_points + 2)

    def _grow(self, m: int) -> None:
        """Extend the coefficients to ``m`` rows and bound the tail past them."""
        with self.prec.workprec():
            ell, ks = mp.mpf(self.ell), range(len(self.c), m)
            moments = _row_damped_moments(self.L, self.ell, [MultiIndex((k,)) for k in ks], self.prec)
            self.c += [self.real(mp.mpf(c) / (mp.sqrt(mp.factorial(k)) * ell**k)) for k, c in zip(ks, moments)]
            self.root_k = [rsqrt(self.real(k)) for k in range(1, m)]
        self.tail_nodes = _gamma_tail(m, self.u)
        if self.mass is None:
            q = (1 + self.ell**2) ** -2
            self.tail_c = self.ell**2 / (1 + self.ell**2) * q ** ((m + 1) // 2) / (1 - q)
        else:
            self.tail_c = self.mass**2 * self.tail_nodes

    def __call__(self, x: list):
        """The weights w, e^2 = ||r||^2, Q^T r and the columns of Q^T J
        (:func:`_basis_solve`) at the sorted distinct nodes ``x``."""
        with self.arith.workprec():
            ell = self.real(self.ell)
            s = [self.real(v) / ell for v in x]
            while True:
                m = len(self.c)
                phi = [list(accumulate([rexp(-t * t / 2)] + [t / root for root in self.root_k], operator.mul))
                       for t in s]
                # phi_k' = sqrt(k) / l phi_(k-1) - x / l^2 phi_k, with phi_(-1) = 0
                root_over_ell = [0] + [root / ell for root in self.root_k]
                dphi = [[h * prev - t / ell * p for p, h, prev in zip(col, root_over_ell, [0] + col)]
                        for t, col in zip(s, phi)]
                w, e2, r, jac = _basis_solve(phi, dphi, self.c)
                if not e2 > 0:
                    raise NumericalInconsistencyError(
                        f"squared worst-case error ||Q_2^T c||^2 = {float(e2):.3e} is not positive "
                        f"in the {self.lane} search"
                    )
                l1 = _dot([abs(v) for v in w], [1] * len(w))
                dropped = (math.sqrt(self.tail_c) + l1 * math.sqrt(self.tail_nodes)) ** 2
                if dropped <= 2.0**-_TAIL_BITS * e2:
                    return w, e2, r, jac
                if m >= _MAX_BASIS_ROWS:
                    raise NumericalInconsistencyError(
                        f"the basis tail bound {float(dropped):.3e} stays above 2^-{_TAIL_BITS} e^2 = "
                        f"{float(2.0**-_TAIL_BITS * e2):.3e} at {m} rows; the nodes are too close, or "
                        "the search box too wide for the length scale"
                    )
                self._grow(m + 2)


def _lm_step(jac: list, r: list, lam, scale: list) -> list:
    """The Levenberg-Marquardt step p minimizing
    ||J p + r||^2 + lam ||D p||^2 with D = diag(``scale``), from the
    Householder QR of [J; sqrt(lam) D], J given by its columns."""
    n = len(jac)
    augmented = [col + [scale[k] * lam**0.5 if i == k else 0 for i in range(n)] for k, col in enumerate(jac)]
    vs, taus, upper = _householder(augmented)
    return _back_substitute(upper, _reflect(vs, taus, [-v for v in r] + [0] * n)[:n])


def _zero_sensitivity(x: list, real) -> list:
    """dx/da for the zeros x_n of the node polynomial
    omega(t) = prod_n (t - x_n) = t^N + sum_(j < N) a_j t^j: the rows of
    the matrix -x_n^j / omega'(x_n), with entries of type ``real``."""
    xs = [real(v) for v in x]
    slopes = [math.prod(xn - xm for m, xm in enumerate(xs) if m != n) for n, xn in enumerate(xs)]
    return [[-xn**j / slope for j in range(len(xs))] for xn, slope in zip(xs, slopes)]


def _shifted_zeros(x: list, da: list, sensitivity: list) -> Optional[list]:
    """The zeros of omega(t) + sum_j da_j t^j next to the zeros ``x`` of
    omega(t) = prod_n (t - x_n), in float64: up to eight Newton steps from
    the first-order prediction x + (dx/da) da, with omega kept as the
    product.  None when the last correction is above 1e-12 or a slope is
    zero.  Each node's step depends on that node alone, so once a step
    leaves every node unchanged the steps left would repeat it bit for bit
    (a zero whose sign flips stays zero), and the loop stops there."""
    t = [xn + _dot(row, da) for xn, row in zip(x, sensitivity)]
    for _ in range(8):
        correction = []
        for tn in t:
            # omega and omega' by the product rule, sum_j da_j t^j and its
            # derivative by Horner: products only, so a diverging t
            # overflows to inf instead of raising
            f, df = 1.0, 0.0
            for xm in x:
                f, df = f * (tn - xm), df * (tn - xm) + f
            g, dg = 0.0, 0.0
            for aj in reversed(da):
                g, dg = g * tn + aj, dg * tn + g
            if df + dg == 0:
                return None
            correction.append((f + g) / (df + dg))
        t, previous = [tn - d for tn, d in zip(t, correction)], t
        if t == previous:
            break
    return t if all(abs(d) <= 1e-12 for d in correction) else None


def _levenberg_marquardt(residual: _BasisResidual, x: list, box: tuple[float, float], max_evals: int):
    """Bounded Levenberg-Marquardt on ``residual`` from the sorted distinct
    nodes ``x`` (Nocedal & Wright, Numerical Optimization, ch. 10).

    The steps are taken in the coefficients a of the node polynomial
    omega(t) = prod_n (t - x_n), with the Jacobian J dx/da
    (:func:`_zero_sensitivity`), and the new nodes are the zeros of the
    shifted polynomial (:func:`_shifted_zeros`), clipped to the box.  In
    the flat limit the leading rows of r are linear in a: the curved
    valley that the nodes follow toward the optimum is straight there.
    Marquardt's scaling D is the largest column norm of J dx/da seen so
    far (Moré, 1978).  The first damping is 1e-3 times the smallest
    squared pivot of the QR of J dx/da D^-1: the graded residual's
    singular values spread over many orders of magnitude, and a damping
    relative to the largest would freeze the weak directions.  r and J
    come in the coordinates of Q^T of each iterate (:func:`_basis_solve`),
    where the step, the scaling and the pivots are those of r and J; the
    loop runs in ``residual.arith``, no mpmath context in float64.

    A step that raises e^2, merges or reorders the nodes, or whose zeros
    or basis matrix fail, is rejected and the damping multiplied by 10;
    an accepted step divides it by 10.  The search ends, converged, when
    an accepted step lowers e^2 by a relative 1e-12 or less or a step
    moves no node by more than 1e-13 of the box's reach, and unconverged
    after ``max_evals`` evaluations.

    Returns the last accepted (nodes, e^2), None when the start failed;
    the evaluations made; and whether the search converged.
    """
    lo, hi = box
    try:
        _, e2, r, jac = residual(x)
    except SingularMatrixError:
        return None, 1, False
    nfev = 1
    lam, scale = None, [0] * len(x)
    step_tol = _STEP_TOL * max(abs(lo), abs(hi))
    while True:
        # J dx/da and its scaling once per accepted iterate: a rejected step changes only the damping
        with residual.arith.workprec():
            sensitivity = _zero_sensitivity(x, residual.real)
            rows = list(zip(*jac))
            jac_a = [[_dot(row, sj) for row in rows] for sj in zip(*sensitivity)]
            scale = [max(d, rsqrt(_dot(col, col))) for d, col in zip(scale, jac_a)]
            if lam is None:
                upper = _householder([[v / d for v in col] for col, d in zip(jac_a, scale)])[2]
                lam = _LM_DAMPING * min(abs(column[-1]) for column in upper) ** 2
        sensitivity = [[float(v) for v in row] for row in sensitivity]
        while True:
            with residual.arith.workprec():
                da = _lm_step(jac_a, r, lam, scale)
            trial = _shifted_zeros(x, [float(v) for v in da], sensitivity)
            if trial is not None:
                trial = [min(max(t, lo), hi) for t in trial]
                if not max(abs(t - xn) for t, xn in zip(trial, x)) > step_tol:
                    return (x, e2), nfev, True
                if all(p < q for p, q in zip(trial, trial[1:])):
                    if nfev >= max_evals:
                        return (x, e2), nfev, False
                    nfev += 1
                    try:
                        _, e2_t, r_t, jac_t = residual(trial)
                    except SingularMatrixError:
                        e2_t = None
                    if e2_t is not None and e2_t < e2:
                        decrease = (e2 - e2_t) / e2
                        x, e2, r, jac = trial, e2_t, r_t, jac_t
                        if decrease <= _REL_DECREASE:
                            return (x, e2), nfev, True
                        lam /= 10
                        break
            lam *= 10


def optimize_points(
    length_scale: float,
    L: FunctionalSpec,
    n_points: int,
    prec: Optional[PrecisionConfig] = None,
    settings: Optional[OptimizerSettings] = None,
    *,
    _gauss: Optional[GaussRule] = None,
) -> tuple[CubatureRule, OptimizationTrace]:
    """Minimize the worst-case error of the Gaussian kernel of length scale
    ``length_scale`` jointly over nodes and weights.

    One-dimensional: the search runs on the interval of a box or a numeric
    oracle, and on (-10, 10) under the Gaussian measure.  The weights are
    linear and are eliminated by variable projection, leaving a nonlinear
    least-squares problem in the nodes alone: the residual r(x) = P c of
    :class:`_BasisResidual`, whose squared norm is e^2, with its
    Golub-Pereyra Jacobian.  :func:`_levenberg_marquardt` minimizes it
    within the box bounds, in the lane :func:`_search_lane` picks per
    length scale: float64, or mpmath at the optimizer's own
    :func:`_default_optimizer_bits` whatever ``prec`` is, so the nodes
    found do not depend on the output precision or on the caller's mpmath
    context.  The winning nodes are then re-solved once by
    :func:`cubature.optimal_weights` at ``prec`` for the returned weights,
    and :func:`cubature.worst_case_error` of that solve gives the trace's
    wce and the winning restart's summary.  The other restarts' summaries
    scale their last e^2 by the ratio of the two wce at the winning
    nodes, so the winner stays the least.

    Runs one deterministic start from the Gaussian quadrature nodes of the
    functional (when available; a study passes the machine-precision rule
    it has already built as ``_gauss``) plus ``restarts`` seeded
    stratified random starts, with up to ``max_evals`` residual
    evaluations each; the lowest e^2 over all restarts wins.  A start whose basis matrix is singular
    ends that restart without a rule, and a restart summary reads it as
    the zero rule (wce sqrt(LL[K])); a nonpositive e^2 in the search
    raises, as does a negative squared wce beyond the roundoff budget of
    :func:`cubature.worst_case_error`.
    """
    ell = _length_scale(length_scale)
    _check_nodes(L, n_points)
    settings = settings or OptimizerSettings()
    search_prec = PrecisionConfig.extended(_default_optimizer_bits(ell, n_points))
    if prec is None:
        prec = search_prec

    a, b = (float(L.lower[0]), float(L.upper[0])) if L.is_bounded else _UNBOUNDED_BOX
    width = b - a

    search = _search_lane(L, n_points, ell, (a, b))
    residual = _BasisResidual(ell, L, n_points, (a, b), search_prec, search)

    inits: list[tuple[str, list[float]]] = []
    if _gauss is None:
        try:
            _gauss = gauss_rule_from_moments(L, n_points, MACHINE)
        except FlatLimitError:
            pass  # no Gauss rule for this functional: start from the grid
    if _gauss is not None:
        gn = [min(max(v, a), b) for v in _gauss.nodes]
        if all(p < q for p, q in zip(gn, gn[1:])):
            inits.append(("gauss", gn))
    if not inits:
        inits.append(("grid", [a + (k / (n_points + 1)) * width for k in range(1, n_points + 1)]))
    rng = random.Random(settings.seed)
    for k in range(settings.restarts):
        # one draw per stratum keeps the nodes spread out
        y0 = sorted(a + (j / n_points) * width + rng.random() * (width / n_points) for j in range(n_points))
        inits.append((f"random{k}", y0))

    summaries, finals, winner = [], [], None  # finals: each restart's last e^2, None without one
    for name, x0 in inits:
        last, nfev, converged = _levenberg_marquardt(residual, x0, (a, b), settings.max_evals)
        summaries.append({"start": name, "wce": None, "nfev": nfev, "converged": converged})
        finals.append(None if last is None else last[1])
        if last is not None and (winner is None or last[1] < winner[0][1]):
            winner = (last, converged)
    if winner is None:
        raise NumericalInconsistencyError(
            "optimizer never reached a feasible node configuration; widen the box "
            "or reduce n_points"
        )
    (x, e2), converged = winner
    sol = optimal_weights(ell, L, PointSet.from_points([float(v) for v in x]), prec)
    report = worst_case_error(ell, L, sol, prec, assume_optimal=True)
    wce = float(report.wce)
    with search_prec.workprec():
        found_wce = float(rsqrt(e2))
        for summary, e in zip(summaries, finals):
            # a restart without a feasible evaluation reads as the zero rule
            zero_rule = math.sqrt(float(report.initial_term))
            summary["wce"] = zero_rule if e is None else wce * (float(rsqrt(e)) / found_wce)
    return sol.rule, OptimizationTrace(wce, converged, search, summaries)


def chebyshev_system_zero_count(
    length_scale: float,
    coefficients,
    interval: tuple[float, float] = (-1.0, 1.0),
    n_grid: int = 1000,
) -> int:
    """Sign changes of x -> exp(-x^2/(2 l^2)) sum_j c_j x^j on a uniform grid.

    The damped monomials form an extended Chebyshev system, so any nonzero
    combination of the first m of them has at most m - 1 real zeros; this
    counts the sign changes actually seen, a cheap lower bound for the
    zeros, used as a diagnostic of that property.  Only the polynomial p
    changes sign, so a run of grid points is halved until it holds at most
    16 points, evaluated one by one, or until |p| at its middle exceeds
    twice the run's half-width times sum_j j |c_j| R^(j-1) >= |p'| (R the
    interval's largest |endpoint|) and the damping leaves the values
    nonzero: the run then has the sign of p at its middle.
    """
    ell = _length_scale(length_scale)
    try:
        c = [float(v) for v in coefficients]
    except TypeError as e:
        raise ValueError("coefficients must be a non-empty vector") from e
    if not c:
        raise ValueError("coefficients must be a non-empty vector")
    a, b = interval
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("interval must be finite with a < b")
    step = (b - a) / max(n_grid - 1, 1)
    slope = math.fsum(j * abs(cj) * max(-a, b) ** (j - 1) for j, cj in enumerate(c) if j)
    poly = lambda x: reduce(lambda acc, cj: acc * x + cj, reversed(c), 0.0)
    damping = lambda x: rexp(-x * x / (2 * ell**2))

    def signs(first: int, last: int) -> list[bool]:
        lo, hi = a + first * step, a + last * step
        if last - first < 16:
            values = (damping(x) * poly(x) for x in (a + k * step for k in range(first, last + 1)))
            return [v > 0 for v in values if v != 0]
        centre = poly((lo + hi) / 2)
        if slope * (hi - lo) < abs(centre) and damping(max(-lo, hi)) * centre != 0:
            return [centre > 0]
        middle = (first + last) // 2
        return signs(first, middle) + signs(middle + 1, last)

    found = signs(0, n_grid - 1)
    return sum(p != q for p, q in zip(found, found[1:]))

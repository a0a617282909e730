"""Correctness checks of one pass's CSV and manifest against the
independent reference in ``reference.py``.

An operation is one length-scale row of one config.  A row fails when it is
missing from the CSV, is listed under the manifest's ``failures``, or fails
a check below.  Every threshold is fixed here, ahead of any measurement:

sweep rows
  - every weight agrees with the reference's optimal weights (at
    2 x bits + 64) to ``SWEEP_WEIGHT_DIGITS`` significant digits;
  - the wce agrees with the reference's to ``SWEEP_WCE_DIGITS`` digits
    (a gross-error guard only: ``wce_digits`` reports the real figure);
  - ``dist_w_opt_pol`` equals the reference distance between the
    reference optimal weights and the exact rational polynomial weights,
    up to the written weights' own error plus float64 rounding;
  - ``dist_w_opt_pol`` falls strictly from each row to the next, and the
    last row is below ``SHRINK`` times the first.

optimal rows
  - the wce recomputed from the printed nodes and weights is at most the
    reference wce of the Gauss-Legendre nodes with their optimal weights
    (relative slack ``PRINT_SLACK`` for the 17-digit printing);
  - the written weights and wce agree with the reference optimal weights
    and wce at the printed nodes to ``OPTIMAL_DIGITS`` digits;
  - the largest node distance to the Gauss-Legendre nodes (+-1/sqrt(3) for
    N = 2) falls strictly from each row to the next, and the last row is
    below ``SHRINK`` times the first.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import yaml

import reference as ref

SWEEP_WEIGHT_DIGITS = 8.0
SWEEP_WCE_DIGITS = 2.0
OPTIMAL_DIGITS = 8.0
SHRINK = 1e-2
PRINT_SLACK = 1e-12
EPS = 2.0**-52
REFERENCE_SELF_DIGITS = 30.0  # agreement the reference must show with itself at +128 bits


@dataclass
class Outcome:
    """Operations attempted and failed, the problems found, and the fewest
    correct digits seen among the wce values and the weights."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wce_digits: float = math.inf
    weight_digits: float = math.inf
    precision_bits_sum: int = 0

    def fail(self, message: str) -> None:
        self.problems.append(message)


def written_digits(text: str) -> int:
    """Significant digits in a decimal string."""
    mantissa = text.lower().split("e")[0].lstrip("+-").replace(".", "").lstrip("0")
    return max(1, len(mantissa))


def measure_of(functional: dict) -> tuple:
    if functional["kind"] == ref.BOX:
        return (ref.BOX, float(functional["lower"]), float(functional["upper"]))
    return (ref.NORMAL,)


def log_grid(grid: dict) -> list[float]:
    lo, hi, n = math.log10(grid["min"]), math.log10(grid["max"]), grid["count"]
    return [10 ** (lo + (hi - lo) * k / (n - 1)) for k in range(n)]


def _read(out_dir: Path, name: str):
    csv_path, manifest_path = out_dir / name, out_dir / "manifest.yaml"
    if not csv_path.is_file() or not manifest_path.is_file():
        return [], []
    rows = list(csv.DictReader(csv_path.open()))
    failures = [float(f["ell"]) for f in yaml.safe_load(manifest_path.read_text()).get("failures", [])]
    return rows, failures


def _match_rows(grid: list[float], rows: list[dict], failures: list[float], label: str, outcome: Outcome):
    """Pair each grid length scale with its CSV row, or None when the row
    is missing or reported as failed."""
    matched = []
    for ell in grid:
        close = lambda v: abs(v / ell - 1) < 1e-12
        row = next((r for r in rows if close(float(r["ell"]))), None)
        if row is None or any(close(f) for f in failures):
            outcome.fail(f"{label} ell={ell:.6g}: row missing or listed as failed")
            row = None
        matched.append(row)
    return matched


class SweepReference:
    """Reference optimal weights and wce per (config, ell, bits), computed
    once per benchmark run and shared by its passes."""

    def __init__(self) -> None:
        self._cache: dict = {}
        self.problems: list[str] = []

    def get(self, points, measure, ell: float, bits: int):
        key = (tuple(points), measure, ell, bits)
        if key not in self._cache:
            rbits = 2 * bits + 64
            w, e = ref.optimal(points, measure, ell, rbits)
            w2, e2 = ref.optimal(points, measure, ell, rbits + 128)
            agree = min([ref.digits(ref.context(rbits).nstr(e, 60), e2, 60)]
                        + [ref.digits(ref.context(rbits).nstr(a, 60), b, 60) for a, b in zip(w, w2)])
            if agree < REFERENCE_SELF_DIGITS:
                self.problems.append(
                    f"reference at ell={ell:.6g} agrees with itself to only {agree:.1f} digits"
                )
            self._cache[key] = (w2, e2)
        return self._cache[key]


def check_sweep(config: dict, out_dir: Path, refs: SweepReference, pol: list[Fraction], outcome: Outcome) -> None:
    points, measure = config["points"], measure_of(config["functional"])
    label = f"sweep {measure[0]} N={len(points)}"
    grid = log_grid(config["ell_grid"])
    rows, failures = _read(out_dir, "sweep.csv")
    outcome.attempted += len(grid)
    ok = [True] * len(grid)
    dists: list = [None] * len(grid)
    for k, row in enumerate(_match_rows(grid, rows, failures, label, outcome)):
        if row is None:
            ok[k] = False
            continue
        ell, bits = float(row["ell"]), int(row["precision_bits"])
        outcome.precision_bits_sum += bits
        w_ref, e_ref = refs.get(points, measure, ell, bits)
        texts = [row[f"w_{i}"] for i in range(len(points))]
        wd = min(ref.digits(t, r, written_digits(t)) for t, r in zip(texts, w_ref))
        ed = ref.digits(row["wce"], e_ref, written_digits(row["wce"]))
        outcome.weight_digits = min(outcome.weight_digits, wd)
        outcome.wce_digits = min(outcome.wce_digits, ed)
        ctx = w_ref[0].context
        w_err = max(abs(ctx.mpf(t) - r) for t, r in zip(texts, w_ref))
        ref_dist = max(abs(r - ctx.mpf(p.numerator) / p.denominator) for r, p in zip(w_ref, pol))
        dist = float(row["dist_w_opt_pol"])
        tol = float(w_err) + 4 * EPS * max(abs(float(p)) for p in pol)
        dists[k] = dist
        where = f"{label} ell={ell:.6g}"
        if wd < SWEEP_WEIGHT_DIGITS:
            ok[k] = False
            outcome.fail(f"{where}: weights correct to {wd:.1f} digits < {SWEEP_WEIGHT_DIGITS}")
        if ed < SWEEP_WCE_DIGITS:
            ok[k] = False
            outcome.fail(f"{where}: wce correct to {ed:.1f} digits < {SWEEP_WCE_DIGITS}")
        if not abs(dist - float(ref_dist)) <= tol:
            ok[k] = False
            outcome.fail(f"{where}: dist_w_opt_pol {dist:.6e} != reference {float(ref_dist):.6e} (tol {tol:.1e})")
    _check_shrinks(dists, ok, f"{label} dist_w_opt_pol", outcome)
    outcome.failed += ok.count(False)


def _check_shrinks(values: list, ok: list[bool], label: str, outcome: Outcome) -> None:
    """Each present value must be below its present predecessor, and the
    last below SHRINK times the first."""
    prev = None
    for k, v in enumerate(values):
        if v is None:
            continue
        if prev is not None and not v < prev:
            ok[k] = False
            outcome.fail(f"{label} does not fall at row {k}: {v:.6e} >= {prev:.6e}")
        prev = v
    if values[0] is not None and values[-1] is not None and not values[-1] < SHRINK * values[0]:
        ok[-1] = False
        outcome.fail(f"{label} ends at {values[-1]:.3e}, not below {SHRINK} x {values[0]:.3e}")


class GaussReference:
    """Gauss-Legendre nodes mapped to the box, and per ell the reference
    wce of those nodes with their optimal weights."""

    def __init__(self, measure, n_points: int) -> None:
        self.measure = measure
        a, b = measure[1], measure[2]
        self.nodes = [(a + b) / 2 + (b - a) / 2 * x for x in ref.gauss_legendre_nodes(n_points, 256)]
        self._wce: dict = {}

    def wce(self, ell: float, bits: int):
        if ell not in self._wce:
            _, self._wce[ell] = ref.optimal(self.nodes, self.measure, ell, 2 * bits + 64)
        return self._wce[ell]


def check_optimal(config: dict, out_dir: Path, gauss: GaussReference, outcome: Outcome) -> None:
    n, measure = config["n_points"], measure_of(config["functional"])
    label = f"optimal {measure[0]} N={n}"
    grid = log_grid(config["ell_grid"])
    rows, failures = _read(out_dir, "optimal.csv")
    outcome.attempted += len(grid)
    ok = [True] * len(grid)
    node_dists: list = [None] * len(grid)
    for k, row in enumerate(_match_rows(grid, rows, failures, label, outcome)):
        if row is None:
            ok[k] = False
            continue
        ell, bits = float(row["ell"]), int(row["precision_bits"])
        outcome.precision_bits_sum += bits
        rbits = 2 * bits + 64
        xs = [float(row[f"x_{i}"]) for i in range(n)]
        w_texts = [row[f"w_{i}"] for i in range(n)]
        w_ref, e_ref = ref.optimal(xs, measure, ell, rbits)
        e_rule = ref.rule_wce(xs, w_texts, measure, ell, rbits)
        e_gauss = gauss.wce(ell, bits)
        wd = min(ref.digits(t, r, written_digits(t)) for t, r in zip(w_texts, w_ref))
        ed = ref.digits(row["wce"], e_ref, written_digits(row["wce"]))
        outcome.weight_digits = min(outcome.weight_digits, wd)
        outcome.wce_digits = min(outcome.wce_digits, ed)
        node_dists[k] = float(max(abs(x - g) for x, g in zip(xs, gauss.nodes)))
        where = f"{label} ell={ell:.6g}"
        if not e_rule <= e_gauss * (1 + PRINT_SLACK):
            ok[k] = False
            outcome.fail(f"{where}: rule wce {float(e_rule):.9e} above Gauss-Legendre wce {float(e_gauss):.9e}")
        if min(wd, ed) < OPTIMAL_DIGITS:
            ok[k] = False
            outcome.fail(f"{where}: weights/wce correct to {min(wd, ed):.1f} digits < {OPTIMAL_DIGITS}")
    _check_shrinks(node_dists, ok, f"{label} node distance to Gauss-Legendre", outcome)
    outcome.failed += ok.count(False)


def reference_self_checks(measure) -> list[str]:
    """Run-level checks of the reference itself: closed-form double
    embedding against tanh-sinh quadrature, and the textbook limits."""
    problems = []
    ctx = ref.context(256)
    for ell in (1.0, 1e4):
        closed = ref.double_embedding(ctx, measure, ell)
        quad = ref.double_embedding_by_quadrature(ctx, measure, ell)
        if not abs(closed - quad) <= abs(closed) * ctx.mpf(2) ** -200:
            problems.append(f"reference double embedding at ell={ell:g} disagrees with quadrature")
    expected = {ref.BOX: [Fraction(1, 3), Fraction(4, 3), Fraction(1, 3)],
                ref.NORMAL: [Fraction(1, 2), Fraction(0), Fraction(1, 2)]}
    if ref.polynomial_weights([-1.0, 0.0, 1.0], measure, 2) != expected[measure[0]]:
        problems.append("reference polynomial weights on {-1, 0, 1} are not the textbook rule")
    if measure[0] == ref.BOX:
        root = ctx.sqrt(ctx.mpf(1) / 3)
        nodes = ref.gauss_legendre_nodes(2, 256)
        if not max(abs(nodes[0] + root), abs(nodes[1] - root)) < ctx.mpf(2) ** -240:
            problems.append("reference Gauss-Legendre nodes for N=2 are not +-1/sqrt(3)")
    return problems

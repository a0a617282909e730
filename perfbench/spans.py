"""Span recording for the traced run.

The library is timed from outside: each public function named in
``TARGETS`` is replaced, in every flatlimit module that holds it by name,
with a wrapper that records a span (name, start, end, parent).  Spans stay
in memory and are written out once the pass ends; :func:`summarize` turns
them into per-layer call counts and self times.
"""
from __future__ import annotations

import functools
import sys
import time

# (module, function, span name); several functions may share a span name
TARGETS = [
    ("kernels", "gram_matrix", "kernels.gram_matrix"),
    ("functionals", "kernel_embedding", "functionals.kernel_embedding"),
    ("functionals", "double_embedding", "functionals.double_embedding"),
    ("functionals", "damped_moment", "functionals.damped_moment"),
    ("functionals", "moment", "functionals.moment"),
    ("functionals", "quad1d", "functionals.quad1d"),
    ("linalg", "solve_spd", "linalg.solve_spd"),
    ("linalg", "solve_general", "linalg.solve_general"),
    ("linalg", "condition_estimate", "linalg.condition_estimate"),
    ("cubature", "optimal_weights", "cubature.optimal_weights"),
    ("cubature", "worst_case_error", "cubature.worst_case_error"),
    ("cubature", "phi_weights", "cubature.phi_weights"),
    ("cubature", "polynomial_weights", "cubature.polynomial_weights"),
    ("cubature", "unisolvency_check", "cubature.unisolvency_check"),
    ("gauss_optimal", "optimize_points", "gauss_optimal.optimize_points"),
    ("gauss_optimal", "gauss_rule_from_moments", "gauss_optimal.gauss_rule_from_moments"),
    ("experiments", "run_sweep", "experiments.run_sweep"),
    ("experiments", "run_optimal_study", "experiments.run_optimal_study"),
    ("experiments", "sweep_csv_lines", "experiments.format"),
    ("experiments", "optimal_csv_lines", "experiments.format"),
    ("experiments", "sweep_manifest", "experiments.format"),
    ("experiments", "optimal_manifest", "experiments.format"),
]
CLI_SPAN = "cli"


class Recorder:
    """Spans as [name, start, end, parent index] lists; parent -1 is a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, package: str = "flatlimit") -> None:
        """Patch every target in each loaded module of ``package`` that
        refers to it by name (the defining module and its importers)."""
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for mod_name, fn_name, span in TARGETS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(span, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``span_s`` and ``self_s`` (the span
    minus the time its child spans cover)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child):
        agg = out.setdefault(name, {"calls": 0, "span_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["span_s"] += end - start
        agg["self_s"] += end - start - inner
    return out


def objective_solves(spans: list[list]) -> int:
    """SPD solves issued directly by the node optimizer: one per objective
    evaluation, plus the final re-solve of the winning nodes."""
    return sum(
        1
        for name, _, _, parent in spans
        if name == "linalg.solve_spd" and parent >= 0 and spans[parent][0] == "gauss_optimal.optimize_points"
    )

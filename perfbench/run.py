"""Benchmark of flatlimit's flat-limit sweeps and node optimisation.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_box --seed 1 --seconds 35 --trace 0

A run repeats cold passes of one workload for ``--seconds`` seconds.  Each
pass is a fresh interpreter (``worker.py``) that imports ``flatlimit.cli``
from ``src/`` and calls ``flatlimit.cli.main`` on generated configs, writing
CSV and manifest under ``perfbench/out/``.  After the timed loop every
pass's output is checked against the independent reference
(``reference.py``, via ``checks.py``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
around the library's public functions with ``--trace 1``.  Every metric is
the median over the run's passes.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 150  # a pass is stopped once the run has lasted this long
# Times are reported at a reference host speed: each phase of a pass is
# scaled by PROBE_REFERENCE_S / (median probe of that phase), see worker.py.
# The constant is the median probe on the machine of the README's figures.
PROBE_REFERENCE_S = 5e-4

ELL_GRID = {"min": 1.0, "max": 10000.0, "count": 13}
BOX = {"kind": "lebesgue_box", "lower": -1.0, "upper": 1.0}
NORMAL = {"kind": "gaussian_measure"}


def chebyshev(n: int) -> list[float]:
    """Chebyshev points of the first kind on [-1, 1], mirrored so the set
    is exactly symmetric in binary."""
    half = [math.cos((2 * k + 1) * math.pi / (2 * n)) for k in range(n // 2)]
    return sorted([-x for x in half] + ([0.0] if n % 2 else []) + half)


NODE_SETS = [([-1.0, 0.0, 1.0], 2), (chebyshev(6), 5), (chebyshev(10), 9)]


def sweep_commands(functional: dict) -> list[tuple[str, dict]]:
    return [
        ("sweep", {"kernel": {"family": "gaussian"}, "functional": functional, "points": points,
                   "degree": degree, "ell_grid": ELL_GRID, "precision": "auto"})
        for points, degree in NODE_SETS
    ]


def optimal_commands(seed: int) -> list[tuple[str, dict]]:
    # the make-up of configs/optimal_legendre.yaml, with the optimiser seed drawn per pass
    return [
        ("optimal", {"kernel": {"family": "gaussian"}, "functional": BOX, "n_points": 2,
                     "ell_grid": {"min": 5.0, "max": 100.0, "count": 5}, "precision": "auto",
                     "optimizer": {"restarts": 4, "max_evals": 6000, "seed": seed}, "seed": seed})
    ]


WORKLOADS = {
    "sweep_box": lambda rng: sweep_commands(BOX),
    "sweep_normal": lambda rng: sweep_commands(NORMAL),
    "optimize_box": lambda rng: optimal_commands(rng.randrange(2**31)),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "wce_digits": "digits",
    "weight_digits": "digits",
}
CALLS_AND_SELF = [
    "kernels.gram_matrix",
    "functionals.kernel_embedding",
    "functionals.double_embedding",
    "functionals.damped_moment",
    "functionals.moment",
    "functionals.quad1d",
    "linalg.solve_spd",
    "linalg.solve_general",
    "linalg.condition_estimate",
]
SELF_ONLY = [
    "cubature.optimal_weights",
    "cubature.worst_case_error",
    "cubature.phi_weights",
    "cubature.polynomial_weights",
    "cubature.unisolvency_check",
    "gauss_optimal.optimize_points",
    "gauss_optimal.gauss_rule_from_moments",
    "experiments.run_sweep",
    "experiments.run_optimal_study",
    "experiments.format",
]
IMPORTS = {"flatlimit": "flatlimit", "scipy_integrate": "scipy.integrate",
           "scipy_optimize": "scipy.optimize", "mpmath": "mpmath"}
PER_LAYER = (
    {f"{n}.calls": "count" for n in CALLS_AND_SELF}
    | {f"{n}.s": "s" for n in CALLS_AND_SELF + SELF_ONLY}
    | {"gauss_optimal.objective_evals": "count", "gauss_optimal.ms_per_eval": "ms",
       "experiments.precision_bits_sum": "bits", "cli.s": "s"}
    | {f"setup.import.{k}_s": "s" for k in IMPORTS}
    | {"traced.run_s": "s", "host.probe_s": "s"}
)


def run_pass(run_dir: Path, index: int, commands: list[tuple[str, dict]], trace: bool, timeout: float) -> dict:
    """One cold pass; returns the worker's result with ``setup_s`` added,
    or an ``error`` entry when the worker did not finish."""
    pdir = run_dir / f"pass{index}"
    pdir.mkdir()
    argv = []
    for j, (sub, config) in enumerate(commands):
        path = pdir / f"config{j}.yaml"
        path.write_text(json.dumps(config))  # JSON is YAML
        argv.append([sub, "--config", str(path), "--out", str(pdir / f"out{j}")])
    job = pdir / "job.json"
    result_path = pdir / "result.json"
    job.write_text(json.dumps({"src": str(SRC), "argv": argv, "trace": trace, "result": str(result_path)}))
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [str(HERE / "worker.py"), str(job)]
    env = {k: v for k, v in os.environ.items() if k != "FLATLIMIT_PRECISION_BITS"}
    spawned = time.perf_counter()  # CLOCK_MONOTONIC: comparable with the worker's readings
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} stopped after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"pass {index} worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned - result["setup_probe_s"]
    probes = result["probes"]
    for phase in ("setup", "run"):
        median = statistics.median(probes[phase] or probes["setup"] + probes["run"])
        result[f"{phase}_scale"] = PROBE_REFERENCE_S / median
    result["imports"] = parse_importtime(proc.stderr) if trace else {}
    return result


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of the modules in IMPORTS, from the
    interpreter's ``-X importtime`` report (microseconds)."""
    wanted = {mod: key for key, mod in IMPORTS.items()}
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip() in wanted and parts[1].strip().isdigit():
            out.setdefault(wanted[parts[2].strip()], int(parts[1]) / 1e6)
    return out


def check_passes(workload: str, passes: list[tuple[list, dict]], run_dir: Path):
    """Check every pass's output; returns per-pass outcomes and run-level problems."""
    outcomes = []
    if workload == "optimize_box":
        measure = checks.measure_of(BOX)
        gauss = checks.GaussReference(measure, 2)
        problems = checks.reference_self_checks(measure)
        for k, (commands, _) in enumerate(passes):
            outcome = checks.Outcome()
            checks.check_optimal(commands[0][1], run_dir / f"pass{k}" / "out0", gauss, outcome)
            outcomes.append(outcome)
        return outcomes, problems
    functional = passes[0][0][0][1]["functional"]
    measure = checks.measure_of(functional)
    problems = checks.reference_self_checks(measure)
    refs = checks.SweepReference()
    pols = [reference.polynomial_weights(points, measure, degree) for points, degree in NODE_SETS]
    for k, (commands, _) in enumerate(passes):
        outcome = checks.Outcome()
        for j, ((_, config), pol) in enumerate(zip(commands, pols)):
            checks.check_sweep(config, run_dir / f"pass{k}" / f"out{j}", refs, pol, outcome)
        outcomes.append(outcome)
    return outcomes, problems + refs.problems


def layer_metrics(result: dict, outcome) -> dict[str, float]:
    """Per-layer figures of one traced pass, times at the reference speed."""
    summary = spans.summarize(result["spans"])
    run = result["run_scale"]
    get = lambda name, key: summary.get(name, {}).get(key, 0)
    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = get(name, "calls")
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.s"] = run * get(name, "self_s")
    evals = spans.objective_solves(result["spans"])
    out["gauss_optimal.objective_evals"] = evals
    span_ms = 1000 * run * get("gauss_optimal.optimize_points", "span_s")
    out["gauss_optimal.ms_per_eval"] = span_ms / evals if evals else 0.0
    out["experiments.precision_bits_sum"] = outcome.precision_bits_sum
    out["cli.s"] = run * get(spans.CLI_SPAN, "self_s")
    for key in IMPORTS:
        out[f"setup.import.{key}_s"] = result["setup_scale"] * result["imports"].get(key, 0.0)
    out["traced.run_s"] = run * result["run_s"]
    out["host.probe_s"] = statistics.median(result["probes"]["run"] or [0.0])
    return out


def finite(digits: float) -> float:
    """Digits of a pass that wrote no checked value read as none correct."""
    return digits if math.isfinite(digits) else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "flatlimit" / "cli.py").is_file():
        print(f"error: no flatlimit sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "flatlimit"), quiet=1)  # the build: bytecode before timing

    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        rng = random.Random(args.seed)
        passes = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            # start a pass only if one of average length still ends in time
            if passes and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
            commands = WORKLOADS[args.workload](rng)
            timeout = RUN_LIMIT_S - elapsed
            passes.append((commands, run_pass(run_dir, len(passes), commands, bool(args.trace), timeout)))
        outcomes, problems = check_passes(args.workload, passes, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for k, (_, result) in enumerate(passes):
        if "error" in result:
            problems.append(result["error"])
        elif any(result["exit_codes"]):
            problems.append(f"pass {k}: CLI exit codes {result['exit_codes']}")
    for outcome in outcomes:
        problems += outcome.problems
    good = [(r, o) for (_, r), o in zip(passes, outcomes) if "error" not in r]
    if not good:
        print("\n".join(problems), file=sys.stderr)
        print("error: no pass finished", file=sys.stderr)
        return 1

    if args.trace:
        samples = [layer_metrics(r, o) for r, o in good]
        units = PER_LAYER
    else:
        samples = [
            {"setup_s": r["setup_scale"] * r["setup_s"], "run_s": r["run_scale"] * r["run_s"],
             "peak_rss_mb": r["peak_rss_mb"],
             "wce_digits": finite(o.wce_digits), "weight_digits": finite(o.weight_digits)}
            for r, o in good
        ]
        units = END_TO_END
    metrics = {}
    unscaled = {"setup_s": [r["setup_s"] for r, _ in good], "run_s": [r["run_s"] for r, _ in good]}
    probe = statistics.median(p for r, _ in good for p in r["probes"]["run"] or [0.0])
    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes, median probe "
          f"{1000 * probe:.4g} ms (reference {1000 * PROBE_REFERENCE_S:.4g} ms)")
    for name, unit in units.items():
        values = [s[name] for s in samples]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        note = f", unscaled {statistics.median(unscaled[name]):.6g}" if name in unscaled else ""
        print(f"  {name:44s} {med:14.6g} {unit:7s} (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)}{note})")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

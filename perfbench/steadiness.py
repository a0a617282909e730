"""Run the benchmark several times per workload and report its spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --runs 3 --trace 1 --workloads optimize_box

Each run gets its own seed.  For every metric the script prints the median
and quartiles of the runs' values (``statistics.quantiles(values, n=4)``)
and the spread, the quartile distance as a share of the median.  For
end-to-end metrics it also prints the bound from ``BENCHMARK.json`` and
whether the spread stays below a third of it (``setup_s`` is exempt from
the spread rule).  The failed share of every run is listed last; it must
be the same in every run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    steady = True
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: correct {results[-1]['correct']}, "
                  f"failed {results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
        print(f"{workload}: {args.runs} runs")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:44s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
            if name in bounds:
                ok = name == "setup_s" or spread < bounds[name] / 3
                steady &= ok
                line += f"  bound {bounds[name]}  {'ok' if ok else 'WIDE'}"
            print(line)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        steady &= correct and len(shares) == 1
        print(f"  failed share {shares}, all correct {correct}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

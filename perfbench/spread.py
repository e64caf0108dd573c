"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --runs 10 [--first-seed 1]

Runs the benchmark once per seed and prints, for each metric, the median
and the inter-quartile distance as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, samples in values.items():
        print(f"{name:12s} median {statistics.median(samples):12.6g}  "
              f"spread {quartile_spread(samples):7.4f}  bound {bounds[name]}  "
              f"values {[round(v, 4) for v in samples]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

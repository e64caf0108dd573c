"""The repository benchmark: workloads, output checks, metrics and tracing.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics.  Nothing here edits ``src/``: per-layer numbers come
from wrapping the public functions of the ``repro`` packages from outside.
"""

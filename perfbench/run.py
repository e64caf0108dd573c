"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Without ``--workload`` every workload runs
in turn, each in its own process.  Load is a single closed-loop caller: one
op at a time, each with a fresh seed derived from ``--seed``.

``--trace 0`` reports the end-to-end metrics: set-up and the cold op are
taken in fresh interpreters (median of :data:`FRESH_PROCESSES`), then this
process warms up with one op cycle and times whole op cycles for
``--seconds`` of op time and at least 21 ops.  On ``experiments-quick``
every op already starts two fresh interpreters, which report set-up and
the cold op themselves, and the timed loop stops after ``--seconds``.
``--trace 1`` reports the per-layer metrics: half the time untraced, half
with spans around the ``repro`` functions in ``perfbench.layers.PROBES``.
Details (host, versions, per-op records and cache deltas, spans) go to
``.perfbench-out/``; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("counts-single", "counts-sweep", "batched-tier", "experiments-quick")
#: Fresh interpreters per run for ``setup_s`` and ``cold_op_s`` (on
#: workloads whose ops run in this process).
FRESH_PROCESSES = 6
#: ``-X importtime`` samples per traced run.
IMPORT_SAMPLES = 3
#: Op-seed streams, so no two ops of a run ever share a seed.
TIMED, WARMUP, FRESH, TRACED = range(4)
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    """The environment for this process's numpy and for every child.

    BLAS always gets :data:`BLAS_THREADS`: the counts tier multiplies
    ``k x k`` matrices, and on shared cores a second BLAS thread added
    run-to-run noise, not speed.
    """
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _run_every_workload(args) -> int:
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def _fresh_runs(name: str, seed: int, env: dict) -> list:
    from perfbench.workloads import op_seed

    runs = []
    for index in range(FRESH_PROCESSES):
        completed = subprocess.run(
            [sys.executable, "-m", "perfbench.fresh", "op", name,
             str(op_seed(seed, FRESH, index)), str(OUT)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"fresh process failed:\n{completed.stderr[-2000:]}")
        runs.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return runs


def _timed(ops, seed, stream, seconds, ctx, tracer=None, min_ops=1) -> list:
    """Whole op cycles until ``seconds`` of op time and ``min_ops`` ops are measured."""
    from perfbench.workloads import execute, op_seed

    records, busy, index = [], 0.0, 0
    while index < min_ops or busy < seconds or index % len(ops):
        op = ops[index % len(ops)]
        record = execute(op, op_seed(seed, stream, index), ctx, index, tracer)
        busy += record["seconds"]
        records.append(record)
        index += 1
    return records


def _import_times(env: dict) -> dict:
    """Median ``-X importtime`` seconds of repro, scipy and networkx."""
    from perfbench.stats import package_import_seconds, parse_importtime

    samples = []
    for _ in range(IMPORT_SAMPLES):
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"import repro failed:\n{completed.stderr[-2000:]}")
        rows = parse_importtime(completed.stderr)
        samples.append(package_import_seconds(rows, ("repro", "scipy", "networkx")))
    return {key: statistics.median(sample[key] for sample in samples) for key in samples[0]}


def _median(values: list) -> float:
    # Children that failed report no timings; their ops count as failed.
    return statistics.median(values) if values else float("nan")


def _end_to_end(name, ops, args, ctx, env):
    from perfbench.stats import TAIL_SAMPLES, mix_median, mix_tail, throughput

    if ops[0].spawns_cli:
        # Each op is two fresh interpreters (run-all, then --resume) that
        # report their own set-up, and the run-all child's main() call is
        # the first op in its process: those are the cold samples.  The
        # memory that matters is the children's.
        records = _timed(ops, args.seed, TIMED, args.seconds, ctx)
        children = [record.get("children", []) for record in records]
        setup = [child["setup_s"] for pair in children for child in pair]
        cold = [pair[0]["run_s"] for pair in children if pair]
        checked = records
        who = resource.RUSAGE_CHILDREN
    else:
        # Ops here take about a second or less, so a run on a slow host
        # runs a little longer rather than lose its resolved tail.
        fresh = _fresh_runs(name, args.seed, env)
        setup = [run["setup_s"] for run in fresh]
        cold = [run["cold"]["seconds"] for run in fresh]
        warmup = _timed(ops, args.seed, WARMUP, 0.0, ctx)
        records = _timed(ops, args.seed, TIMED, args.seconds, ctx, min_ops=TAIL_SAMPLES)
        checked = [run["cold"] for run in fresh] + warmup + records
        who = resource.RUSAGE_SELF
    labels = [record["op"] for record in records]
    times = [record["seconds"] for record in records]
    tail_s, tail_pct, beyond = mix_tail(labels, times)
    failed = sum(bool(record["errors"]) for record in checked)
    metrics = {
        "setup_s": (_median(setup), "s"),
        "ops_per_s": (throughput(records), "1/s"),
        "op_p50_s": (mix_median(labels, times), "s"),
        "op_tail_s": (tail_s, "s"),
        "cold_op_s": (_median(cold), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "passed_frac": (1.0 - failed / len(checked), "fraction"),
    }
    details = {
        "samples": {"setup_s": len(setup), "cold_op_s": len(cold), "op_p50_s": len(times),
                    "op_tail_s": len(times), "ops_per_s": len(times)},
        "op_tail": {"percentile": tail_pct, "samples_beyond": beyond},
        "setup": setup, "cold": cold, "ops": checked,
    }
    return metrics, checked, details


def _per_layer(name, ops, args, ctx, env):
    from perfbench.layers import PER_LAYER, PROBES, layer_metrics
    from perfbench.spans import Tracer, install, uninstall

    imports = _import_times(env)
    warmup = _timed(ops, args.seed, WARMUP, 0.0, ctx)
    untraced = _timed(ops, args.seed, TIMED, args.seconds / 2, ctx)
    tracer = Tracer()
    tracer.enabled = False
    undo = install(tracer, PROBES, packages=("repro", "perfbench"))
    try:
        traced = _timed(ops, args.seed, TRACED, args.seconds / 2, ctx, tracer)
    finally:
        uninstall(undo)
    values = layer_metrics(tracer.spans, traced, untraced, imports)
    metrics = {metric: (values[metric], unit) for metric, unit, _ in PER_LAYER}
    details = {"imports": imports, "warmup": warmup, "untraced": untraced, "traced": traced,
               "spans": [span.to_list() for span in tracer.spans]}
    return metrics, warmup + untraced + traced, details


def _provenance(seed: int) -> dict:
    from perfbench.host import describe

    return describe(ROOT, seed, BLAS_THREADS)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_every_workload(args)
    env = _child_env()
    os.environ.update({key: env[key] for key in env if key.endswith("_NUM_THREADS")})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {ROOT}", file=sys.stderr)
        return 2
    from perfbench import workloads

    OUT.mkdir(exist_ok=True)
    ops = workloads.build(args.workload)
    ctx = workloads.Context(ROOT, OUT, cli_in_subprocess=not args.trace, env=env)
    measure = _per_layer if args.trace else _end_to_end
    metrics, checked, details = measure(args.workload, ops, args, ctx, env)
    failed = [record for record in checked if record["errors"]]

    report = {"workload": args.workload, "trace": args.trace,
              "provenance": _provenance(args.seed),
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()},
              **details}
    kind = "trace" if args.trace else "run"
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report))
    print(" ".join(f"{key}={value}" for key, value in report["provenance"].items()))
    for key, (value, unit) in metrics.items():
        samples = details.get("samples", {}).get(key)
        suffix = f"  (n={samples})" if samples else ""
        print(f"{args.workload:18s} {key:58s} {value:14.6g} {unit}{suffix}")
    for record in failed[:10]:
        print(f"FAILED op {record['index']} {record['op']}: {record['errors']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics of a traced run.

The layers are the ``repro`` packages.  :data:`PROBES` names the public
functions the traced run wraps; :func:`layer_metrics` turns the recorded
spans, the per-op records and the import timings into the ``per_layer``
metrics of ``BENCHMARK.json``.  Times and counts are per traced op.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Tuple

from perfbench.spans import Probe, Span, self_times
from perfbench.stats import throughput

EXPERIMENT_IDS = tuple(f"E{index}" for index in range(1, 16))


def _rows(args, kwargs, result) -> Dict[str, float]:
    probabilities = args[0] if args else kwargs["probabilities"]
    return {"rows": float(probabilities.shape[0])}


def _tasks(args, kwargs, result) -> Dict[str, float]:
    return {"tasks": float(len(args[0] if args else kwargs["tasks"]))}


def _points(args, kwargs, result) -> Dict[str, float]:
    return {"points": float(len(result))}


def _json_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": float(len(result))}


def _fetch_hit(args, kwargs, result) -> Dict[str, float]:
    return {"hits": float(result is not None)}


def _job_name(args, kwargs) -> str:
    job = args[0] if args else kwargs["job"]
    return f"experiments.{job.experiment_id}"


PROBES: Tuple[Probe, ...] = (
    Probe("network.majority_vote_law",
          ("repro.network.pull_model:majority_vote_law",), _rows),
    Probe("network.dense_majority_vote_law",
          ("repro.network.pull_model:dense_majority_vote_law",)),
    Probe("network.poisson_tail_probability",
          ("repro.network.balls_bins:poisson_tail_probability",)),
    Probe("network.push_model.run_ensemble_phase_from_senders",
          ("repro.network.push_model:UniformPushModel.run_ensemble_phase_from_senders",)),
    Probe("network.mailbox.majority_votes",
          ("repro.network.mailbox:ReceivedMessages.majority_votes",
           "repro.network.mailbox:EnsembleReceivedMessages.majority_votes")),
    Probe("noise.recolor_rows", ("repro.noise.matrix:NoiseMatrix.recolor_rows",)),
    Probe("noise.apply_to_count_matrix",
          ("repro.noise.matrix:NoiseMatrix.apply_to_count_matrix",)),
    Probe("core.stage1.run_phase",
          tuple(f"repro.core.stage1:{cls}.run_phase" for cls in
                ("Stage1Executor", "EnsembleStage1Executor", "CountsStage1Executor"))),
    Probe("core.stage2.run_phase",
          tuple(f"repro.core.stage2:{cls}.run_phase" for cls in
                ("Stage2Executor", "EnsembleStage2Executor", "CountsStage2Executor"))),
    Probe("core.run_heterogeneous_counts_protocol",
          ("repro.core.protocol:run_heterogeneous_counts_protocol",), _tasks),
    Probe("dynamics.run_heterogeneous_counts_dynamics",
          ("repro.dynamics.base:run_heterogeneous_counts_dynamics",), _tasks),
    Probe("dynamics.counts_run", ("repro.dynamics.base:EnsembleCountsDynamics.run",)),
    Probe("faults.phase_sampler",
          ("repro.faults.injection:FaultedPhaseSampler.phase_ball_deltas",)),
    Probe("sim.simulate", ("repro.sim.facade:simulate",)),
    Probe("sim.simulate_sweep", ("repro.sim.sweep:simulate_sweep",), _points),
    Probe("sim.result.to_json", ("repro.sim.result:SimulationResult.to_json",), _json_bytes),
    Probe(_job_name, ("repro.experiments.orchestrator:run_experiment_job",)),
    Probe("experiments.result_store.store",
          ("repro.experiments.orchestrator:ResultStore.store",)),
    Probe("experiments.result_store.fetch",
          ("repro.experiments.orchestrator:ResultStore.fetch",), _fetch_hit),
    Probe("cli.main", ("repro.cli:main",)),
)

#: ``(metric, unit, better)`` in the order ``BENCHMARK.json`` lists
#: ``per_layer``.  ``core.rounds`` is a guard, not a cost: it is exact for a
#: given seed, and a drop means a speed-up came from running fewer rounds.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("import.repro_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.networkx_s", "s", "lower"),
    ("network.majority_vote_law.calls", "calls/op", "lower"),
    ("network.majority_vote_law.rows", "rows/op", "lower"),
    ("network.majority_vote_law.self_s", "s/op", "lower"),
    ("network.dense_majority_vote_law.calls", "calls/op", "lower"),
    ("network.dense_majority_vote_law.self_s", "s/op", "lower"),
    ("network.vote_law_cache.law_hit_ratio", "ratio", "higher"),
    ("network.vote_law_cache.law_lookups", "lookups/op", "lower"),
    ("network.vote_law_cache.table_hit_ratio", "ratio", "higher"),
    ("network.vote_law_cache.table_lookups", "lookups/op", "lower"),
    ("network.vote_law_cache.dense_hit_ratio", "ratio", "higher"),
    ("network.vote_law_cache.dense_lookups", "lookups/op", "lower"),
    ("network.poisson_tail_probability.calls", "calls/op", "lower"),
    ("network.poisson_tail_probability.self_s", "s/op", "lower"),
    ("network.push_model.run_ensemble_phase_from_senders.self_s", "s/op", "lower"),
    ("network.mailbox.majority_votes.self_s", "s/op", "lower"),
    ("noise.recolor_rows.calls", "calls/op", "lower"),
    ("noise.recolor_rows.self_s", "s/op", "lower"),
    ("noise.apply_to_count_matrix.self_s", "s/op", "lower"),
    ("core.stage1.run_phase.calls", "calls/op", "lower"),
    ("core.stage1.run_phase.self_s", "s/op", "lower"),
    ("core.stage2.run_phase.calls", "calls/op", "lower"),
    ("core.stage2.run_phase.self_s", "s/op", "lower"),
    ("core.run_heterogeneous_counts_protocol.self_s", "s/op", "lower"),
    ("core.rounds", "rounds/op", "higher"),
    ("dynamics.run_heterogeneous_counts_dynamics.self_s", "s/op", "lower"),
    ("dynamics.counts_run.self_s", "s/op", "lower"),
    ("faults.phase_sampler.self_s", "s/op", "lower"),
    ("sim.simulate.calls", "calls/op", "lower"),
    ("sim.simulate.self_s", "s/op", "lower"),
    ("sim.simulate_sweep.self_s", "s/op", "lower"),
    ("sim.sweep.fused_ratio", "ratio", "higher"),
    ("sim.sweep.points", "points/op", "lower"),
    ("sim.result.to_json.self_s", "s/op", "lower"),
    ("sim.result.json_bytes", "bytes/op", "lower"),
    *((f"experiments.{eid}_s", "s/op", "lower") for eid in EXPERIMENT_IDS),
    ("experiments.result_store.store_s", "s/op", "lower"),
    ("experiments.result_store.fetch_s", "s/op", "lower"),
    ("experiments.result_store.hit_ratio", "ratio", "higher"),
    ("experiments.result_store.fetches", "fetches/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "spans/op", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def span_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and summed counters."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += own
        for key, amount in span.counts.items():
            entry[key] = entry.get(key, 0.0) + amount
    return totals


def layer_metrics(
    spans: Sequence[Span],
    traced: Sequence[Mapping[str, Any]],
    untraced: Sequence[Mapping[str, Any]],
    imports: Mapping[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``traced``/``untraced`` are the op records of the two timed halves;
    ``imports`` holds the median ``-X importtime`` seconds per package.
    """
    ops = len(traced)
    totals = span_totals(spans)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def per_op(name: str, key: str) -> float:
        return get(name, key) / ops

    metrics: Dict[str, float] = {
        "import.repro_s": imports["repro"],
        "import.scipy_s": imports["scipy"],
        "import.networkx_s": imports["networkx"],
    }
    for metric, _, _ in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        if key == "calls":
            metrics[metric] = per_op(layer, "calls")
        elif key == "self_s":
            metrics[metric] = per_op(layer, "self_s")
    metrics["network.majority_vote_law.rows"] = per_op("network.majority_vote_law", "rows")

    for kind in ("law", "table", "dense"):
        prefix = "dense_table" if kind == "dense" else kind
        hits = sum(record["vote_law_cache"][f"{prefix}_hits"] for record in traced)
        misses = sum(record["vote_law_cache"][f"{prefix}_misses"] for record in traced)
        metrics[f"network.vote_law_cache.{kind}_hit_ratio"] = _ratio(hits, hits + misses)
        metrics[f"network.vote_law_cache.{kind}_lookups"] = (hits + misses) / ops

    metrics["core.rounds"] = sum(record.get("rounds", 0) for record in traced) / ops
    points = get("sim.simulate_sweep", "points")
    fused = get("core.run_heterogeneous_counts_protocol", "tasks") + get(
        "dynamics.run_heterogeneous_counts_dynamics", "tasks"
    )
    metrics["sim.sweep.fused_ratio"] = _ratio(fused, points)
    metrics["sim.sweep.points"] = points / ops
    metrics["sim.result.json_bytes"] = per_op("sim.result.to_json", "bytes")

    for eid in EXPERIMENT_IDS:
        metrics[f"experiments.{eid}_s"] = per_op(f"experiments.{eid}", "total_s")
    store = "experiments.result_store"
    metrics[f"{store}.store_s"] = per_op(f"{store}.store", "total_s")
    metrics[f"{store}.fetch_s"] = per_op(f"{store}.fetch", "total_s")
    fetches = get(f"{store}.fetch", "calls")
    metrics[f"{store}.hit_ratio"] = _ratio(get(f"{store}.fetch", "hits"), fetches)
    metrics[f"{store}.fetches"] = fetches / ops

    # The benchmark opens one "op" span around each op; its self time is
    # the op time no layer span covers.
    metrics["trace.ops"] = float(ops)
    metrics["trace.spans"] = (len(spans) - get("op", "calls")) / ops
    metrics["trace.uncovered_frac"] = _ratio(get("op", "self_s"), get("op", "total_s"))
    traced_rate = throughput(traced)
    untraced_rate = throughput(untraced)
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return metrics

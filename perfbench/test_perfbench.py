"""Tests of the benchmark's own logic (not of the program it measures)."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, spans, stats
from perfbench.run import WORKLOADS
from repro.sim import Scenario, simulate

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_children():
    # op [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer = spans.Tracer(FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    op = tracer.open("op")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(op)
    assert [span.parent for span in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert spans.covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert spans.covered_length([], 0, 10) == 0


def test_tracer_skips_calls_while_disabled():
    tracer = spans.Tracer()
    double = tracer.wrap("double", lambda x: 2 * x, lambda a, k, r: {"out": r})
    tracer.enabled = False
    assert double(1) == 2
    assert tracer.spans == []
    tracer.enabled = True
    assert double(3) == 6
    assert [(span.name, span.counts) for span in tracer.spans] == [("double", {"out": 6})]


def test_install_wraps_every_lookup_and_uninstall_restores():
    import repro.sim
    import repro.sim.facade
    import repro.sim.sweep

    original = repro.sim.facade.simulate
    tracer = spans.Tracer()
    undo = spans.install(tracer, [spans.Probe("sim.simulate", ("repro.sim.facade:simulate",))])
    try:
        assert repro.sim.simulate is repro.sim.facade.simulate is repro.sim.sweep.simulate
        assert repro.sim.simulate is not original
        repro.sim.simulate(Scenario(workload="rumor", num_nodes=600, engine="counts"))
    finally:
        spans.uninstall(undo)
    assert [span.name for span in tracer.spans] == ["sim.simulate"]
    assert repro.sim.simulate is original and repro.sim.sweep.simulate is original


@pytest.mark.parametrize("n", [1, 5, 20])
def test_tail_is_the_slowest_sample_below_21_samples(n):
    values = [float(v) for v in range(n, 0, -1)]
    assert stats.tail(values) == (float(n), 100.0, 0)


@pytest.mark.parametrize("n", [21, 50, 100])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    value, percentile, beyond = stats.tail(values)
    assert beyond == 10
    assert sum(v > value for v in values) == 10
    assert value == n - 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_mix_median_averages_the_per_kind_medians():
    labels = ["a", "b"] * 3
    values = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0]
    assert stats.mix_median(labels, values) == (2.0 + 20.0) / 2


def test_mix_tail_pools_slowdowns_across_kinds():
    fast = [1.0 + 0.1 * i for i in range(21)]  # median 2.0; 2.5 is 10 from the top
    labels = ["a"] * 21 + ["b"] * 21
    values = fast + [10 * v for v in fast]
    value, percentile, beyond = stats.mix_tail(labels, values)
    assert value == pytest.approx((2.0 + 20.0) / 2 * 2.5 / 2.0)
    assert percentile == pytest.approx(100.0 * 32 / 42)
    assert beyond == 10


def test_throughput_counts_every_op_second():
    records = [{"seconds": s} for s in (1.0, 1.0, 1.0, 9.0, 1.0, 2.0)]
    assert stats.throughput(records) == 6 / 15.0


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 4) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_importtime_totals_count_nested_modules_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |   scipy.optimize",
        "import time:        50 |         50 |   networkx",
        "import time:      1000 |       1750 | repro",
    ])
    rows = stats.parse_importtime(stderr)
    assert rows[0] == (2, "scipy._lib", 100e-6)
    totals = stats.package_import_seconds(rows, ("repro", "scipy", "networkx"))
    assert totals == pytest.approx({"repro": 1750e-6, "scipy": 700e-6, "networkx": 50e-6})


@pytest.fixture(scope="module")
def counts_run():
    scenario = Scenario(workload="rumor", num_nodes=600, engine="counts", num_trials=4, seed=5)
    result = simulate(scenario)
    return scenario, result, result.to_json()


def test_check_accepts_a_correct_result(counts_run):
    assert checks.check_result(*counts_run) == []


def test_check_rejects_broken_count_conservation(counts_run):
    scenario, result, document = counts_run
    corrupted = type(result).from_json(document)
    corrupted.final_opinion_counts[1, 0] += 1
    errors = checks.check_result(scenario, corrupted, corrupted.to_json())
    assert len(errors) == 1 and errors[0].startswith("count conservation")


def test_check_rejects_non_int64_counts_and_bad_round_trip(counts_run):
    scenario, result, document = counts_run
    counts = result.final_opinion_counts
    result.final_opinion_counts = counts.astype(np.int32)
    try:
        errors = checks.check_result(scenario, result, document.replace('"rumor"', '"plurality"'))
    finally:
        result.final_opinion_counts = counts
    assert any("int64" in error for error in errors)
    assert any("round-trip" in error for error in errors)


def test_same_output_check_sees_a_flipped_trial(counts_run):
    _, result, document = counts_run
    other = type(result).from_json(document)
    assert checks.check_same_output(result, other) == []
    other.successes = ~other.successes
    assert checks.check_same_output(result, other) == [
        "successes differs from the serial simulate() run"
    ]


def test_run_all_check_rejects_a_wrong_summary(tmp_path):
    fresh = "run-all: 2 ran, 0 cached, 0 skipped, 0 failed in 1.00 s"
    resume = "run-all: 1 ran, 1 cached, 0 skipped, 0 failed in 0.50 s"
    for eid in ("E1", "E2"):
        payload = {"experiment_id": eid, "records": [{}], "provenance": {}}
        (tmp_path / f"{eid}_0.json").write_text(json.dumps({"payload": payload}))
    errors = checks.check_run_all(fresh, resume, tmp_path, ("E1", "E2"))
    assert errors == [f"resume run-all summary wrong: {resume!r}"]


def test_layer_metrics_cover_every_per_layer_metric():
    spans_ = [
        spans.Span("op", 0.0, 2.0, -1, 0),
        spans.Span("sim.simulate_sweep", 0.1, 1.9, 0, 0, {"points": 4.0}),
        spans.Span("core.run_heterogeneous_counts_protocol", 0.2, 1.0, 1, 0, {"tasks": 3.0}),
        spans.Span("sim.simulate", 1.0, 1.5, 1, 0),
    ]
    cache = {key: 1 for key in ("law_hits", "law_misses", "table_hits", "table_misses",
                                "dense_table_hits", "dense_table_misses")}
    records = [{"seconds": 2.0, "rounds": 7, "vote_law_cache": cache}]
    imports = {"repro": 1.0, "scipy": 0.5, "networkx": 0.1}
    metrics = layers.layer_metrics(spans_, records, [{"seconds": 1.0}], imports)
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["sim.sweep.fused_ratio"] == 0.75
    assert metrics["sim.simulate_sweep.self_s"] == pytest.approx(0.5)
    assert metrics["trace.uncovered_frac"] == pytest.approx(0.1)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.5)
    assert metrics["network.vote_law_cache.law_hit_ratio"] == 0.5


def test_benchmark_json_matches_the_code():
    from perfbench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]
    for name in WORKLOADS:
        assert workloads.build(name)

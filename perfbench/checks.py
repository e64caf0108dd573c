"""Output checks run on every op, outside the timed region.

Each check returns a list of error strings; an empty list means the op's
output is correct.  An op whose check reports anything counts as failed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence

import numpy as np

from repro.sim import Scenario, SimulationResult

#: Minimum success rate of a fault-free protocol run.  Every protocol
#: scenario in the workloads sits in the paper's w.h.p. regime and
#: measured 1.0 over many seeds.
SUCCESS_FLOOR = 0.9

#: Result scalars a JSON round trip must reproduce.
SCALAR_FIELDS = (
    "workload", "engine", "num_nodes", "num_opinions", "num_trials", "target_opinion",
)
#: Result arrays that carry simulation output (provenance holds wall
#: times and sweep bookkeeping, which legitimately differ between paths).
OUTPUT_FIELDS = (
    "successes",
    "converged",
    "rounds",
    "final_biases",
    "final_opinion_counts",
    "consensus_opinions",
    "bias_after_stage1",
    "stage1_rounds",
    "trajectories",
)


def check_result(scenario: Scenario, result: SimulationResult, document: str) -> List[str]:
    """Conservation, int64 counts, JSON round trip and the success floor."""
    errors = []
    counts = result.final_opinion_counts
    if counts.dtype != np.int64:
        errors.append(f"final_opinion_counts dtype is {counts.dtype}, not int64")
    population = scenario.honest_nodes()
    sums = np.asarray(counts).sum(axis=1)
    if counts.shape != (scenario.num_trials, scenario.num_opinions) or np.any(
        sums != population
    ):
        errors.append(
            f"count conservation: rows of shape {counts.shape} sum to "
            f"{sorted(set(sums.tolist()))}, expected {population}"
        )
    back = SimulationResult.from_json(document)
    if (
        back.to_json() != document
        or any(getattr(back, name) != getattr(result, name) for name in SCALAR_FIELDS)
        or check_same_output(result, back)
    ):
        errors.append("from_json(to_json()) does not round-trip")
    if (
        scenario.workload in ("rumor", "plurality")
        and scenario.faults is None
        and result.success_rate < SUCCESS_FLOOR
    ):
        errors.append(
            f"{scenario.workload} success rate {result.success_rate:.3f} "
            f"below the floor {SUCCESS_FLOOR}"
        )
    return errors


def check_same_output(serial: SimulationResult, fused: SimulationResult) -> List[str]:
    """Bitwise equality of the output fields of two results."""
    errors = []
    for name in OUTPUT_FIELDS:
        left, right = getattr(serial, name), getattr(fused, name)
        if left is None or right is None:
            if left is not right:
                errors.append(f"{name}: one side is None")
            continue
        left, right = np.asarray(left), np.asarray(right)
        if left.dtype != right.dtype or not np.array_equal(left, right):
            errors.append(f"{name} differs from the serial simulate() run")
    return errors


def check_run_all(
    fresh_stdout: str, resume_stdout: str, out_dir: Path, expected_ids: Sequence[str]
) -> List[str]:
    """``run-all`` stored one table per experiment and the resume pass hit them all."""
    errors = []
    expected = len(expected_ids)
    if f"run-all: {expected} ran, 0 cached, 0 skipped, 0 failed" not in fresh_stdout:
        errors.append(f"fresh run-all summary wrong: {_summary(fresh_stdout)!r}")
    if f"run-all: 0 ran, {expected} cached, 0 skipped, 0 failed" not in resume_stdout:
        errors.append(f"resume run-all summary wrong: {_summary(resume_stdout)!r}")
    stored = []
    for path in sorted(out_dir.glob("*.json")):
        payload = json.loads(path.read_text())["payload"]
        stored.append(payload["experiment_id"])
        failed = payload["provenance"].get("failed") or any(
            record.get("status") == "failed" for record in payload["records"]
        )
        if failed:
            errors.append(f"{path.name} holds a failed table")
    if sorted(stored) != sorted(expected_ids):
        errors.append(f"stored tables {sorted(stored)}, expected {sorted(expected_ids)}")
    return errors


def _summary(stdout: str) -> str:
    lines: Sequence[str] = [
        line for line in stdout.splitlines() if line.startswith("run-all:")
    ]
    return lines[-1] if lines else stdout[-200:]

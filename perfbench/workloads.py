"""The benchmark's workloads: what one op does, and how its output is checked.

Every simulation op builds its ``Scenario``/``ScenarioGrid`` from a plain
spec and a fresh seed, runs it and serializes the result with
``to_json()``; that whole path is what a user waits on.  Checks run after
the op's clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults import FaultModel
from repro.network.pull_model import vote_law_cache_info
from repro.sim import Scenario, ScenarioGrid, SimulationResult, simulate, simulate_sweep

from perfbench import checks
from perfbench.layers import EXPERIMENT_IDS
from perfbench.spans import Tracer

_PROTOCOLS = ("rumor", "plurality")


@dataclass
class Context:
    """Where an op may write, and how ``experiments-quick`` reaches the CLI."""

    root: Path
    scratch: Path
    cli_in_subprocess: bool
    env: Dict[str, str] = field(default_factory=dict)

    def cli(self, argv: Sequence[str]) -> Tuple[str, Optional[Dict[str, float]]]:
        """Run ``repro ARGV``; return its stdout and, from a child, its timings.

        A child interpreter reports its set-up (``import repro``) and the
        ``repro.cli.main`` call separately, see :mod:`perfbench.fresh`.
        """
        timings = None
        if self.cli_in_subprocess:
            completed = subprocess.run(
                [sys.executable, "-m", "perfbench.fresh", "cli", *argv],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=150,
            )
            code, stdout = completed.returncode, completed.stdout
            if code == 0:
                stdout, _, last = stdout.rstrip("\n").rpartition("\n")
                timings = json.loads(last)
        else:
            import repro.cli  # not part of ``import repro``

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                # Looked up at call time, so a traced run sees its wrapper.
                code = repro.cli.main(list(argv))
            stdout = buffer.getvalue()
        if code != 0:
            raise RuntimeError(f"repro {argv[0]} exited {code}: {stdout[-300:]}")
        return stdout, timings


@dataclass(frozen=True)
class SimOp:
    """One ``simulate()`` call."""

    spawns_cli = False
    label: str
    spec: Mapping[str, Any]

    def run(self, seed: int, ctx: Context) -> Tuple[Scenario, SimulationResult, str]:
        scenario = Scenario(seed=seed, **self.spec)
        result = simulate(scenario)
        return scenario, result, result.to_json()

    def results(self, value) -> List[Tuple[Scenario, SimulationResult]]:
        return [value[:2]]

    def details(self, value) -> Dict[str, Any]:
        return {}

    def check(self, value, ctx: Context) -> List[str]:
        return checks.check_result(*value)


@dataclass(frozen=True)
class SweepOp:
    """One ``simulate_sweep()`` call; per-trial grids also get a bitwise check."""

    spawns_cli = False
    label: str
    base: Mapping[str, Any]
    axes: Mapping[str, Tuple[Any, ...]]
    draw_mode: str = "per-trial"

    def run(self, seed: int, ctx: Context):
        grid = ScenarioGrid(Scenario(seed=seed, **self.base), self.axes)
        sweep = simulate_sweep(grid, draw_mode=self.draw_mode)
        return grid, sweep, [result.to_json() for result in sweep]

    def results(self, value) -> List[Tuple[Scenario, SimulationResult]]:
        grid, sweep, _ = value
        return list(zip(grid.scenarios(), sweep))

    def details(self, value) -> Dict[str, Any]:
        return {}

    def check(self, value, ctx: Context) -> List[str]:
        grid, sweep, documents = value
        errors = []
        for (scenario, result), document in zip(self.results(value), documents):
            errors += checks.check_result(scenario, result, document)
        if self.draw_mode == "per-trial":
            index = grid.base.seed % grid.size
            errors += checks.check_same_output(
                simulate(grid.scenario(index)), sweep[index]
            )
        return errors[:5]


@dataclass(frozen=True)
class RunAllOp:
    """``repro run-all`` on the quick configs, then a ``--resume`` pass."""

    spawns_cli = True
    label: str
    experiment_ids: Tuple[str, ...] = EXPERIMENT_IDS

    def run(self, seed: int, ctx: Context):
        out = ctx.scratch / f"run-all-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run-all", *self.experiment_ids, "--jobs", "1",
                "--seed", str(seed), "--out", str(out)]
        try:
            fresh, fresh_timings = ctx.cli(argv)
            resume, resume_timings = ctx.cli([*argv, "--resume"])
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        return out, fresh, resume, [fresh_timings, resume_timings]

    def results(self, value) -> List[Tuple[Scenario, SimulationResult]]:
        return []

    def details(self, value) -> Dict[str, Any]:
        """Child-process timings: the fresh run-all first, then the resume."""
        children = value[3]
        return {"children": children} if None not in children else {}

    def check(self, value, ctx: Context) -> List[str]:
        out, fresh, resume, _ = value
        try:
            return checks.check_run_all(fresh, resume, out, self.experiment_ids)
        finally:
            shutil.rmtree(out, ignore_errors=True)


def build(name: str) -> Tuple[Any, ...]:
    """The op cycle of workload ``name`` (ops run in this order, repeatedly)."""
    if name == "counts-single":
        counts = dict(num_opinions=3, epsilon=0.3, engine="counts")
        million = dict(counts, num_nodes=10**6, num_trials=64)
        return (
            SimOp("rumor-k3", dict(million, workload="rumor")),
            SimOp("plurality-k3", dict(million, workload="plurality")),
            SimOp("plurality-k4", dict(counts, workload="plurality", num_opinions=4,
                                       num_nodes=10**5, num_trials=16)),
            SimOp("3-majority-k3", dict(million, workload="dynamics", rule="3-majority",
                                        max_rounds=40)),
        )
    if name == "counts-sweep":
        epsilons = tuple(float(x) for x in np.linspace(0.2, 0.45, 16))
        rumor = dict(workload="rumor", num_nodes=100_000, num_opinions=2, epsilon=0.2,
                     engine="counts", num_trials=32)
        voter = dict(workload="dynamics", rule="voter", num_nodes=600, num_opinions=2,
                     epsilon=0.02, engine="counts", num_trials=1, max_rounds=200,
                     record_trajectories=False)
        faulted = dict(workload="rumor", num_nodes=100_000, num_opinions=3, epsilon=0.3,
                       engine="counts", num_trials=32)
        faults = tuple(
            FaultModel(kind=kind, fraction=fraction)
            for kind in ("crash", "liar") for fraction in (0.05, 0.1)
        )
        # The faults grid goes first, so it is the cold op: its time in a
        # fresh process varies far less than the rumor grid's.
        return (
            SweepOp("faults-4", faulted, {"faults": faults}),
            SweepOp("rumor-eps16-per-trial", rumor, {"epsilon": epsilons}),
            SweepOp("rumor-eps16-batched", rumor, {"epsilon": epsilons}, "batched"),
            SweepOp("voter-eps256", voter,
                    {"epsilon": tuple(float(x) for x in np.linspace(0.02, 0.30, 256))}),
        )
    if name == "batched-tier":
        batched = dict(num_nodes=5000, num_opinions=3, epsilon=0.3, engine="batched",
                       num_trials=16)
        return (
            SimOp("rumor-k3", dict(batched, workload="rumor")),
            SimOp("plurality-k3", dict(batched, workload="plurality")),
        )
    if name == "experiments-quick":
        return (RunAllOp("run-all-E1-E15"),)
    raise KeyError(name)


def op_seed(workload_seed: int, stream: int, index: int) -> int:
    """A fresh 32-bit seed per (workload seed, stream, op index)."""
    state = np.random.SeedSequence([workload_seed, stream, index]).generate_state(1)
    return int(state[0])


def _cache_delta(before: Mapping[str, int]) -> Dict[str, int]:
    after = vote_law_cache_info()
    return {key: after[key] - before[key] for key in after if not key.endswith("_entries")}


def execute(
    op, seed: int, ctx: Context, index: int, tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    """Run one op (timed, traced if asked), then check it (untimed)."""
    before = vote_law_cache_info()
    if tracer is not None:
        tracer.op, tracer.enabled = index, True
        root = tracer.open("op")
    started = time.perf_counter()
    value, error = None, None
    try:
        value = op.run(seed, ctx)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.close(root)
        tracer.enabled = False
    record: Dict[str, Any] = {
        "index": index, "op": op.label, "seed": seed, "seconds": seconds,
        "vote_law_cache": _cache_delta(before),
    }
    if error is None:
        record.update(op.details(value))
        try:
            errors = op.check(value, ctx)
            record["rounds"] = sum(
                int(result.rounds.max())
                for scenario, result in op.results(value)
                if scenario.workload in _PROTOCOLS
            )
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        errors = [error]
    record["errors"] = errors
    return record

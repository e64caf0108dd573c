"""Experiment E15 — success probability under fault injection.

The fault subsystem (:mod:`repro.faults`) models four adversary
families against the push-based protocols: **crash** (faulty nodes fall
silent after a configured round), **omission** (each faulty message is
dropped independently), the **random-liar** Byzantine adversary (faulty
nodes push uniformly random opinions), and the **adaptive**
plurality-targeting Byzantine adversary (faulty nodes push the current
runner-up opinion, actively fighting the plurality signal).

This experiment charts the success probability of the rumor-spreading
and plurality-consensus workloads as the faulty fraction ``f`` grows,
for every adversary family, via one :class:`~repro.sim.sweep.ScenarioGrid`
per workload with a swept ``faults`` axis (a fault-free ``faults=None``
reference point leads each sweep).  Expectations:

* the oblivious families degrade success gracefully — crash and omission
  mostly *remove* useful messages, the random liar adds unbiased noise
  that the epsilon-noise analysis already tolerates;
* the adaptive adversary is strictly more damaging at equal ``f``
  because its balls are concentrated on the plurality's strongest rival;
* the adaptive family admits no counts-tier sufficient statistic, so on
  the counts (or auto-resolved-counts) engine those grid points
  *degrade* to the batched tier; the table records the degraded engine
  and the provenance reason instead of erroring — the graceful-
  degradation contract this PR introduces.

Registered as E15 with quick/full configurations; the repeated trials
run on any sampling tier (``trial_engine``), with the degradation rule
above applying per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.experiments.results import ExperimentTable
from repro.experiments.runner import scenario_counts_threshold
from repro.experiments.spec import register_experiment
from repro.faults import FaultModel
from repro.sim import Scenario, ScenarioGrid, simulate_sweep
from repro.utils.rng import RandomState, derive_seed

__all__ = ["ByzantineDegradationConfig", "run"]

_TITLE = "Fault injection: success probability vs faulty fraction f"
_PAPER_CLAIM = (
    "Robustness of the noisy push protocols: oblivious faults (crash, "
    "omission, uniform liars) act like removed or unbiased-noise messages "
    "and degrade success gracefully, while an adaptive plurality-targeting "
    "adversary is strictly more damaging at equal f"
)

#: The adversary families swept by the experiment, in table order.
ADVERSARIES: Tuple[str, ...] = ("crash", "omission", "liar", "adaptive")


@dataclass
class ByzantineDegradationConfig:
    """Parameters of the E15 fault sweep.

    ``fractions`` are the faulty fractions ``f`` swept per adversary
    family; every sweep is led by a fault-free reference point.
    ``trial_engine`` is the *requested* sampling tier — adaptive grid
    points degrade counts to batched per the fault-degradation rule, and
    the table records the engine each point actually ran on.
    """

    num_nodes: int = 200
    num_opinions: int = 3
    epsilon: float = 0.3
    plurality_bias: float = 0.3
    fractions: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    crash_round: int = 3
    drop_rate: float = 0.5
    num_trials: int = 100
    trial_engine: str = "counts"

    @classmethod
    def quick(cls) -> "ByzantineDegradationConfig":
        """A configuration that completes in a few seconds."""
        return cls(num_nodes=120, fractions=(0.05, 0.2), num_trials=24)

    @classmethod
    def full(cls) -> "ByzantineDegradationConfig":
        """The full sweep (finer f grid, tighter rate estimates)."""
        return cls(
            num_nodes=600,
            fractions=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4),
            num_trials=400,
        )


def _fault_axis(config: ByzantineDegradationConfig) -> List[Optional[FaultModel]]:
    """The swept ``faults`` values: fault-free first, then every family."""
    axis: List[Optional[FaultModel]] = [None]
    for kind in ADVERSARIES:
        for fraction in config.fractions:
            knobs = {"kind": kind, "fraction": float(fraction)}
            if kind == "crash":
                knobs["crash_round"] = config.crash_round
            elif kind == "omission":
                knobs["drop_rate"] = config.drop_rate
            axis.append(FaultModel(**knobs))
    return axis


def _workload_grid(
    config: ByzantineDegradationConfig, workload: str, seed: int
) -> ScenarioGrid:
    base = Scenario(
        workload=workload,
        num_nodes=config.num_nodes,
        num_opinions=config.num_opinions,
        epsilon=config.epsilon,
        bias=config.plurality_bias if workload == "plurality" else 0.0,
        engine=config.trial_engine,
        counts_threshold=scenario_counts_threshold(config.trial_engine),
        num_trials=config.num_trials,
        seed=seed,
    )
    return ScenarioGrid(base, {"faults": _fault_axis(config)})


@register_experiment(
    experiment_id="E15",
    description="Success probability vs faulty fraction across adversaries",
    title=_TITLE,
    paper_claim=_PAPER_CLAIM,
    supported_engines=("counts", "batched", "sequential"),
    config_cls=ByzantineDegradationConfig,
)
def run(
    config: Optional[ByzantineDegradationConfig] = None,
    random_state: RandomState = 0,
) -> ExperimentTable:
    """Sweep success probability over (workload, adversary, f)."""
    if config is None:
        config = ByzantineDegradationConfig.quick()
    table = ExperimentTable(
        experiment_id="E15", title=_TITLE, paper_claim=_PAPER_CLAIM
    )

    degraded_points = 0
    for workload_index, workload in enumerate(("rumor", "plurality")):
        grid = _workload_grid(
            config, workload, derive_seed(random_state, workload_index)
        )
        sweep = simulate_sweep(grid)
        for index, result in enumerate(sweep):
            faults = grid.point_overrides(index)["faults"]
            reason = result.provenance.get("engine_degraded_reason")
            if reason is not None:
                degraded_points += 1
            table.add_record(
                workload=workload,
                adversary=faults.kind if faults is not None else "none",
                fraction=float(faults.fraction) if faults is not None else 0.0,
                num_nodes=config.num_nodes,
                num_trials=result.num_trials,
                engine=result.provenance["engine"],
                engine_degraded_reason=reason,
                success_rate=float(np.mean(result.successes)),
                mean_rounds=float(np.mean(result.rounds)),
            )

    table.add_note(
        f"requested trial engine: {config.trial_engine}; adversary order: "
        + ", ".join(ADVERSARIES)
    )
    table.add_note(
        f"{degraded_points} adaptive grid points degraded counts -> batched "
        "(engine_degraded_reason column); oblivious families keep their "
        "counts-tier sufficient statistics"
    )
    if "crash" in ADVERSARIES:
        table.add_note(
            f"crash adversary falls silent after round {config.crash_round}; "
            f"omission drops each faulty message w.p. {config.drop_rate}"
        )
    return table

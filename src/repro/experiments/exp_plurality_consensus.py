"""Experiment E2 — Theorem 2: plurality consensus from a partial, biased start.

The Theorem 2 setting: an initial set ``S`` of opinionated nodes (the rest
undecided) whose plurality opinion leads every rival by a bias of
``Omega(sqrt(log n / |S|))`` within ``S``.  The experiment sweeps the support
size ``|S|`` and the bias within the support, runs the full two-stage
protocol, and records the success probability of reaching consensus on the
initial plurality opinion.

The reproduced trend: configurations whose bias clears the
``sqrt(log n / |S|)`` requirement succeed (nearly) always, while
configurations well below the requirement degrade toward chance.

Every grid point is a ``plurality`` :class:`~repro.sim.scenario.Scenario`
run through :func:`~repro.sim.facade.simulate`, on the batched ensemble
engine by default; set ``trial_engine="sequential"`` to cross-check against
the reference loop, or ``"counts"`` for the sufficient-statistics tier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.convergence import estimate_success_probability
from repro.experiments.results import ExperimentTable
from repro.experiments.runner import scenario_counts_threshold
from repro.experiments.spec import register_experiment
from repro.sim import Scenario, simulate
from repro.utils.rng import RandomState

__all__ = ["PluralityConsensusConfig", "run"]

_TITLE = "Plurality consensus: success vs. support size and initial bias"
_PAPER_CLAIM = (
    "Theorem 2: with |S| = Omega(log n / eps^2) opinionated nodes and a "
    "plurality bias of Omega(sqrt(log n / |S|)) within S, all nodes adopt "
    "the plurality opinion w.h.p. in O(log n / eps^2) rounds"
)


@dataclass
class PluralityConsensusConfig:
    """Parameters of the E2 sweep."""

    num_nodes: int = 2000
    num_opinions: int = 3
    epsilon: float = 0.3
    support_fractions: Sequence[float] = (0.05, 0.2, 1.0)
    bias_multipliers: Sequence[float] = (0.5, 2.0, 4.0)
    num_trials: int = 5
    round_scale: float = 1.0
    trial_engine: str = "batched"

    @classmethod
    def quick(cls) -> "PluralityConsensusConfig":
        """A configuration that completes in well under a minute."""
        return cls(
            num_nodes=1000,
            support_fractions=(0.1, 1.0),
            bias_multipliers=(0.5, 3.0),
            num_trials=3,
        )

    @classmethod
    def full(cls) -> "PluralityConsensusConfig":
        """A larger sweep (a few minutes)."""
        return cls(
            num_nodes=5000,
            support_fractions=(0.02, 0.1, 0.5, 1.0),
            bias_multipliers=(0.25, 1.0, 2.0, 4.0),
            num_trials=10,
        )


@register_experiment(
    experiment_id="E2",
    description="Theorem 2: plurality consensus",
    title=_TITLE,
    paper_claim=_PAPER_CLAIM,
    supported_engines=("batched", "sequential", "counts"),
    config_cls=PluralityConsensusConfig,
)
def run(
    config: Optional[PluralityConsensusConfig] = None,
    random_state: RandomState = 0,
) -> ExperimentTable:
    """Run the E2 sweep and return the result table."""
    config = config or PluralityConsensusConfig.quick()
    table = ExperimentTable(
        experiment_id="E2",
        title=_TITLE,
        paper_claim=_PAPER_CLAIM,
    )
    log_n = math.log(config.num_nodes)
    minimum_support = log_n / (config.epsilon**2)
    for support_fraction in config.support_fractions:
        support_size = max(config.num_opinions, int(support_fraction * config.num_nodes))
        required_bias = math.sqrt(log_n / support_size)
        for multiplier in config.bias_multipliers:
            bias_within_support = min(0.9, multiplier * required_bias)
            scenario = Scenario(
                workload="plurality",
                num_nodes=config.num_nodes,
                num_opinions=config.num_opinions,
                epsilon=config.epsilon,
                engine=config.trial_engine,
                counts_threshold=scenario_counts_threshold(config.trial_engine),
                num_trials=config.num_trials,
                seed=random_state,
                support_size=support_size,
                bias=bias_within_support,
                round_scale=config.round_scale,
                record_trajectories=False,
            )
            instance = scenario.plurality_instance()
            result = simulate(scenario)
            success_rate, interval = estimate_success_probability(
                [bool(success) for success in result.successes]
            )
            table.add_record(
                n=config.num_nodes,
                support_size=support_size,
                support_meets_theorem=support_size >= minimum_support,
                bias_within_support=instance.plurality_bias_within_support(),
                required_bias=required_bias,
                bias_over_required=instance.plurality_bias_within_support()
                / required_bias,
                success_rate=success_rate,
                success_low=interval[0],
                success_high=interval[1],
                mean_rounds=result.mean_rounds,
            )
    table.add_note(
        f"Theorem 2 needs |S| >= ~log(n)/eps^2 = {minimum_support:.0f} nodes here; "
        f"trial engine: {config.trial_engine}"
    )
    return table

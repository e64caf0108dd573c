"""Experiment E8 — Claim 1 and Lemma 2/3: the O ≡ B ≈ P process comparison.

Two checks:

1. **Static check.**  Fix a phase (a sender-opinion multiset and a number of
   rounds), deliver it repeatedly under each of the three processes (O: real
   push; B: balls-into-bins; P: Poissonized), and compare the distributions
   of per-node received counts via the total-variation distance.  Claim 1
   predicts O and B are statistically indistinguishable; Lemma 2 predicts P
   is close (the Poissonization differs from B only in the total message
   count fluctuating, an effect that vanishes as ``n`` grows).

2. **Dynamic check.**  Run the *full protocol* under each delivery process
   and compare success rates and final biases: the protocol's behaviour is
   insensitive to the substitution, which is what licenses the paper's proof
   strategy of analysing P instead of O.

The Lemma-2 transfer factor ``e^k sqrt(prod h_i)`` is reported alongside, to
show the regime where Lemma 3's condition on the failure exponent applies.

The dynamic check runs one ``rumor`` :class:`~repro.sim.scenario.Scenario`
per delivery process (its ``process`` knob) through
:func:`~repro.sim.facade.simulate`, on the batched ensemble engine by
default; ``trial_engine="sequential"`` cross-checks against the reference
loop.  The counts engine is *not* offered: its delivery is always the
counts-native Claim-1/Poissonized model, which would make the O/B/P
comparison vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.poisson import (
    per_opinion_count_histograms,
    poisson_transfer_factor,
    process_count_distribution,
    total_variation_distance,
)
from repro.network.delivery import make_delivery_engine
from repro.experiments.results import ExperimentTable
from repro.experiments.spec import register_experiment
from repro.experiments.workloads import biased_population
from repro.noise.families import uniform_noise_matrix
from repro.sim import Scenario, simulate
from repro.utils.rng import RandomState, as_generator, derive_seed

__all__ = ["PoissonizationConfig", "run"]

_TITLE = "Process equivalence: push (O) vs balls-into-bins (B) vs Poissonized (P)"
_PAPER_CLAIM = (
    "Claim 1: O and B induce the same end-of-phase distribution; "
    "Lemma 2/3: w.h.p. events transfer from P to O at cost e^k sqrt(prod h_i)"
)


@dataclass
class PoissonizationConfig:
    """Parameters of the E8 comparison.

    ``trial_engine`` selects how the dynamic check's repeated trials run:
    ``"batched"`` (vectorized ensemble) or ``"sequential"`` (reference
    loop).  The counts engine is unsupported — it replaces the delivery
    process under comparison.
    """

    num_nodes: int = 500
    num_opinions: int = 3
    epsilon: float = 0.3
    rounds_per_phase: int = 5
    num_deliveries: int = 200
    dynamic_trials: int = 3
    dynamic_num_nodes: int = 800
    trial_engine: str = "batched"

    @classmethod
    def quick(cls) -> "PoissonizationConfig":
        """A configuration that completes in seconds."""
        return cls(num_deliveries=100, dynamic_trials=2, dynamic_num_nodes=600)

    @classmethod
    def full(cls) -> "PoissonizationConfig":
        """A configuration with tighter statistics."""
        return cls(
            num_nodes=2000,
            num_deliveries=1000,
            dynamic_trials=10,
            dynamic_num_nodes=3000,
        )


def _static_comparison(
    config: PoissonizationConfig,
    rng: np.random.Generator,
    table: ExperimentTable,
) -> None:
    """The fixed-phase delivery comparison between O, B and P."""
    noise = uniform_noise_matrix(config.num_opinions, config.epsilon)
    population = biased_population(
        config.num_nodes, config.num_opinions, 0.2, random_state=rng
    )
    sender_opinions = population.opinions[population.opinionated_mask()]
    histogram = np.bincount(
        sender_opinions, minlength=config.num_opinions + 1
    )[1:] * config.rounds_per_phase

    deliveries: Dict[str, List] = {"push": [], "balls_bins": [], "poisson": []}
    for process in deliveries:
        engine = make_delivery_engine(process, config.num_nodes, noise, rng)
        for _ in range(config.num_deliveries):
            deliveries[process].append(
                engine.run_phase_from_senders(
                    sender_opinions, config.rounds_per_phase
                )
            )

    distributions = {
        process: process_count_distribution(batch)
        for process, batch in deliveries.items()
    }
    per_opinion = {
        process: per_opinion_count_histograms(batch)
        for process, batch in deliveries.items()
    }
    pairs = [("push", "balls_bins"), ("push", "poisson"), ("balls_bins", "poisson")]
    for first, second in pairs:
        tv_totals = total_variation_distance(
            distributions[first], distributions[second]
        )
        tv_per_opinion = float(
            np.mean(
                [
                    total_variation_distance(
                        per_opinion[first][index], per_opinion[second][index]
                    )
                    for index in range(config.num_opinions)
                ]
            )
        )
        table.add_record(
            check="static",
            comparison=f"{first} vs {second}",
            tv_total_counts=tv_totals,
            tv_per_opinion_counts=tv_per_opinion,
            success_rate=None,
            mean_final_bias=None,
        )
    table.add_note(
        "Lemma 2 transfer factor for this phase: "
        f"{poisson_transfer_factor(histogram):.3g} "
        f"(h = {int(histogram.sum())} messages, k = {config.num_opinions})"
    )


def _dynamic_comparison(
    config: PoissonizationConfig,
    random_state: RandomState,
    table: ExperimentTable,
) -> None:
    """Full protocol runs under each delivery process."""
    for index, process in enumerate(("push", "balls_bins", "poisson")):
        result = simulate(
            Scenario(
                workload="rumor",
                num_nodes=config.dynamic_num_nodes,
                num_opinions=config.num_opinions,
                epsilon=config.epsilon,
                engine=config.trial_engine,
                num_trials=config.dynamic_trials,
                seed=derive_seed(random_state, index),
                correct_opinion=1,
                process=process,
                record_trajectories=False,
            )
        )
        table.add_record(
            check="dynamic",
            comparison=f"protocol under {process}",
            tv_total_counts=None,
            tv_per_opinion_counts=None,
            success_rate=result.success_rate,
            mean_final_bias=result.mean_final_bias,
        )


@register_experiment(
    experiment_id="E8",
    description="Claim 1 / Lemma 2: process equivalence",
    title=_TITLE,
    paper_claim=_PAPER_CLAIM,
    supported_engines=("batched", "sequential"),
    config_cls=PoissonizationConfig,
)
def run(
    config: Optional[PoissonizationConfig] = None,
    random_state: RandomState = 0,
) -> ExperimentTable:
    """Run the E8 comparison and return the result table."""
    config = config or PoissonizationConfig.quick()
    rng = as_generator(random_state)
    table = ExperimentTable(
        experiment_id="E8",
        title=_TITLE,
        paper_claim=_PAPER_CLAIM,
    )
    _static_comparison(config, rng, table)
    _dynamic_comparison(config, random_state, table)
    table.add_note(f"dynamic-check trial engine: {config.trial_engine}")
    return table

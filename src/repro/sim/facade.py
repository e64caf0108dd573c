"""``simulate(Scenario(...)) -> SimulationResult`` — the one entry point.

The facade resolves the scenario's engine policy to a concrete tier, looks
up the ``(workload, engine)`` runner in the
:data:`~repro.sim.engines.ENGINE_REGISTRY`, executes it, and stamps the
result with provenance (resolved engine, seed, facade code version, wall
time, the scenario itself).

Every runner is a thin driver of one engine tier: it constructs the
protocol classes or the dynamics engines with the scenario's arguments and
seed, so under a fixed seed ``simulate()`` is *bitwise identical* to
driving that engine directly (the equivalence test-suite pins this per
workload × engine).
"""

from __future__ import annotations

import hashlib
import inspect
import time
from typing import Optional, Tuple

from repro.core.analytic import (
    AnalyticProtocol,
    MeanFieldProtocol,
    exact_protocol_is_tractable,
)
from repro.core.protocol import (
    CountsProtocolTask,
    EnsembleProtocol,
    EnsembleResult,
    TwoStageProtocol,
    run_heterogeneous_counts_protocol,
)
from repro.core.state import PopulationState
from repro.dynamics.analytic import (
    ExactDynamicsChain,
    MeanFieldDynamics,
    exact_dynamics_is_tractable,
)
from repro.faults import FaultedDeliveryEngine, FaultedPhaseSampler
from repro.network.pull_model import vote_law_cache_info
from repro.network.topology import GraphPushModel, standard_topology
from repro.noise.matrix import NoiseMatrix
from repro.sim.engines import (
    ENGINE_REGISTRY,
    build_dynamics,
    resolve_engine_policy,
)
from repro.sim.result import SimulationResult
from repro.sim.scenario import Scenario
from repro.utils.rng import RandomState, as_trial_generators, spawn_generators

__all__ = ["simulate", "sim_code_version"]

_code_version: Optional[str] = None


def sim_code_version() -> str:
    """A short fingerprint of the facade's code, recorded in provenance.

    Hashes the sim layer's own modules (scenario, engines, result, facade);
    the engine tiers underneath are covered by the equivalence and
    engine-agreement test-suites, exactly like the orchestrator's
    experiment fingerprint.
    """
    global _code_version
    if _code_version is None:
        from repro.analytic import simplex as simplex_module
        from repro.analytic import verify as verify_module
        from repro.core import analytic as core_analytic_module
        from repro.dynamics import analytic as dynamics_analytic_module
        from repro.faults import delivery as faults_delivery_module
        from repro.faults import injection as faults_injection_module
        from repro.faults import model as faults_model_module
        from repro.sim import engines as engines_module
        from repro.sim import result as result_module
        from repro.sim import scenario as scenario_module
        from repro.sim import sweep as sweep_module
        import repro.sim.facade as facade_module

        digest = hashlib.sha256()
        for module in (
            scenario_module, engines_module, result_module, facade_module,
            sweep_module,
            simplex_module, verify_module,
            dynamics_analytic_module, core_analytic_module,
            faults_model_module, faults_injection_module,
            faults_delivery_module,
        ):
            try:
                digest.update(inspect.getsource(module).encode())
            except (OSError, TypeError):  # pragma: no cover - frozen builds
                pass
        _code_version = digest.hexdigest()[:16]
    return _code_version


def _exactly_tractable(scenario: Scenario) -> bool:
    """Whether the analytic tier can serve ``scenario`` *exactly*.

    True when the full count-simplex Markov chain fits the analytic state
    budget (and, for the protocol workloads, every Stage-2 vote table is
    closed-form) — the regime where ``auto`` should prefer the exact
    answer over any sampled one.
    """
    if scenario.workload == "dynamics":
        return exact_dynamics_is_tractable(
            scenario.rule,
            scenario.num_nodes,
            scenario.num_opinions,
            sample_size=scenario.sample_size,
        )
    opinionated = int(scenario.initial_counts_state().counts.sum())
    return exact_protocol_is_tractable(
        scenario.num_nodes,
        scenario.num_opinions,
        scenario.epsilon,
        initial_opinionated=opinionated,
        round_scale=scenario.round_scale,
    )


def _degrade_for_faults(scenario: Scenario, engine: str) -> Tuple[str, Optional[str]]:
    """Swap the counts tier out when the adversary defeats its statistics.

    The adaptive plurality-targeting adversary conditions on per-node
    information the counts reduction has discarded, so a counts resolution
    gracefully degrades to the batched tier (``allow_degradation=False``
    was already rejected at scenario validation).  Returns the possibly
    demoted engine and a human-readable reason for provenance.
    """
    if (
        scenario.faults is not None
        and scenario.faults.kind == "adaptive"
        and engine == "counts"
    ):
        return "batched", (
            "adaptive adversary admits no counts-tier sufficient "
            "statistics; degraded counts -> batched"
        )
    return engine, None


def _resolve_engine(scenario: Scenario) -> Tuple[str, Optional[str]]:
    """The concrete tier for the scenario's engine policy, plus the
    degradation reason (``None`` when the policy was served as asked).

    Delegates to :func:`~repro.sim.engines.resolve_engine_policy` with the
    scenario's own ``counts_threshold``: the tier is a function of the
    scenario alone.

    ``auto`` prefers the analytic tier whenever the scenario is exactly
    tractable (tiny ``n * k``): the exact chain answers in one kernel
    evolution with zero sampling noise, which no trial count can beat.
    Faulted scenarios never resolve analytic — no exact chain or
    mean-field law covers them.
    """
    if scenario.engine != "auto":
        return _degrade_for_faults(scenario, scenario.engine)
    engine = resolve_engine_policy(
        "auto",
        scenario.num_nodes,
        scenario.counts_threshold,
        allow_analytic=scenario.faults is None and _exactly_tractable(scenario),
    )
    if (
        engine == "counts"
        and scenario.rule == "h-majority"
        and scenario.sample_size is not None
    ):
        from repro.network.pull_model import vote_table_is_tractable

        # The counts h-majority tier needs a tractable closed-form maj()
        # table; 'auto' degrades to the batched tier instead of failing
        # (an explicit engine='counts' request raises at validation).
        if not vote_table_is_tractable(
            scenario.sample_size, scenario.num_opinions
        ):
            return "batched", (
                f"h-majority sample_size {scenario.sample_size} with "
                f"{scenario.num_opinions} opinions exceeds the closed-form "
                "maj() table budget; degraded counts -> batched"
            )
    return _degrade_for_faults(scenario, engine)


def simulate(scenario: Scenario) -> SimulationResult:
    """Execute ``scenario`` on the engine tier its policy resolves to.

    The single public entry point of the simulation layer: one declarative
    :class:`~repro.sim.scenario.Scenario` in, one
    :class:`~repro.sim.result.SimulationResult` out, for every workload
    (rumor / plurality / dynamics) and every engine tier (sequential /
    batched / counts).  Provenance on the result records the resolved
    engine, the seed, the facade code version, the wall time and the full
    scenario dictionary, so any stored result is self-describing.
    """
    scenario.validate()
    engine, degraded_reason = _resolve_engine(scenario)
    noise = scenario.build_noise()
    runner = ENGINE_REGISTRY.get(scenario.workload, engine)
    cache_before = vote_law_cache_info() if engine == "counts" else None
    started = time.perf_counter()
    result = runner(scenario, noise, engine)
    elapsed = time.perf_counter() - started
    result.provenance = {
        "workload": scenario.workload,
        "engine": engine,
        "engine_policy": scenario.engine,
        "seed": scenario.seed,
        "num_trials": scenario.num_trials,
        "code_version": sim_code_version(),
        "wall_time_seconds": round(elapsed, 6),
        "scenario": scenario.to_dict(),
    }
    if degraded_reason is not None:
        result.provenance["engine_degraded_reason"] = degraded_reason
    if cache_before is not None:
        result.provenance["vote_law_cache"] = _cache_delta(cache_before)
    return result


def _cache_delta(before: dict) -> dict:
    """This run's ``maj()``-cache activity (counter deltas + end sizes).

    Hit/miss counters are reported as the difference across the run, so a
    stored provenance dictionary answers "did *this* simulation's phases
    share laws?" rather than mirroring process-lifetime totals; ``*_entries``
    gauges stay absolute.
    """
    after = vote_law_cache_info()
    return {
        key: value - (0 if key.endswith("_entries") else before[key])
        for key, value in after.items()
    }


# --------------------------------------------------------------------- #
# Protocol workloads (rumor & plurality share the two-stage machinery)
# --------------------------------------------------------------------- #


def _build_graph_engine(
    scenario: Scenario, noise: NoiseMatrix, random_state: RandomState
) -> GraphPushModel:
    graph = standard_topology(
        scenario.topology,
        scenario.num_nodes,
        random_state=scenario.seed,
        **({"degree": scenario.degree} if scenario.degree is not None else {}),
    )
    return GraphPushModel(graph, noise, random_state=random_state)


def _fault_sampler(scenario: Scenario) -> FaultedPhaseSampler:
    """A fresh phase sampler for one protocol run (owns the round counter)."""
    _, faulty_histogram = scenario.fault_split()
    return FaultedPhaseSampler(
        scenario.faults,
        scenario.faulty_count(),
        faulty_histogram,
        scenario.num_opinions,
    )


def _honest_initial_state(scenario: Scenario) -> PopulationState:
    """The per-node initial state of the honest ``n_h`` sub-population.

    The rumor source stays node 0 of the honest population; plurality
    supports materialize from the deterministic fault split with the same
    placement-seed discipline as :meth:`Scenario.initial_state`.
    """
    honest, _ = scenario.fault_split()
    if scenario.workload == "rumor":
        return PopulationState.single_source(
            honest.num_nodes, scenario.num_opinions, scenario.correct_opinion
        )
    opinion_counts = {
        opinion + 1: int(count)
        for opinion, count in enumerate(honest.counts)
        if count
    }
    return PopulationState.from_counts(
        honest.num_nodes,
        opinion_counts,
        scenario.num_opinions,
        random_state=scenario.seed,
    )


@ENGINE_REGISTRY.register("rumor", "sequential")
@ENGINE_REGISTRY.register("plurality", "sequential")
def _protocol_sequential(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The reference loop: one :class:`TwoStageProtocol` run per trial.

    Trial ``r`` consumes randomness from its own child generator, the
    ``r``-th of ``spawn_generators(num_trials, seed)``.

    Faulted scenarios track only the honest ``n_h`` nodes and route every
    phase through a per-trial :class:`FaultedDeliveryEngine` (fresh crash
    counter per trial) over the full ``n`` bins.
    """
    faulted = scenario.faults is not None
    initial_state = (
        _honest_initial_state(scenario) if faulted else scenario.initial_state()
    )
    num_nodes = initial_state.num_nodes
    target = scenario.target_opinion()
    results = []
    for generator in spawn_generators(scenario.num_trials, scenario.seed):
        if faulted:
            delivery = FaultedDeliveryEngine(
                num_nodes,
                scenario.num_nodes,
                noise,
                _fault_sampler(scenario),
                random_state=generator,
            )
        elif scenario.topology != "complete":
            delivery = _build_graph_engine(scenario, noise, generator)
        else:
            delivery = None
        protocol = TwoStageProtocol(
            num_nodes,
            noise,
            epsilon=scenario.epsilon,
            process=scenario.process,
            engine=delivery,
            random_state=generator,
            round_scale=scenario.round_scale,
            sampling_method=scenario.sampling_method,
            use_full_multiset=scenario.use_full_multiset,
        )
        results.append(protocol.run(initial_state, target_opinion=target))
    return SimulationResult.from_ensemble_result(
        EnsembleResult.from_trials(results),
        workload=scenario.workload,
        engine=engine,
    )


@ENGINE_REGISTRY.register("rumor", "batched")
@ENGINE_REGISTRY.register("plurality", "batched")
def _protocol_batched(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The vectorized ``(R, n)`` tier: one :class:`EnsembleProtocol` batch.

    Faulted scenarios share one :class:`FaultedDeliveryEngine` across the
    batch — the phase schedule (and hence the crash-round clock) is common
    to every trial, while each trial's ball draws stay on its own stream.
    """
    faulted = scenario.faults is not None
    initial_state = (
        _honest_initial_state(scenario) if faulted else scenario.initial_state()
    )
    delivery = (
        FaultedDeliveryEngine(
            initial_state.num_nodes,
            scenario.num_nodes,
            noise,
            _fault_sampler(scenario),
        )
        if faulted
        else None
    )
    protocol = EnsembleProtocol(
        initial_state.num_nodes,
        noise,
        epsilon=scenario.epsilon,
        process=scenario.process,
        engine=delivery,
        random_state=scenario.seed,
        round_scale=scenario.round_scale,
        sampling_method=scenario.sampling_method,
        use_full_multiset=scenario.use_full_multiset,
    )
    result = protocol.run(
        initial_state,
        scenario.num_trials,
        target_opinion=scenario.target_opinion(),
    )
    return SimulationResult.from_ensemble_result(
        result, workload=scenario.workload, engine=engine
    )


# reprolint: counts-tier
def _protocol_task(scenario: Scenario) -> CountsProtocolTask:
    """The counts-protocol task of one scenario.

    :func:`simulate` runs it as a one-task batch and
    :func:`~repro.sim.sweep.simulate_sweep` fuses it with a grid's other
    counts points, so both consume the same draws.  Faulted scenarios keep
    honest-only counts as state while the task's sampler adds the faulty
    balls, thrown into the full ``n`` bins (so the Poissonized rate
    ``B / n`` counts faulty balls and faulty mailboxes alike); only
    oblivious adversaries reach this tier.
    """
    sampler: Optional[FaultedPhaseSampler] = None
    if scenario.faults is not None:
        initial_counts, _ = scenario.fault_split()
        sampler = _fault_sampler(scenario)
    else:
        # Counts-native entry state: same opinion counts as the per-node
        # construction, but O(k) — n never gets an array axis on this tier.
        initial_counts = scenario.initial_counts_state()
    return CountsProtocolTask(
        num_nodes=initial_counts.num_nodes,
        noise=scenario.build_noise(),
        initial_state=initial_counts,
        num_trials=scenario.num_trials,
        epsilon=scenario.epsilon,
        target_opinion=scenario.target_opinion(),
        random_state=scenario.seed,
        round_scale=scenario.round_scale,
        sampler=sampler,
    )


@ENGINE_REGISTRY.register("rumor", "counts")
@ENGINE_REGISTRY.register("plurality", "counts")
def _protocol_counts(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The ``(R, k)`` sufficient-statistics tier: a one-task counts batch."""
    result = run_heterogeneous_counts_protocol([_protocol_task(scenario)])[0]
    return SimulationResult.from_ensemble_result(
        result, workload=scenario.workload, engine=engine
    )


# --------------------------------------------------------------------- #
# Dynamics workload
# --------------------------------------------------------------------- #


def _dynamics_epsilon(scenario: Scenario) -> Optional[float]:
    """The ``epsilon`` to forward to :func:`build_dynamics`.

    Only the approximate-consensus rule takes a precision target (the
    scenario's ``epsilon`` doubles as it); every other rule must see
    ``None`` or the factory rejects the argument.
    """
    if scenario.rule == "approximate-consensus":
        return scenario.epsilon
    return None


@ENGINE_REGISTRY.register("dynamics", "batched")
@ENGINE_REGISTRY.register("dynamics", "counts")
def _dynamics_ensemble(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The batched / counts dynamics tiers via :func:`build_dynamics`."""
    initial_state = (
        scenario.initial_counts_state()
        if engine == "counts"
        else scenario.initial_state()
    )
    dynamic = build_dynamics(
        engine,
        scenario.rule,
        scenario.num_nodes,
        noise,
        scenario.seed,
        sample_size=scenario.sample_size,
        epsilon=_dynamics_epsilon(scenario),
    )
    result = dynamic.run(
        initial_state,
        scenario.max_rounds,
        scenario.num_trials,
        target_opinion=scenario.target_opinion(),
        stop_at_consensus=scenario.stop_at_consensus,
        record_history=scenario.record_trajectories,
    )
    return SimulationResult.from_ensemble_dynamics_result(result, engine=engine)


@ENGINE_REGISTRY.register("rumor", "analytic")
@ENGINE_REGISTRY.register("plurality", "analytic")
def _protocol_analytic(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The sampling-free protocol tier: exact chain or mean-field ODE.

    Exactly tractable scenarios evolve the full count-state distribution
    through both stages (:class:`AnalyticProtocol`); everything else
    integrates the mean-field phase recursion with a Gaussian-diffusion
    correction (:class:`MeanFieldProtocol`).  Both consume the counts-native
    entry state — the analytic tier never materializes per-node opinions.
    """
    counts_state = scenario.initial_counts_state()
    protocol_cls = (
        AnalyticProtocol if _exactly_tractable(scenario) else MeanFieldProtocol
    )
    protocol = protocol_cls(
        scenario.num_nodes,
        noise,
        epsilon=scenario.epsilon,
        round_scale=scenario.round_scale,
    )
    result = protocol.run(
        counts_state.counts, target_opinion=scenario.target_opinion()
    )
    return SimulationResult.from_analytic_protocol(
        result, workload=scenario.workload, engine=engine
    )


@ENGINE_REGISTRY.register("dynamics", "analytic")
def _dynamics_analytic(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The sampling-free dynamics tier: exact chain or mean-field recursion."""
    counts_state = scenario.initial_counts_state()
    dynamics_cls = (
        ExactDynamicsChain
        if _exactly_tractable(scenario)
        else MeanFieldDynamics
    )
    dynamic = dynamics_cls(
        scenario.rule,
        scenario.num_nodes,
        noise,
        sample_size=scenario.sample_size,
    )
    result = dynamic.run(
        counts_state.counts,
        scenario.max_rounds,
        target_opinion=scenario.target_opinion(),
        stop_at_consensus=scenario.stop_at_consensus,
        record_history=scenario.record_trajectories,
    )
    return SimulationResult.from_analytic_dynamics(result, engine=engine)


@ENGINE_REGISTRY.register("dynamics", "sequential")
def _dynamics_sequential(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The sequential dynamics reference loop, one engine per trial."""
    initial_state = scenario.initial_state()
    target = scenario.target_opinion()
    results = []
    for generator in as_trial_generators(scenario.seed, scenario.num_trials):
        dynamic = build_dynamics(
            "sequential",
            scenario.rule,
            scenario.num_nodes,
            noise,
            generator,
            sample_size=scenario.sample_size,
            epsilon=_dynamics_epsilon(scenario),
        )
        results.append(
            dynamic.run(
                initial_state,
                scenario.max_rounds,
                target_opinion=target,
                stop_at_consensus=scenario.stop_at_consensus,
                record_history=scenario.record_trajectories,
            )
        )
    return SimulationResult.from_dynamics_results(results, engine=engine)

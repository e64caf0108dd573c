"""Tests for simulate() — legacy equivalence, auto policy, provenance, JSON."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.core.protocol import CountsProtocol, EnsembleProtocol, TwoStageProtocol
from repro.experiments.orchestrator import ResultStore
from repro.experiments.runner import set_default_counts_threshold
from repro.noise.families import identity_matrix
from repro.sim import (
    ENGINE_REGISTRY,
    Scenario,
    SimulationResult,
    sim_code_version,
    simulate,
)
from repro.sim.engines import build_dynamics
from repro.utils.rng import as_trial_generators, spawn_generators

SEED = 13
TRIALS = 4


def protocol_scenario(workload: str, engine: str) -> Scenario:
    knobs = dict(
        workload=workload,
        num_nodes=300,
        num_opinions=3,
        epsilon=0.35,
        engine=engine,
        num_trials=TRIALS,
        seed=SEED,
    )
    if workload == "plurality":
        knobs.update(support_size=120, bias=0.4)
    return Scenario(**knobs)


def dynamics_scenario(engine: str, **overrides) -> Scenario:
    knobs = dict(
        workload="dynamics",
        rule="3-majority",
        num_nodes=300,
        num_opinions=3,
        epsilon=0.66,
        bias=0.3,
        max_rounds=120,
        engine=engine,
        num_trials=TRIALS,
        seed=SEED,
    )
    knobs.update(overrides)
    return Scenario(**knobs)


def protocol_engine_outcomes(scenario: Scenario, engine: str):
    """Per-trial ``(success, rounds, final_bias, stage-1 bias)`` and the
    Stage-1 round count from driving the protocol engine directly."""
    initial_state = scenario.initial_state()
    num_nodes = scenario.num_nodes
    noise = scenario.build_noise()
    target = scenario.target_opinion()
    if engine == "sequential":
        results = [
            TwoStageProtocol(
                num_nodes, noise, epsilon=scenario.epsilon,
                random_state=generator,
            ).run(initial_state, target_opinion=target)
            for generator in spawn_generators(scenario.num_trials, scenario.seed)
        ]
        outcomes = [
            (
                result.success, result.total_rounds, result.final_bias,
                result.bias_after_stage1,
            )
            for result in results
        ]
        return outcomes, results[0].stage1_rounds
    protocol_cls = EnsembleProtocol if engine == "batched" else CountsProtocol
    ensemble = protocol_cls(
        num_nodes, noise, epsilon=scenario.epsilon,
        random_state=scenario.seed,
    ).run(initial_state, scenario.num_trials, target_opinion=target)
    outcomes = [
        (
            bool(ensemble.successes[trial]), ensemble.total_rounds,
            float(ensemble.final_biases[trial]),
            float(ensemble.biases_after_stage1[trial]),
        )
        for trial in range(ensemble.num_trials)
    ]
    return outcomes, ensemble.stage1_rounds


def dynamics_engine_outcomes(scenario: Scenario, engine: str):
    """Per-trial ``(success, converged, rounds, consensus opinion,
    final_bias)`` from driving the dynamics engine directly."""
    initial_state = scenario.initial_state()
    noise = scenario.build_noise()
    target = scenario.target_opinion()
    if engine == "sequential":
        outcomes = []
        for generator in as_trial_generators(scenario.seed, scenario.num_trials):
            result = build_dynamics(
                "sequential", scenario.rule, scenario.num_nodes, noise,
                generator, sample_size=scenario.sample_size,
            ).run(
                initial_state, scenario.max_rounds, target_opinion=target,
                record_history=False,
            )
            outcomes.append((
                result.success, result.converged, result.rounds_executed,
                result.consensus_opinion,
                result.final_state.bias_toward(target),
            ))
        return outcomes
    result = build_dynamics(
        engine, scenario.rule, scenario.num_nodes, noise, scenario.seed,
        sample_size=scenario.sample_size,
    ).run(
        initial_state, scenario.max_rounds, scenario.num_trials,
        target_opinion=target, record_history=False,
    )
    return [
        (
            bool(result.successes[trial]), bool(result.converged[trial]),
            int(result.rounds_executed[trial]),
            int(result.consensus_opinions[trial]),
            float(result.final_biases[trial]),
        )
        for trial in range(result.num_trials)
    ]


class TestLegacyEquivalence:
    """simulate() is bitwise identical to driving each engine directly.

    The reference for each pair constructs the tier's engine by hand —
    a `TwoStageProtocol` loop over `spawn_generators(R, seed)`,
    `EnsembleProtocol(...).run`, `CountsProtocol(...).run`, or
    `build_dynamics(tier, rule, ...).run` — fed the same materialized
    initial state, the same seed and the same target.
    """

    @pytest.mark.parametrize("workload", ["rumor", "plurality"])
    @pytest.mark.parametrize("engine", ["sequential", "batched", "counts"])
    def test_protocol_workloads_match_trial_outcomes(self, workload, engine):
        scenario = protocol_scenario(workload, engine)
        result = simulate(scenario)
        legacy, stage1_rounds = protocol_engine_outcomes(scenario, engine)
        assert result.engine == engine
        assert result.num_trials == len(legacy)
        for trial, (success, rounds, final_bias, stage1_bias) in enumerate(
            legacy
        ):
            assert bool(result.successes[trial]) == success
            assert int(result.rounds[trial]) == rounds
            # Bitwise float equality — same engines, same draws.
            assert float(result.final_biases[trial]) == final_bias
            assert float(result.bias_after_stage1[trial]) == stage1_bias
        assert result.stage1_rounds == stage1_rounds

    @pytest.mark.parametrize(
        "engine", ["sequential", "batched", "counts"]
    )
    @pytest.mark.parametrize(
        "rule,sample_size",
        [("3-majority", None), ("voter", None), ("h-majority", 5)],
    )
    def test_dynamics_workload_matches_trial_outcomes(
        self, engine, rule, sample_size
    ):
        scenario = dynamics_scenario(engine, rule=rule, sample_size=sample_size)
        result = simulate(scenario)
        legacy = dynamics_engine_outcomes(scenario, engine)
        assert result.engine == engine
        for trial, (success, converged, rounds, consensus, final_bias) in (
            enumerate(legacy)
        ):
            assert bool(result.successes[trial]) == success
            assert bool(result.converged[trial]) == converged
            assert int(result.rounds[trial]) == rounds
            assert int(result.consensus_opinions[trial]) == consensus
            assert float(result.final_biases[trial]) == final_bias

    def test_every_workload_engine_pair_is_registered(self):
        pairs = set(ENGINE_REGISTRY.pairs())
        for workload in ("rumor", "plurality", "dynamics"):
            for engine in ("sequential", "batched", "counts"):
                assert (workload, engine) in pairs


class TestTierContracts:
    """Per-tier guarantees the experiments rely on."""

    @pytest.mark.parametrize("workload", ["rumor", "dynamics"])
    @pytest.mark.parametrize("engine", ["sequential", "batched", "counts"])
    def test_same_seed_reproduces_the_result(self, workload, engine):
        scenario = (
            protocol_scenario(workload, engine)
            if workload == "rumor"
            else dynamics_scenario(engine)
        )
        first, second = simulate(scenario), simulate(scenario)
        for name in ("successes", "rounds", "final_biases",
                     "final_opinion_counts"):
            np.testing.assert_array_equal(
                getattr(first, name), getattr(second, name)
            )

    def test_protocol_tiers_share_the_schedule(self):
        rounds = {
            int(value)
            for engine in ("sequential", "batched", "counts")
            for value in simulate(protocol_scenario("rumor", engine)).rounds
        }
        assert len(rounds) == 1

    @pytest.mark.parametrize("engine", ["sequential", "batched", "counts"])
    def test_noise_free_majority_reaches_the_certain_event(self, engine):
        """Noise-free 3-majority from a 0.3 bias converges on opinion 1 in
        every trial, on every tier."""
        result = simulate(
            dynamics_scenario(engine, noise=identity_matrix(3), max_rounds=200)
        )
        assert result.successes.all()


class TestAutoPolicy:
    def test_auto_resolves_by_population_size(self):
        small = simulate(
            protocol_scenario("rumor", "auto")
        )
        assert small.engine == "batched"
        assert small.provenance["engine_policy"] == "auto"

        big = simulate(
            Scenario(
                workload="rumor", num_nodes=300, num_opinions=3,
                epsilon=0.35, engine="auto", counts_threshold=300,
                num_trials=TRIALS, seed=SEED,
            )
        )
        assert big.engine == "counts"

    def test_auto_ignores_the_runner_process_default(self):
        """The tier is a function of the scenario: the runner's
        process-wide threshold override must not reach simulate()."""
        scenario = Scenario(
            workload="rumor", num_nodes=3000, num_opinions=3,
            engine="auto", seed=SEED,
        )
        before = simulate(scenario).engine
        try:
            set_default_counts_threshold(1000)
            during = simulate(scenario).engine
        finally:
            set_default_counts_threshold(None)
        assert before == during == "batched"

    def test_auto_degrades_intractable_counts_h_majority_to_batched(self):
        result = simulate(
            dynamics_scenario(
                "auto",
                rule="h-majority",
                sample_size=256,
                counts_threshold=100,
                max_rounds=5,
                num_nodes=150,
            )
        )
        assert result.engine == "batched"


class TestProvenanceAndJson:
    def test_provenance_is_self_describing(self):
        scenario = protocol_scenario("rumor", "batched")
        result = simulate(scenario)
        provenance = result.provenance
        assert provenance["workload"] == "rumor"
        assert provenance["engine"] == "batched"
        assert provenance["seed"] == SEED
        assert provenance["code_version"] == sim_code_version()
        assert provenance["wall_time_seconds"] > 0
        assert Scenario.from_dict(provenance["scenario"]) == scenario

    def test_counts_runs_expose_vote_law_cache_counters(self):
        result = simulate(protocol_scenario("rumor", "counts"))
        counters = result.provenance["vote_law_cache"]
        assert {
            "law_hits", "law_misses", "law_entries",
            "table_hits", "table_misses", "table_entries",
            "dense_table_hits", "dense_table_misses", "dense_table_entries",
        } <= set(counters)
        # Deltas for this run: a protocol run builds at least one law.
        assert all(value >= 0 for value in counters.values())
        assert counters["law_hits"] + counters["law_misses"] > 0

    def test_non_counts_runs_have_no_cache_counters(self):
        result = simulate(protocol_scenario("rumor", "batched"))
        assert "vote_law_cache" not in result.provenance

    def test_json_round_trip_is_exact(self):
        result = simulate(dynamics_scenario("batched"))
        rebuilt = SimulationResult.from_json(result.to_json())
        np.testing.assert_array_equal(rebuilt.successes, result.successes)
        np.testing.assert_array_equal(rebuilt.converged, result.converged)
        np.testing.assert_array_equal(rebuilt.rounds, result.rounds)
        np.testing.assert_array_equal(
            rebuilt.final_biases, result.final_biases
        )
        np.testing.assert_array_equal(
            rebuilt.final_opinion_counts, result.final_opinion_counts
        )
        np.testing.assert_array_equal(
            rebuilt.trajectories, result.trajectories
        )
        assert rebuilt.provenance == json.loads(result.to_json())["provenance"]

    def test_to_json_uses_the_canonical_encoder(self):
        """Every leaf of to_json_dict() must be plain JSON-compatible."""
        result = simulate(protocol_scenario("plurality", "counts"))
        document = result.to_json_dict()
        json.dumps(document)  # would raise on stray numpy scalars

        def assert_plain(value):
            if isinstance(value, dict):
                for entry in value.values():
                    assert_plain(entry)
            elif isinstance(value, list):
                for entry in value:
                    assert_plain(entry)
            else:
                assert value is None or isinstance(
                    value, (bool, int, float, str)
                )
                assert not isinstance(value, np.generic)

        assert_plain(document)

    REQUIRED_JSON_FIELDS = (
        "workload", "engine", "num_nodes", "num_opinions", "num_trials",
        "target_opinion", "successes", "converged", "rounds",
        "final_biases", "final_opinion_counts", "consensus_opinions",
    )

    @pytest.mark.parametrize("missing", REQUIRED_JSON_FIELDS)
    def test_from_json_names_a_missing_required_field(self, missing):
        document = simulate(protocol_scenario("rumor", "counts")).to_json_dict()
        del document[missing]
        with pytest.raises(ValueError, match=f"'{missing}'"):
            SimulationResult.from_json(document)

    def test_from_json_names_every_missing_field_at_once(self):
        document = simulate(protocol_scenario("rumor", "counts")).to_json_dict()
        del document["rounds"], document["num_nodes"]
        with pytest.raises(ValueError) as raised:
            SimulationResult.from_json(document)
        assert "'num_nodes'" in str(raised.value)
        assert "'rounds'" in str(raised.value)


class TestResultStoreStability:
    """Orchestrator ResultStore payloads with facade provenance stay
    content-key stable (the satellite regression)."""

    def test_store_key_survives_json_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        scenario = protocol_scenario("rumor", "counts")
        result = simulate(scenario)
        identity = {
            "kind": "simulation",
            "scenario": scenario.to_dict(),
            "engine": result.engine,
            "code_version": result.provenance["code_version"],
        }
        key = store.key_of(identity)
        # The canonical key must be invariant under JSON normalization —
        # the property that makes resume semantics trustworthy.
        assert key == store.key_of(json.loads(json.dumps(identity)))

        store.store("simulation", identity, result.to_json_dict())
        payload = store.fetch("simulation", identity)
        assert payload is not None
        rebuilt = SimulationResult.from_json(payload)
        np.testing.assert_array_equal(rebuilt.successes, result.successes)
        assert (
            rebuilt.provenance["code_version"]
            == result.provenance["code_version"]
        )
        # Storing the fetched payload again maps to the same artifact.
        assert key == store.key_of(json.loads(json.dumps(identity)))


class TestImports:
    def test_plain_import_emits_no_deprecation_warning(self):
        """`import repro` must stay silent — the CI gate in miniature."""
        completed = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro",
            ],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_sim_layer_loads_no_experiments_module(self):
        """simulate(), to_json() and an unstored sweep stay inside
        repro.sim: the experiments package sits on top of it."""
        script = (
            "import sys\n"
            "from repro.sim import Scenario, ScenarioGrid, simulate, "
            "simulate_sweep\n"
            "base = Scenario(workload='rumor', num_nodes=300, num_trials=2)\n"
            "simulate(base).to_json()\n"
            "simulate_sweep(ScenarioGrid(base, {'epsilon': (0.3, 0.35)}))\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.experiments')))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

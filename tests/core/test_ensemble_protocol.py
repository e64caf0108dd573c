"""Tests for the batched EnsembleProtocol and its executors.

The central guarantee under test: with per-trial randomness sources, a
batched run of ``R`` trials is *bitwise identical* to ``R`` separate
batch-size-1 runs with the same per-trial sources — the trial axis is pure
vectorization and never changes any trial's trajectory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import EnsembleProtocol, TwoStageProtocol
from repro.core.rumor import RumorSpreading
from repro.core.schedule import ProtocolSchedule
from repro.core.stage1 import EnsembleStage1Executor
from repro.core.stage2 import EnsembleStage2Executor
from repro.core.state import EnsembleState, PopulationState
from repro.experiments.workloads import biased_population, rumor_instance
from repro.network.push_model import UniformPushModel
from repro.network.topology import GraphPushModel, standard_topology
from repro.noise.families import identity_matrix, uniform_noise_matrix

NUM_NODES = 300
EPSILON = 0.35
SEEDS = [101, 202, 303, 404]


@pytest.fixture
def noise():
    return uniform_noise_matrix(3, EPSILON)


@pytest.fixture
def initial_state():
    return rumor_instance(NUM_NODES, 3, 1)


def run_batched(noise, initial_state, random_state, num_trials, **kwargs):
    protocol = EnsembleProtocol(
        initial_state.num_nodes,
        noise,
        epsilon=EPSILON,
        random_state=random_state,
        **kwargs,
    )
    return protocol.run(initial_state, num_trials, target_opinion=1)


class TestSeedMatchedEquivalence:
    def test_batched_equals_sequential_runs_with_matched_seeds(
        self, noise, initial_state
    ):
        """The acceptance-criterion equivalence: R batched trials == R
        sequential batch-size-1 runs, seed for seed, bit for bit."""
        batched = run_batched(noise, initial_state, SEEDS, len(SEEDS))
        for trial, seed in enumerate(SEEDS):
            single = run_batched(noise, initial_state, [seed], 1)
            assert np.array_equal(
                batched.final_states.opinions[trial],
                single.final_states.opinions[0],
            )
            assert bool(batched.successes[trial]) == bool(single.successes[0])
            assert batched.total_rounds == single.total_rounds
            assert batched.biases_after_stage1[trial] == pytest.approx(
                single.biases_after_stage1[0]
            )

    def test_phase_records_match_trial_by_trial(self, noise, initial_state):
        batched = run_batched(noise, initial_state, SEEDS, len(SEEDS))
        single = run_batched(noise, initial_state, [SEEDS[2]], 1)
        for batched_record, single_record in zip(
            batched.stage1_records, single.stage1_records
        ):
            assert batched_record.opinionated_after[2] == (
                single_record.opinionated_after[0]
            )
            assert batched_record.updated_nodes[2] == (
                single_record.updated_nodes[0]
            )
        for batched_record, single_record in zip(
            batched.stage2_records, single.stage2_records
        ):
            assert batched_record.updated_nodes[2] == single_record.updated_nodes[0]
            assert np.allclose(
                batched_record.opinion_distributions[2],
                single_record.opinion_distributions[0],
            )

    def test_int_seed_spawns_stable_per_trial_streams(self, noise, initial_state):
        """With one integer seed, trial r of a batch matches trial r of any
        larger batch (child streams depend only on the trial index)."""
        small = run_batched(noise, initial_state, 7, 2)
        large = run_batched(noise, initial_state, 7, 4)
        assert np.array_equal(
            small.final_states.opinions, large.final_states.opinions[:2]
        )

    def test_matched_seeds_hold_for_every_process(self, noise, initial_state):
        for process in ("push", "balls_bins", "poisson"):
            batched = run_batched(
                noise, initial_state, SEEDS[:2], 2, process=process
            )
            single = run_batched(
                noise, initial_state, [SEEDS[1]], 1, process=process
            )
            assert np.array_equal(
                batched.final_states.opinions[1], single.final_states.opinions[0]
            )


class TestStatisticalAgreementWithSequentialProtocol:
    def test_identity_noise_both_always_succeed(self, initial_state):
        """Under the noise-free channel both engines must always spread the
        rumor to everyone: the batched path and the reference path agree on
        the certain event."""
        noise = identity_matrix(3)
        batched = run_batched(noise, initial_state, 0, 6)
        assert batched.success_rate == 1.0
        sequential = TwoStageProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(initial_state, target_opinion=1)
        assert sequential.success
        assert sequential.total_rounds == batched.total_rounds

    def test_stage1_bias_matches_sequential_in_mean(self, noise, initial_state):
        """Both engines implement the same protocol, so the Stage-1 bias
        statistics must agree (they use different RNG consumption, hence the
        statistical tolerance)."""
        batched = run_batched(noise, initial_state, 0, 24)
        sequential_biases = []
        for seed in range(8):
            result = TwoStageProtocol(
                NUM_NODES, noise, epsilon=EPSILON, random_state=seed
            ).run(initial_state, target_opinion=1)
            sequential_biases.append(result.bias_after_stage1)
        batched_mean = float(batched.biases_after_stage1.mean())
        sequential_mean = float(np.mean(sequential_biases))
        assert batched_mean == pytest.approx(sequential_mean, abs=0.08)
        assert batched.success_rate >= 0.9


class TestEnsembleProtocolApi:
    def test_result_shapes_and_types(self, noise, initial_state):
        result = run_batched(noise, initial_state, 0, 5)
        assert result.num_trials == 5
        assert result.successes.shape == (5,)
        assert result.successes.dtype == bool
        assert result.final_biases.shape == (5,)
        assert result.biases_after_stage1.shape == (5,)
        assert result.opinionated_after_stage1.shape == (5,)
        assert result.correct_fractions().shape == (5,)
        assert result.total_rounds == result.stage1_rounds + result.stage2_rounds
        assert 0.0 <= result.success_rate <= 1.0
        assert result.success_count == int(result.successes.sum())
        summary = result.summary()
        assert summary["num_trials"] == 5
        assert summary["target_opinion"] == 1

    def test_accepts_prebuilt_ensemble_state(self, noise):
        ensemble = EnsembleState.from_state(
            biased_population(NUM_NODES, 3, 0.3, random_state=0), 3
        )
        result = EnsembleProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(ensemble)
        assert result.num_trials == 3

    def test_infers_target_from_pooled_plurality(self, noise):
        state = biased_population(NUM_NODES, 3, 0.4, majority_opinion=2, random_state=0)
        result = EnsembleProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(state, 3)
        assert result.target_opinion == 2

    def test_requires_num_trials_for_population_state(self, noise, initial_state):
        protocol = EnsembleProtocol(NUM_NODES, noise, epsilon=EPSILON)
        with pytest.raises(ValueError):
            protocol.run(initial_state)

    def test_rejects_num_trials_mismatch(self, noise, initial_state):
        protocol = EnsembleProtocol(NUM_NODES, noise, epsilon=EPSILON)
        ensemble = EnsembleState.from_state(initial_state, 3)
        with pytest.raises(ValueError):
            protocol.run(ensemble, 4)

    def test_rejects_node_count_mismatch(self, noise):
        protocol = EnsembleProtocol(NUM_NODES, noise, epsilon=EPSILON)
        with pytest.raises(ValueError):
            protocol.run(rumor_instance(NUM_NODES + 1, 3, 1), 2)

    def test_rejects_opinion_count_mismatch(self, noise):
        protocol = EnsembleProtocol(NUM_NODES, noise, epsilon=EPSILON)
        with pytest.raises(ValueError):
            protocol.run(rumor_instance(NUM_NODES, 2, 1), 2)

    def test_rejects_all_undecided_without_target(self, noise):
        protocol = EnsembleProtocol(NUM_NODES, noise, epsilon=EPSILON)
        with pytest.raises(ValueError):
            protocol.run(PopulationState.all_undecided(NUM_NODES, 3), 2)

    def test_requires_schedule_or_epsilon(self, noise):
        with pytest.raises(ValueError):
            EnsembleProtocol(NUM_NODES, noise)

    def test_rejects_unknown_rng_mode(self, noise):
        with pytest.raises(ValueError):
            EnsembleProtocol(NUM_NODES, noise, epsilon=EPSILON, rng_mode="bogus")

    def test_shared_rng_mode_runs(self, noise, initial_state):
        result = run_batched(
            noise, initial_state, 0, 4, rng_mode="shared"
        )
        assert result.num_trials == 4
        assert result.success_rate >= 0.75

    def test_explicit_schedule_is_honoured(self, noise, initial_state):
        schedule = ProtocolSchedule.for_population(NUM_NODES, EPSILON)
        result = EnsembleProtocol(
            NUM_NODES, noise, schedule=schedule, random_state=0
        ).run(initial_state, 2, target_opinion=1)
        assert result.total_rounds == schedule.total_rounds

    def test_rejects_topology_engine(self, noise, initial_state):
        graph = standard_topology("complete", NUM_NODES)
        engine = GraphPushModel(graph, noise, 0)
        protocol = EnsembleProtocol(
            NUM_NODES, noise, epsilon=EPSILON, engine=engine
        )
        with pytest.raises(TypeError):
            protocol.run(initial_state, 2, target_opinion=1)

    def test_two_stage_protocol_run_ensemble_shortcut(self, noise, initial_state):
        protocol = TwoStageProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        )
        result = protocol.run_ensemble(initial_state, 3, target_opinion=1)
        assert result.num_trials == 3
        assert result.total_rounds > 0

    def test_rumor_spreading_run_ensemble(self, noise):
        solver = RumorSpreading(
            NUM_NODES, 3, noise, EPSILON, correct_opinion=2, random_state=0
        )
        result = solver.run_ensemble(4)
        assert result.num_trials == 4
        assert result.target_opinion == 2


class TestEnsembleExecutors:
    def test_stage1_executor_rejects_topology_engine(self, noise):
        graph = standard_topology("cycle", 20)
        engine = GraphPushModel(graph, noise, 0)
        schedule = ProtocolSchedule.for_population(20, EPSILON)
        with pytest.raises(TypeError):
            EnsembleStage1Executor(engine, schedule.stage1)
        with pytest.raises(TypeError):
            EnsembleStage2Executor(engine, schedule.stage2)

    def test_stage2_executor_rejects_bad_sampling_method(self, noise):
        engine = UniformPushModel(20, noise, 0)
        schedule = ProtocolSchedule.for_population(20, EPSILON)
        with pytest.raises(ValueError):
            EnsembleStage2Executor(engine, schedule.stage2, sampling_method="bogus")

    def test_stage1_does_not_mutate_input(self, noise, initial_state):
        engine = UniformPushModel(NUM_NODES, noise, 0)
        schedule = ProtocolSchedule.for_population(NUM_NODES, EPSILON)
        ensemble = EnsembleState.from_state(initial_state, 3)
        executor = EnsembleStage1Executor(engine, schedule.stage1, 0)
        final, records = executor.run(ensemble, track_opinion=1)
        assert np.array_equal(
            ensemble.opinions, np.tile(initial_state.opinions, (3, 1))
        )
        assert len(records) == len(schedule.stage1.phase_lengths)
        assert np.all(final.opinionated_counts() >= 1)

    def test_run_does_not_mutate_an_ensemble_input(self, noise, initial_state):
        ensemble = EnsembleState.from_state(initial_state, 3)
        result = run_batched(noise, ensemble, 0, 3)
        assert np.array_equal(
            ensemble.opinions, np.tile(initial_state.opinions, (3, 1))
        )
        assert not np.array_equal(result.final_states.opinions, ensemble.opinions)

    def test_stage2_records_per_trial_bias(self, noise):
        engine = UniformPushModel(NUM_NODES, noise, 0)
        schedule = ProtocolSchedule.for_population(NUM_NODES, EPSILON)
        state = biased_population(NUM_NODES, 3, 0.4, random_state=0)
        ensemble = EnsembleState.from_state(state, 3)
        executor = EnsembleStage2Executor(engine, schedule.stage2, 0)
        final, records = executor.run(ensemble, track_opinion=1)
        assert records[-1].bias.shape == (3,)
        assert np.array_equal(records[-1].bias, final.bias_toward(1))
        assert np.array_equal(
            records[-1].opinionated_after, final.opinionated_counts()
        )

    def test_full_multiset_variant_runs(self, noise, initial_state):
        result = run_batched(
            noise, initial_state, 0, 3, use_full_multiset=True
        )
        assert result.num_trials == 3

    def test_with_replacement_sampling_runs(self, noise, initial_state):
        result = run_batched(
            noise, initial_state, 0, 3, sampling_method="with_replacement"
        )
        assert result.num_trials == 3

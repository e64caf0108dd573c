"""Tests for repro.core.stage2 (the Stage-2 sample-majority rule)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import Stage2Schedule
from repro.core.stage2 import Stage2Executor
from repro.core.state import PopulationState
from repro.experiments.workloads import biased_population
from repro.network.push_model import UniformPushModel
from repro.noise.families import identity_matrix, uniform_noise_matrix


def make_executor(num_nodes, noise, rng, **executor_kwargs):
    schedule = Stage2Schedule.for_population(num_nodes, 0.3)
    engine = UniformPushModel(num_nodes, noise, rng)
    return Stage2Executor(engine, schedule, rng, **executor_kwargs), schedule


class TestStage2Executor:
    def test_requires_engine_interface(self, rng):
        schedule = Stage2Schedule.for_population(100, 0.3)
        with pytest.raises(TypeError):
            Stage2Executor(object(), schedule, rng)

    def test_invalid_sampling_method_rejected(self, identity3, rng):
        schedule = Stage2Schedule.for_population(100, 0.3)
        engine = UniformPushModel(100, identity3, rng)
        with pytest.raises(ValueError):
            Stage2Executor(engine, schedule, rng, sampling_method="nope")

    def test_initial_state_not_mutated(self, uniform3, rng):
        executor, _ = make_executor(300, uniform3, rng)
        initial = biased_population(300, 3, 0.2, random_state=rng)
        snapshot = initial.opinions.copy()
        executor.run(initial)
        assert np.array_equal(initial.opinions, snapshot)

    def test_records_cover_every_phase(self, uniform3, rng):
        executor, schedule = make_executor(300, uniform3, rng)
        initial = biased_population(300, 3, 0.2, random_state=rng)
        _, records = executor.run(initial)
        assert len(records) == schedule.num_phases
        assert [record.sample_size for record in records] == schedule.sample_sizes

    def test_amplifies_bias_and_reaches_consensus(self, uniform3, rng):
        executor, _ = make_executor(1000, uniform3, rng)
        initial = biased_population(1000, 3, 0.15, random_state=rng)
        final_state, records = executor.run(initial, track_opinion=1)
        assert final_state.has_consensus_on(1)
        assert records[-1].bias == pytest.approx(1.0)

    def test_bias_records_consistent_with_state(self, uniform3, rng):
        executor, _ = make_executor(500, uniform3, rng)
        initial = biased_population(500, 3, 0.2, random_state=rng)
        final_state, records = executor.run(initial, track_opinion=1)
        assert records[-1].bias == pytest.approx(final_state.bias_toward(1))

    def test_noise_free_stage2_converges_fast(self, identity3, rng):
        executor, _ = make_executor(500, identity3, rng)
        initial = biased_population(500, 3, 0.2, random_state=rng)
        final_state, _ = executor.run(initial, track_opinion=1)
        assert final_state.has_consensus_on(1)

    def test_stop_at_consensus_truncates_records(self, identity3, rng):
        executor, schedule = make_executor(500, identity3, rng)
        initial = biased_population(500, 3, 0.3, random_state=rng)
        _, records = executor.run(
            initial, track_opinion=1, stop_at_consensus=True
        )
        assert len(records) <= schedule.num_phases

    def test_undecided_nodes_join_during_stage2(self, uniform3, rng):
        # Stage 2's rule lets any node that received enough messages vote, so
        # an initially undecided minority gets absorbed.
        executor, _ = make_executor(400, uniform3, rng)
        initial = PopulationState.from_counts(
            400, {1: 250, 2: 100}, 3, random_state=rng
        )
        final_state, _ = executor.run(initial, track_opinion=1)
        assert final_state.opinionated_fraction() == pytest.approx(1.0)

    def test_all_undecided_population_stays_undecided(self, uniform3, rng):
        executor, _ = make_executor(100, uniform3, rng)
        initial = PopulationState.all_undecided(100, 3)
        final_state, records = executor.run(initial)
        assert final_state.opinionated_count() == 0
        assert all(record.messages_sent == 0 for record in records)

    def test_updated_nodes_counted(self, uniform3, rng):
        executor, _ = make_executor(400, uniform3, rng)
        initial = biased_population(400, 3, 0.2, random_state=rng)
        _, records = executor.run(initial)
        # With every node pushing for 2L rounds, essentially every node
        # receives >= L messages and re-votes each phase.
        assert records[0].updated_nodes > 350

    def test_full_multiset_variant_also_converges(self, uniform3, rng):
        executor, _ = make_executor(500, uniform3, rng, use_full_multiset=True)
        initial = biased_population(500, 3, 0.2, random_state=rng)
        final_state, _ = executor.run(initial, track_opinion=1)
        assert final_state.has_consensus_on(1)

    def test_with_replacement_variant_also_converges(self, uniform3, rng):
        executor, _ = make_executor(
            500, uniform3, rng, sampling_method="with_replacement"
        )
        initial = biased_population(500, 3, 0.2, random_state=rng)
        final_state, _ = executor.run(initial, track_opinion=1)
        assert final_state.has_consensus_on(1)

    def test_strong_noise_without_bias_does_not_invent_consensus_on_target(
        self, rng
    ):
        # Start perfectly balanced between opinions 1 and 2: the protocol may
        # converge somewhere by symmetry breaking, but it should not
        # systematically pick opinion 1.
        noise = uniform_noise_matrix(2, 0.3)
        winners = []
        for seed in range(6):
            local_rng = np.random.default_rng(seed)
            schedule = Stage2Schedule.for_population(400, 0.3)
            engine = UniformPushModel(400, noise, local_rng)
            executor = Stage2Executor(engine, schedule, local_rng)
            initial = PopulationState.from_counts(
                400, {1: 200, 2: 200}, 2, random_state=local_rng
            )
            final_state, _ = executor.run(initial, track_opinion=1)
            winners.append(final_state.plurality_opinion())
        assert len(set(winners)) > 1 or winners[0] in (1, 2)

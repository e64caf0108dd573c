"""Tests for repro.core.stage1 (the Stage-1 rule)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import Stage1Schedule
from repro.core.stage1 import Stage1Executor
from repro.core.state import PopulationState
from repro.network.push_model import UniformPushModel
from repro.noise.families import identity_matrix, uniform_noise_matrix


def make_executor(num_nodes, noise, rng, **schedule_kwargs):
    schedule = Stage1Schedule.for_population(num_nodes, 0.3, **schedule_kwargs)
    engine = UniformPushModel(num_nodes, noise, rng)
    return Stage1Executor(engine, schedule, rng), schedule


class TestStage1Executor:
    def test_requires_engine_interface(self, rng):
        schedule = Stage1Schedule.for_population(100, 0.3)
        with pytest.raises(TypeError):
            Stage1Executor(object(), schedule, rng)

    def test_initial_state_not_mutated(self, identity3, rng):
        executor, _ = make_executor(200, identity3, rng)
        initial = PopulationState.single_source(200, 3, 1)
        executor.run(initial)
        assert initial.opinionated_count() == 1

    def test_records_cover_every_phase(self, identity3, rng):
        executor, schedule = make_executor(200, identity3, rng)
        initial = PopulationState.single_source(200, 3, 1)
        _, records = executor.run(initial)
        assert len(records) == schedule.num_phases
        assert [record.num_rounds for record in records] == schedule.phase_lengths

    def test_opinionated_count_never_decreases(self, uniform3, rng):
        executor, _ = make_executor(300, uniform3, rng)
        initial = PopulationState.single_source(300, 3, 2)
        _, records = executor.run(initial)
        counts = [records[0].opinionated_before] + [
            record.opinionated_after for record in records
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_opinionated_nodes_never_change_opinion(self, uniform3, rng):
        # Run phase by phase and check that once a node has an opinion it is
        # never overwritten during Stage 1.
        num_nodes = 200
        schedule = Stage1Schedule.for_population(num_nodes, 0.3)
        engine = UniformPushModel(num_nodes, uniform3, rng)
        executor = Stage1Executor(engine, schedule, rng)
        state = PopulationState.single_source(num_nodes, 3, 1)
        previous = state.opinions.copy()
        for phase_index, num_rounds in enumerate(schedule.phase_lengths):
            executor.run_phase(state, phase_index, num_rounds, track_opinion=1)
            was_opinionated = previous > 0
            assert np.array_equal(
                state.opinions[was_opinionated], previous[was_opinionated]
            )
            previous = state.opinions.copy()

    def test_noise_free_stage1_spreads_only_source_opinion(self, identity3, rng):
        executor, _ = make_executor(300, identity3, rng)
        initial = PopulationState.single_source(300, 3, 2)
        final_state, _ = executor.run(initial, track_opinion=2)
        counts = final_state.opinion_counts()
        assert counts[0] == 0 and counts[2] == 0
        assert counts[1] == final_state.opinionated_count()

    def test_all_nodes_opinionated_after_stage1(self, uniform3, rng):
        executor, _ = make_executor(500, uniform3, rng)
        initial = PopulationState.single_source(500, 3, 1)
        final_state, _ = executor.run(initial)
        assert final_state.opinionated_fraction() == pytest.approx(1.0)

    def test_final_bias_toward_source_opinion(self, uniform3, rng):
        executor, _ = make_executor(800, uniform3, rng)
        initial = PopulationState.single_source(800, 3, 3)
        final_state, records = executor.run(initial, track_opinion=3)
        assert final_state.bias_toward(3) > 0
        assert records[-1].bias == pytest.approx(final_state.bias_toward(3))

    def test_track_opinion_defaults_to_plurality(self, uniform3, rng):
        executor, _ = make_executor(300, uniform3, rng)
        initial = PopulationState.single_source(300, 3, 2)
        _, records = executor.run(initial)
        assert records[0].bias is not None

    def test_no_senders_phase_is_a_noop(self, identity3, rng):
        executor, schedule = make_executor(50, identity3, rng)
        state = PopulationState.all_undecided(50, 3)
        record = executor.run_phase(state, 0, schedule.phase_lengths[0])
        assert record.updated_nodes == 0
        assert record.messages_sent == 0
        assert state.opinionated_count() == 0

    def test_messages_sent_accounting(self, identity3, rng):
        num_nodes = 100
        executor, _ = make_executor(num_nodes, identity3, rng)
        state = PopulationState.from_counts(num_nodes, {1: 10}, 3, rng)
        record = executor.run_phase(state, 0, 7)
        assert record.messages_sent == 10 * 7

    def test_newly_opinionated_matches_difference(self, uniform3, rng):
        executor, _ = make_executor(400, uniform3, rng)
        initial = PopulationState.single_source(400, 3, 1)
        _, records = executor.run(initial)
        for record in records:
            assert record.updated_nodes == (
                record.opinionated_after - record.opinionated_before
            )

    def test_balls_bins_engine_accepted(self, uniform3, rng):
        from repro.network.balls_bins import BallsIntoBinsProcess

        num_nodes = 300
        schedule = Stage1Schedule.for_population(num_nodes, 0.3)
        engine = BallsIntoBinsProcess(num_nodes, uniform3, rng)
        executor = Stage1Executor(engine, schedule, rng)
        final_state, _ = executor.run(PopulationState.single_source(num_nodes, 3, 1))
        assert final_state.opinionated_fraction() > 0.95

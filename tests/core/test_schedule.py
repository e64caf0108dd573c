"""Tests for repro.core.schedule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import (
    PhaseRecord,
    ProtocolSchedule,
    Stage1Schedule,
    Stage2Schedule,
    theoretical_round_complexity,
)


class TestTheoreticalRoundComplexity:
    def test_monotone_in_n(self):
        assert theoretical_round_complexity(
            2000, 0.2
        ) > theoretical_round_complexity(1000, 0.2)

    def test_scales_inverse_square_epsilon(self):
        assert theoretical_round_complexity(1000, 0.1) == pytest.approx(
            4 * theoretical_round_complexity(1000, 0.2)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_round_complexity(0, 0.2)
        with pytest.raises(ValueError):
            theoretical_round_complexity(100, 0.0)


class TestStage1Schedule:
    def test_structure_has_at_least_two_phases(self):
        schedule = Stage1Schedule.for_population(1000, 0.3)
        assert schedule.num_phases >= 2
        assert schedule.num_growth_phases == schedule.num_phases - 2

    def test_phase_zero_and_final_scale_with_log_n(self):
        small = Stage1Schedule.for_population(1000, 0.3)
        large = Stage1Schedule.for_population(100_000, 0.3)
        assert large.phase_lengths[0] > small.phase_lengths[0]
        assert large.phase_lengths[-1] > small.phase_lengths[-1]

    def test_rounds_scale_with_inverse_epsilon_squared(self):
        low_noise = Stage1Schedule.for_population(4000, 0.4)
        high_noise = Stage1Schedule.for_population(4000, 0.1)
        assert high_noise.total_rounds > low_noise.total_rounds * 4

    def test_total_rounds_within_big_o_of_theory(self):
        for n in (500, 5000, 50_000):
            for eps in (0.1, 0.2, 0.4):
                schedule = Stage1Schedule.for_population(n, eps)
                clock = theoretical_round_complexity(n, eps)
                assert schedule.total_rounds <= 40 * clock

    def test_constants_must_be_ordered(self):
        with pytest.raises(ValueError):
            Stage1Schedule.for_population(1000, 0.3, s=2.0, beta=1.0, phi=3.0)

    def test_large_initial_support_removes_growth_phases(self):
        schedule = Stage1Schedule.for_population(
            1000, 0.3, initial_opinionated=1000
        )
        assert schedule.num_growth_phases == 0

    def test_initial_support_cannot_exceed_population(self):
        with pytest.raises(ValueError):
            Stage1Schedule.for_population(100, 0.3, initial_opinionated=200)

    def test_round_scale_shrinks_phases(self):
        base = Stage1Schedule.for_population(2000, 0.3)
        scaled = Stage1Schedule.for_population(2000, 0.3, round_scale=0.5)
        assert scaled.total_rounds < base.total_rounds

    def test_all_phases_have_at_least_one_round(self):
        schedule = Stage1Schedule.for_population(10, 0.45)
        assert all(length >= 1 for length in schedule.phase_lengths)


class TestStage2Schedule:
    def test_sample_sizes_and_lengths_aligned(self):
        schedule = Stage2Schedule.for_population(2000, 0.3)
        assert len(schedule.sample_sizes) == len(schedule.phase_lengths)
        for length, sample in zip(schedule.phase_lengths, schedule.sample_sizes):
            assert length == 2 * sample

    def test_sample_sizes_are_odd_by_default(self):
        schedule = Stage2Schedule.for_population(3000, 0.25)
        assert all(sample % 2 == 1 for sample in schedule.sample_sizes)

    def test_even_samples_allowed_when_requested(self):
        schedule = Stage2Schedule.for_population(
            3000, 0.25, odd_sample_size=False
        )
        # At least the construction runs; parity is unconstrained.
        assert schedule.num_phases >= 2

    def test_final_phase_is_longest(self):
        schedule = Stage2Schedule.for_population(5000, 0.3)
        assert schedule.sample_sizes[-1] == max(schedule.sample_sizes)

    def test_number_of_phases_grows_with_n(self):
        small = Stage2Schedule.for_population(100, 0.3)
        large = Stage2Schedule.for_population(1_000_000, 0.3)
        assert large.num_phases > small.num_phases

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Stage2Schedule(phase_lengths=[4, 4], sample_sizes=[2], epsilon=0.3)

    def test_sample_size_scales_with_inverse_epsilon_squared(self):
        coarse = Stage2Schedule.for_population(2000, 0.4)
        fine = Stage2Schedule.for_population(2000, 0.1)
        assert fine.sample_sizes[0] > coarse.sample_sizes[0] * 8


class TestProtocolSchedule:
    def test_total_rounds_is_sum_of_stages(self):
        schedule = ProtocolSchedule.for_population(2000, 0.3)
        assert schedule.total_rounds == (
            schedule.stage1.total_rounds + schedule.stage2.total_rounds
        )

    def test_custom_constants_forwarded(self):
        schedule = ProtocolSchedule.for_population(
            2000, 0.3, stage1_constants=(1.0, 2.0, 4.0), stage2_constants=(2.0, 0.5)
        )
        assert schedule.stage1.constants == (1.0, 2.0, 4.0)

    def test_total_rounds_order_of_magnitude(self):
        # The whole protocol stays within a constant factor of log(n)/eps^2.
        for n in (1000, 10_000):
            for eps in (0.15, 0.3):
                schedule = ProtocolSchedule.for_population(n, eps)
                clock = theoretical_round_complexity(n, eps)
                assert clock < schedule.total_rounds < 60 * clock


class TestScheduleProperties:
    @given(
        st.integers(min_value=10, max_value=200_000),
        st.floats(min_value=0.05, max_value=0.45),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedules_are_well_formed(self, num_nodes, epsilon):
        schedule = ProtocolSchedule.for_population(num_nodes, epsilon)
        assert all(length >= 1 for length in schedule.stage1.phase_lengths)
        assert all(length >= 2 for length in schedule.stage2.phase_lengths)
        assert all(sample >= 1 for sample in schedule.stage2.sample_sizes)

    @given(
        st.integers(min_value=100, max_value=50_000),
        st.floats(min_value=0.05, max_value=0.45),
        st.floats(min_value=0.05, max_value=0.45),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_noise_never_shortens_stage1(self, num_nodes, eps_a, eps_b):
        low, high = sorted((eps_a, eps_b))
        noisy = Stage1Schedule.for_population(num_nodes, low)
        clean = Stage1Schedule.for_population(num_nodes, high)
        assert noisy.total_rounds >= clean.total_rounds


class TestPhaseRecord:
    def record(self, counts, **overrides):
        fields = dict(
            counts=np.asarray(counts, dtype=np.int64),
            num_nodes=10,
            opinionated_before=np.array([2, 4]),
            updated_nodes=np.array([5, 3]),
            messages_sent=np.array([8, 16]),
            track_opinion=1,
        )
        fields.update(overrides)
        return PhaseRecord.after_phase(3, 4, None, **fields)

    def test_fields_derive_from_the_counts(self):
        record = self.record([[5, 2, 0], [3, 4, 0]])
        np.testing.assert_array_equal(
            record.opinion_distributions, [[0.5, 0.2, 0.0], [0.3, 0.4, 0.0]]
        )
        np.testing.assert_array_equal(record.opinionated_after, [7, 7])
        np.testing.assert_allclose(record.bias, [0.3, -0.1])
        assert record.opinionated_after.dtype == np.int64
        assert (record.phase_index, record.num_rounds) == (3, 4)
        assert record.sample_size is None

    def test_one_trial_takes_plain_numbers(self):
        record = self.record(
            [5, 2, 0], opinionated_before=2, updated_nodes=5, messages_sent=8
        )
        assert record.opinion_distributions.shape == (1, 3)
        for column in ("opinionated_before", "updated_nodes", "messages_sent"):
            assert getattr(record, column).shape == (1,)
            assert getattr(record, column).dtype == np.int64

    def test_untracked_opinion_has_no_bias(self):
        assert self.record([[5, 2, 0], [3, 4, 0]], track_opinion=None).bias is None

    def test_rejects_an_opinion_outside_one_to_k(self):
        with pytest.raises(ValueError, match="opinion must be in"):
            self.record([[5, 2, 0], [3, 4, 0]], track_opinion=4)

    def test_concatenate_stacks_trials_in_order(self):
        first = self.record([[5, 2, 0], [3, 4, 0]])
        second = self.record([[0, 1, 9], [1, 1, 1]])
        stacked = PhaseRecord.concatenate([first, second])
        np.testing.assert_array_equal(
            stacked.opinion_distributions,
            np.vstack([first.opinion_distributions, second.opinion_distributions]),
        )
        np.testing.assert_array_equal(
            stacked.bias, np.concatenate([first.bias, second.bias])
        )
        np.testing.assert_array_equal(stacked.messages_sent, [8, 16, 8, 16])

    def test_concatenate_rejects_different_phases(self):
        first = self.record([[5, 2, 0], [3, 4, 0]])
        other = PhaseRecord.after_phase(
            4, 4, None, counts=np.array([[5, 2, 0]]), num_nodes=10,
            opinionated_before=2, updated_nodes=5, messages_sent=8,
            track_opinion=1,
        )
        with pytest.raises(ValueError, match="different phases"):
            PhaseRecord.concatenate([first, other])

"""Tests for the counts-engine protocol executors and driver.

Covers the Stage-1/Stage-2 counts executors' bookkeeping (records,
conservation, edge cases) and the :class:`CountsProtocol` driver contract
(state coercion, schedules, result API, reproducibility).  Cross-engine
statistical agreement lives in ``tests/integration/test_engine_agreement.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import CountsProtocol, EnsembleResult
from repro.core.schedule import Stage1Schedule, Stage2Schedule
from repro.core.stage1 import CountsStage1Executor
from repro.core.stage2 import CountsStage2Executor
from repro.core.state import CountsState, EnsembleCountsState, PopulationState
from repro.network.balls_bins import CountsDeliveryModel, poisson_tail_probability
from repro.noise.families import identity_matrix, uniform_noise_matrix

NUM_NODES = 800
EPSILON = 0.3


@pytest.fixture
def noise():
    return uniform_noise_matrix(3, EPSILON)


def one_block(rows, noise, num_nodes=NUM_NODES):
    """A one-block delivery model with ``rows`` rows (one run's trials)."""
    return CountsDeliveryModel([rows], [num_nodes], [noise])


class TestPoissonTail:
    def test_threshold_zero_is_certain(self):
        assert np.all(poisson_tail_probability(0, np.array([0.0, 5.0])) == 1.0)

    def test_zero_rate_never_reaches_positive_threshold(self):
        assert poisson_tail_probability(3, np.array([0.0]))[0] == 0.0

    def test_matches_direct_sum_at_moderate_rate(self):
        import math

        lam = 7.5
        threshold = 10
        direct = 1.0 - sum(
            math.exp(-lam) * lam**i / math.factorial(i)
            for i in range(threshold)
        )
        computed = poisson_tail_probability(threshold, np.array([lam]))[0]
        assert computed == pytest.approx(direct, rel=1e-12)

    def test_stable_at_huge_rates(self):
        # exp(-1500) underflows; the log-space path must not.
        tail = poisson_tail_probability(700, np.array([1500.0]))[0]
        assert tail == pytest.approx(1.0)
        near_half = poisson_tail_probability(1500, np.array([1500.0]))[0]
        assert 0.4 < near_half < 0.6


class TestCountsDeliveryModel:
    def test_recolor_preserves_totals(self, noise, rng):
        histograms = np.array([[100, 50, 0], [0, 0, 0]], dtype=np.int64)
        noisy = one_block(2, noise).recolor(histograms, rng)
        assert noisy.dtype == np.int64
        assert np.array_equal(noisy.sum(axis=1), histograms.sum(axis=1))

    def test_identity_recolor_is_exact(self, rng):
        delivery = one_block(1, identity_matrix(3))
        histograms = np.array([[7, 3, 2]], dtype=np.int64)
        assert np.array_equal(delivery.recolor(histograms, rng), histograms)

    def test_adoption_probabilities_sum_to_one(self, noise):
        noisy = np.array([[400, 100, 0], [0, 0, 0]], dtype=np.int64)
        probabilities = one_block(2, noise).adoption_probabilities(noisy)
        assert probabilities.shape == (2, 4)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        # An empty phase leaves everyone undecided with certainty.
        assert probabilities[1, 0] == 1.0
        # Adoption splits proportionally to the noisy histogram.
        assert probabilities[0, 1] / probabilities[0, 2] == pytest.approx(4.0)

    def test_sample_adoptions_accounts_for_every_undecided_node(
        self, noise, rng
    ):
        noisy = np.array([[4000, 1000, 500]], dtype=np.int64)
        adopted = one_block(1, noise).sample_adoptions(
            noisy, np.array([300]), rng
        )
        assert adopted.shape == (1, 4)
        assert adopted.sum() == 300

    def test_sample_vote_counts_tractable_and_chunked_agree_in_mean(
        self, noise, monkeypatch
    ):
        """The closed-form and chunked vote samplers draw from the same
        law; with a strongly biased histogram both concentrate on the
        plurality color."""
        from repro.network import pull_model

        noisy = np.array([[9000, 500, 500]], dtype=np.int64)
        voters = np.array([4000])
        tractable = one_block(1, noise).sample_vote_counts(
            noisy, voters, [5], np.random.default_rng(0)
        )
        # Disable the dense law so L = 201 reaches the chunked sampler.
        monkeypatch.setattr(pull_model, "_DENSE_VOTE_LAW_MAX_COMPOSITIONS", 0)
        delivery_small_chunks = one_block(1, noise)
        delivery_small_chunks.VOTE_CHUNK = 256
        chunked = delivery_small_chunks.sample_vote_counts(
            noisy, voters, [201], np.random.default_rng(1)
        )
        for votes in (tractable, chunked):
            assert votes.sum() == 4000
            assert votes[0, 0] > 3500
        # L = 201 with k = 3 is beyond the composition-table budget, so the
        # second draw exercised the chunked path.
        assert pull_model.resolve_vote_path(201, 3) == "chunk"
        assert pull_model.resolve_vote_path(5, 3) == "table"

    def test_rejects_adaptive_fault_sampler(self, noise):
        from repro.faults import FaultedPhaseSampler, FaultModel

        sampler = FaultedPhaseSampler(
            FaultModel(kind="adaptive", fraction=0.1), 80, np.zeros(3), 3
        )
        with pytest.raises(ValueError, match="oblivious"):
            CountsDeliveryModel([1], [NUM_NODES - 80], [noise], [sampler])

    def test_fault_sampler_adds_balls_and_bins(self, noise):
        from repro.faults import FaultedPhaseSampler, FaultModel

        sampler = FaultedPhaseSampler(
            FaultModel(kind="crash", fraction=0.1, crash_round=100),
            80,
            np.array([80, 0, 0]),
            3,
        )
        delivery = CountsDeliveryModel(
            [1, 2], [NUM_NODES - 80, NUM_NODES], [noise, noise], [sampler, None]
        )
        assert delivery.num_bins.tolist() == [NUM_NODES] * 3
        assert delivery.num_nodes.tolist() == [NUM_NODES - 80, NUM_NODES, NUM_NODES]
        counts = np.array([[1, 0, 0], [2, 0, 0], [0, 3, 0]], dtype=np.int64)
        histograms = delivery.phase_histograms(counts, [4, 5], None)
        # The crashed nodes still push every round before crash_round.
        assert histograms.tolist() == [[324, 0, 0], [10, 0, 0], [0, 15, 0]]


class TestCountsStageExecutors:
    def test_stage1_grows_opinionated_set(self, noise):
        schedule = Stage1Schedule.for_population(NUM_NODES, EPSILON)
        executor = CountsStage1Executor(one_block(4, noise), random_state=0)
        counts = np.tile([1, 0, 0], (4, 1)).astype(np.int64)
        records = [
            executor.run_phase(counts, [(phase_index, num_rounds)], [1])[0]
            for phase_index, num_rounds in enumerate(schedule.phase_lengths)
        ]
        assert len(records) == schedule.num_phases
        assert np.all(counts.sum(axis=1) >= 1)
        assert np.all(
            records[-1].opinionated_after >= records[0].opinionated_before
        )
        assert np.all(counts.sum(axis=1) <= NUM_NODES)
        # Phase records carry per-trial arrays and the Claim-1 ball count.
        assert records[0].messages_sent.shape == (4,)
        assert records[0].messages_sent[0] == schedule.phase_lengths[0]
        assert records[0].sample_size is None
        np.testing.assert_array_equal(
            records[0].updated_nodes,
            records[0].opinionated_after - records[0].opinionated_before,
        )

    def test_stage2_amplifies_bias(self, noise):
        schedule = Stage2Schedule.for_population(NUM_NODES, EPSILON)
        executor = CountsStage2Executor(one_block(6, noise), random_state=0)
        biased = EnsembleCountsState(
            np.tile([360, 240, 200], (6, 1)), NUM_NODES
        )
        counts = biased.counts.copy()
        records = [
            executor.run_phase(
                counts, [(phase_index, num_rounds, sample_size)], [1]
            )[0]
            for phase_index, (num_rounds, sample_size) in enumerate(
                zip(schedule.phase_lengths, schedule.sample_sizes)
            )
        ]
        final = EnsembleCountsState(counts, NUM_NODES)
        assert len(records) == schedule.num_phases
        assert float(final.bias_toward(1).mean()) > float(
            biased.bias_toward(1).mean()
        )
        assert np.all(final.counts.sum(axis=1) == NUM_NODES)
        np.testing.assert_array_equal(records[-1].bias, final.bias_toward(1))
        assert records[-1].sample_size == schedule.sample_sizes[-1]
        assert np.all(records[-1].opinionated_after == NUM_NODES)

    def test_executors_reject_wrong_delivery_type(self, noise):
        with pytest.raises(TypeError):
            CountsStage1Executor(noise)
        with pytest.raises(TypeError):
            CountsStage2Executor(noise)


class TestCountsProtocol:
    def test_rumor_spreading_succeeds(self, noise):
        initial = PopulationState.single_source(NUM_NODES, 3, 1)
        result = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(initial, 16, target_opinion=1)
        assert isinstance(result, EnsembleResult)
        assert result.num_trials == 16
        assert result.success_rate > 0.8
        assert result.total_rounds > 0
        assert result.biases_after_stage1 is not None
        assert result.correct_fractions().shape == (16,)
        assert isinstance(result.final_states, EnsembleCountsState)

    def test_matches_schedule_of_batched_protocol(self, noise):
        initial = PopulationState.single_source(NUM_NODES, 3, 1)
        counts_result = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(initial, 2, target_opinion=1)
        from repro.core.protocol import EnsembleProtocol
        batched_result = EnsembleProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(initial, 2, target_opinion=1)
        assert counts_result.total_rounds == batched_result.total_rounds
        assert len(counts_result.stage1_records) == len(
            batched_result.stage1_records
        )
        assert len(counts_result.stage2_records) == len(
            batched_result.stage2_records
        )

    def test_accepts_counts_state_types(self, noise):
        protocol = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        )
        single = CountsState.single_source(NUM_NODES, 3, 1)
        tiled = EnsembleCountsState.from_counts_state(single, 3)
        assert protocol.run(single, 3, target_opinion=1).num_trials == 3
        assert protocol.run(tiled, target_opinion=1).num_trials == 3
        with pytest.raises(ValueError):
            protocol.run(single)  # num_trials required

    def test_reproducible_with_fixed_seed(self, noise):
        initial = PopulationState.single_source(NUM_NODES, 3, 1)
        first = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=5
        ).run(initial, 4, target_opinion=1)
        second = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=5
        ).run(initial, 4, target_opinion=1)
        assert np.array_equal(
            first.final_states.counts, second.final_states.counts
        )

    def test_batch_matches_batch_size_one_runs(self, noise):
        """Per-trial sources make a counts protocol batch bitwise identical
        to batch-size-1 runs with the same sources."""
        initial = PopulationState.single_source(NUM_NODES, 3, 1)
        seeds = [41, 42]
        batched = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON,
            random_state=[np.random.default_rng(seed) for seed in seeds],
        ).run(initial, len(seeds), target_opinion=1)
        for trial, seed in enumerate(seeds):
            single = CountsProtocol(
                NUM_NODES, noise, epsilon=EPSILON,
                random_state=[np.random.default_rng(seed)],
            ).run(initial, 1, target_opinion=1)
            assert np.array_equal(
                batched.final_states.counts[trial],
                single.final_states.counts[0],
            )

    def test_validation(self, noise):
        with pytest.raises(ValueError):
            CountsProtocol(NUM_NODES, noise)  # schedule or epsilon required
        protocol = CountsProtocol(NUM_NODES, noise, epsilon=EPSILON)
        with pytest.raises(ValueError):
            protocol.run(
                CountsState.single_source(NUM_NODES + 1, 3, 1), 2
            )
        with pytest.raises(ValueError):
            protocol.run(CountsState([0, 0, 0], NUM_NODES), 2)

    def test_million_node_protocol_runs_fast(self, noise):
        """The tier's point for the protocol: n = 10^6 trials in seconds."""
        initial = CountsState.single_source(1_000_000, 3, 1)
        result = CountsProtocol(
            1_000_000, noise, epsilon=EPSILON, random_state=0
        ).run(initial, 3, target_opinion=1)
        assert result.success_rate == 1.0

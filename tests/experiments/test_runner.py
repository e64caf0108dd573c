"""Tests for repro.experiments.runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import EnsembleState
from repro.experiments.runner import (
    TRIAL_ENGINES,
    dynamics_trial_outcomes,
    protocol_trial_outcomes,
    repeat_trials,
    set_default_counts_threshold,
    stage1_trial_trajectories,
    stage2_trial_trajectories,
    summarize,
    sweep_product,
)
from repro.experiments.workloads import (
    biased_population,
    ensemble_biased_population,
    rumor_instance,
)
from repro.noise.families import identity_matrix, uniform_noise_matrix
from repro.sim.engines import DEFAULT_COUNTS_THRESHOLD


class TestRepeatTrials:
    def test_number_of_trials(self):
        results = repeat_trials(lambda rng: 1, 5, random_state=0)
        assert results == [1, 1, 1, 1, 1]

    def test_trials_get_independent_generators(self):
        draws = repeat_trials(lambda rng: rng.integers(0, 10**9), 4, random_state=0)
        assert len(set(draws)) > 1

    def test_reproducible(self):
        first = repeat_trials(lambda rng: rng.integers(0, 10**9), 3, random_state=7)
        second = repeat_trials(lambda rng: rng.integers(0, 10**9), 3, random_state=7)
        assert first == second

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            repeat_trials(lambda rng: 1, 0)


class TestSweepProduct:
    def test_cartesian_product(self):
        grid = sweep_product(n=[10, 20], eps=[0.1, 0.2])
        assert len(grid) == 4
        assert {"n": 20, "eps": 0.1} in grid

    def test_empty_sweep(self):
        assert sweep_product() == [{}]

    def test_single_axis(self):
        assert sweep_product(x=[1, 2, 3]) == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_preserves_order(self):
        grid = sweep_product(a=[1, 2], b=["x"])
        assert grid[0] == {"a": 1, "b": "x"}
        assert grid[1] == {"a": 2, "b": "x"}


class TestSummarize:
    def test_statistics(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["std"] == pytest.approx(1.0)

    def test_single_value_has_zero_std(self):
        assert summarize([4.2])["std"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestProtocolTrialOutcomes:
    NUM_NODES = 250
    EPSILON = 0.35

    def run_engine(self, trial_engine, num_trials=4, random_state=0):
        noise = uniform_noise_matrix(3, self.EPSILON)
        return protocol_trial_outcomes(
            rumor_instance(self.NUM_NODES, 3, 1),
            noise,
            self.EPSILON,
            num_trials,
            random_state,
            target_opinion=1,
            trial_engine=trial_engine,
        )

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_returns_one_outcome_per_trial(self, trial_engine):
        outcomes = self.run_engine(trial_engine)
        assert len(outcomes) == 4
        for outcome in outcomes:
            assert isinstance(outcome.success, bool)
            assert outcome.total_rounds > 0
            assert outcome.bias_after_stage1 is not None
            assert 0.0 <= outcome.correct_fraction <= 1.0

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_reproducible_with_fixed_seed(self, trial_engine):
        first = self.run_engine(trial_engine, random_state=3)
        second = self.run_engine(trial_engine, random_state=3)
        assert first == second

    def test_engines_agree_on_round_count(self):
        batched = self.run_engine("batched", num_trials=2)
        sequential = self.run_engine("sequential", num_trials=2)
        assert batched[0].total_rounds == sequential[0].total_rounds

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            self.run_engine("bogus")


class TestStage1TrialTrajectories:
    NUM_NODES = 300
    EPSILON = 0.35

    def run_engine(self, trial_engine, num_trials=3, random_state=0):
        noise = uniform_noise_matrix(3, self.EPSILON)
        return stage1_trial_trajectories(
            rumor_instance(self.NUM_NODES, 3, 1),
            noise,
            self.EPSILON,
            num_trials,
            random_state,
            track_opinion=1,
            trial_engine=trial_engine,
        )

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_shapes_and_phase_axis(self, trial_engine):
        result = self.run_engine(trial_engine)
        num_phases = len(result.phase_lengths)
        assert num_phases >= 2
        assert result.opinionated_fractions.shape == (3, num_phases)
        assert result.biases.shape == (3, num_phases)
        assert result.num_trials == 3
        assert result.total_rounds == sum(result.phase_lengths)

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_fractions_grow_to_one(self, trial_engine):
        """Stage 1 opinionates everyone (Lemma 6): the per-phase fraction is
        non-decreasing per trial and ends at 1 at this easy scale."""
        result = self.run_engine(trial_engine)
        fractions = result.opinionated_fractions
        assert np.all(np.diff(fractions, axis=1) >= -1e-12)
        assert fractions[:, -1] == pytest.approx(1.0)

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_reproducible_with_fixed_seed(self, trial_engine):
        first = self.run_engine(trial_engine, random_state=5)
        second = self.run_engine(trial_engine, random_state=5)
        np.testing.assert_array_equal(
            first.opinionated_fractions, second.opinionated_fractions
        )
        np.testing.assert_array_equal(first.biases, second.biases)

    def test_engines_share_the_schedule(self):
        lengths = {
            engine: self.run_engine(engine, num_trials=2).phase_lengths
            for engine in TRIAL_ENGINES
        }
        assert len(set(lengths.values())) == 1

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            self.run_engine("bogus")


class TestStage2TrialTrajectories:
    NUM_NODES = 400
    EPSILON = 0.35

    def run_engine(
        self,
        trial_engine,
        num_trials=3,
        random_state=0,
        initial_state=None,
        **kwargs,
    ):
        noise = uniform_noise_matrix(3, self.EPSILON)
        if initial_state is None:
            initial_state = biased_population(
                self.NUM_NODES, 3, 0.2, random_state=123
            )
        return stage2_trial_trajectories(
            initial_state,
            noise,
            self.EPSILON,
            num_trials,
            random_state,
            track_opinion=1,
            trial_engine=trial_engine,
            **kwargs,
        )

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_shapes_and_consensus(self, trial_engine):
        result = self.run_engine(trial_engine)
        num_phases = len(result.phase_lengths)
        assert len(result.sample_sizes) == num_phases
        assert result.biases.shape == (3, num_phases)
        assert result.consensus.shape == (3,)
        # A 0.2-bias start at this scale amplifies to consensus (Lemma 12).
        assert result.consensus.all()
        assert result.final_biases == pytest.approx(1.0)

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_reproducible_with_fixed_seed(self, trial_engine):
        first = self.run_engine(trial_engine, random_state=5)
        second = self.run_engine(trial_engine, random_state=5)
        np.testing.assert_array_equal(first.biases, second.biases)
        np.testing.assert_array_equal(first.consensus, second.consensus)

    @pytest.mark.parametrize("trial_engine", ("batched", "sequential"))
    def test_accepts_per_trial_ensemble_and_ablation_knobs(self, trial_engine):
        ensemble = ensemble_biased_population(
            self.NUM_NODES, 3, 0.2, 3, random_state=7
        )
        result = self.run_engine(
            trial_engine,
            initial_state=ensemble,
            sampling_method="with_replacement",
        )
        assert result.biases.shape[0] == 3

    def test_counts_rejects_ablation_knobs(self):
        with pytest.raises(ValueError, match="batched or"):
            self.run_engine("counts", sampling_method="with_replacement")
        with pytest.raises(ValueError, match="batched or"):
            self.run_engine("counts", use_full_multiset=True)

    def test_rejects_num_trials_mismatch_for_ensemble_state(self):
        ensemble = ensemble_biased_population(
            self.NUM_NODES, 3, 0.2, 4, random_state=7
        )
        with pytest.raises(ValueError, match="disagrees"):
            self.run_engine("batched", num_trials=2, initial_state=ensemble)


class TestDynamicsTrialOutcomes:
    NUM_NODES = 300

    def run_engine(self, trial_engine, *, rule="3-majority", sample_size=None,
                   noise=None, num_trials=4, max_rounds=200, random_state=0):
        noise = noise if noise is not None else identity_matrix(3)
        initial = biased_population(self.NUM_NODES, 3, 0.3, random_state=1)
        return dynamics_trial_outcomes(
            initial,
            noise,
            rule,
            max_rounds,
            num_trials,
            random_state,
            sample_size=sample_size,
            target_opinion=1,
            trial_engine=trial_engine,
        )

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_returns_one_outcome_per_trial(self, trial_engine):
        outcomes = self.run_engine(trial_engine)
        assert len(outcomes) == 4
        for outcome in outcomes:
            assert isinstance(outcome.success, bool)
            assert isinstance(outcome.converged, bool)
            assert outcome.rounds_executed > 0
            assert outcome.success == (outcome.consensus_opinion == 1)
            assert -1.0 <= outcome.final_bias <= 1.0

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_reproducible_with_fixed_seed(self, trial_engine):
        first = self.run_engine(trial_engine, random_state=3)
        second = self.run_engine(trial_engine, random_state=3)
        assert first == second

    def test_engines_agree_on_the_certain_event(self):
        """Noise-free 3-majority from a solid bias converges on opinion 1
        under both engines."""
        batched = self.run_engine("batched")
        sequential = self.run_engine("sequential")
        assert all(outcome.success for outcome in batched)
        assert all(outcome.success for outcome in sequential)

    def test_h_majority_accepts_sample_size(self):
        outcomes = self.run_engine(
            "batched", rule="h-majority", sample_size=5
        )
        assert len(outcomes) == 4

    def test_accepts_prebuilt_ensemble_state(self):
        initial = biased_population(self.NUM_NODES, 3, 0.3, random_state=1)
        ensemble = EnsembleState.from_state(initial, 3)
        for trial_engine in TRIAL_ENGINES:
            outcomes = dynamics_trial_outcomes(
                ensemble, identity_matrix(3), "voter", 50, 3,
                random_state=0, trial_engine=trial_engine,
            )
            assert len(outcomes) == 3

    def test_rejects_num_trials_mismatch_for_ensemble_state(self):
        initial = biased_population(self.NUM_NODES, 3, 0.3, random_state=1)
        ensemble = EnsembleState.from_state(initial, 3)
        with pytest.raises(ValueError):
            dynamics_trial_outcomes(
                ensemble, identity_matrix(3), "voter", 50, 4, random_state=0
            )

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            self.run_engine("bogus")

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            self.run_engine("batched", rule="bogus")


class TestEngineResolution:
    def test_auto_honours_process_default_override(self):
        """The per-trial helpers still read the runner's process default:
        under an override of 10, 'auto' at n=100 runs the counts engine
        (bitwise equal to an explicit counts request), and the batched
        engine again once the default is restored."""
        noise = uniform_noise_matrix(3, 0.35)

        def outcomes(trial_engine):
            return protocol_trial_outcomes(
                rumor_instance(100, 3, 1), noise, 0.35, 2, 7,
                target_opinion=1, trial_engine=trial_engine,
            )

        counts, batched = outcomes("counts"), outcomes("batched")
        assert counts != batched
        try:
            assert set_default_counts_threshold(10) == 10
            assert outcomes("auto") == counts
        finally:
            assert (
                set_default_counts_threshold(None) == DEFAULT_COUNTS_THRESHOLD
            )
        assert outcomes("auto") == batched

    def test_rejects_the_analytic_tier(self):
        initial = biased_population(100, 3, 0.3, random_state=1)
        with pytest.raises(ValueError, match="analytic"):
            dynamics_trial_outcomes(
                initial, identity_matrix(3), "voter", 5, 2,
                random_state=0, trial_engine="analytic",
            )

    def test_auto_routes_protocol_trials(self):
        noise = uniform_noise_matrix(3, 0.35)
        outcomes = protocol_trial_outcomes(
            rumor_instance(250, 3, 1), noise, 0.35, 2, 0,
            target_opinion=1, trial_engine="auto", counts_threshold=100,
        )
        assert len(outcomes) == 2

    def test_auto_routes_dynamics_trials(self):
        initial = biased_population(300, 3, 0.3, random_state=1)
        outcomes = dynamics_trial_outcomes(
            initial, identity_matrix(3), "3-majority", 100, 2,
            random_state=0, trial_engine="auto", counts_threshold=100,
        )
        assert len(outcomes) == 2

    def test_counts_native_states_always_resolve_to_counts(self):
        """Counts-native inputs carry no per-node information: 'auto' must
        pick the counts engine even below the threshold, and explicit
        per-node engines must be rejected with a clear error."""
        from repro.core.state import CountsState

        initial = CountsState([100, 60, 40], 300)
        outcomes = dynamics_trial_outcomes(
            initial, identity_matrix(3), "voter", 20, 2,
            random_state=0, trial_engine="auto", stop_at_consensus=False,
        )
        assert len(outcomes) == 2
        noise = uniform_noise_matrix(3, 0.35)
        protocol = protocol_trial_outcomes(
            CountsState.single_source(250, 3, 1), noise, 0.35, 2, 0,
            target_opinion=1, trial_engine="auto",
        )
        assert len(protocol) == 2
        for engine in ("batched", "sequential"):
            with pytest.raises(ValueError, match="per-node"):
                dynamics_trial_outcomes(
                    initial, identity_matrix(3), "voter", 20, 2,
                    random_state=0, trial_engine=engine,
                )
            with pytest.raises(ValueError, match="per-node"):
                protocol_trial_outcomes(
                    CountsState.single_source(250, 3, 1), noise, 0.35, 2, 0,
                    target_opinion=1, trial_engine=engine,
                )

"""Tests for repro.experiments.runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import Stage1Schedule, Stage2Schedule
from repro.core.stage1 import (
    CountsStage1Executor,
    EnsembleStage1Executor,
    Stage1Executor,
)
from repro.core.stage2 import (
    CountsStage2Executor,
    EnsembleStage2Executor,
    Stage2Executor,
)
from repro.core.state import (
    CountsState,
    EnsembleState,
    coerce_to_ensemble_counts,
    distribution_biases,
)
from repro.experiments.runner import (
    TRIAL_ENGINES,
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
from repro.network.balls_bins import CountsDeliveryModel
from repro.network.push_model import UniformPushModel
from repro.noise.families import uniform_noise_matrix
from repro.sim.engines import DEFAULT_COUNTS_THRESHOLD
from repro.utils.rng import as_trial_generators, resolve_trial_randomness


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


class TestEngineResolution:
    """The stage helpers resolve ``auto`` themselves: they read the
    runner's process default and reject the analytic tier."""

    NOISE = uniform_noise_matrix(3, 0.35)

    def stage1(self, trial_engine, initial_state=None, **kwargs):
        if initial_state is None:
            initial_state = rumor_instance(100, 3, 1)
        return stage1_trial_trajectories(
            initial_state, self.NOISE, 0.35, 2, 7,
            trial_engine=trial_engine, **kwargs,
        )

    def stage2(self, trial_engine, initial_state=None, **kwargs):
        if initial_state is None:
            initial_state = biased_population(300, 3, 0.3, random_state=1)
        return stage2_trial_trajectories(
            initial_state, self.NOISE, 0.35, 2, 7,
            trial_engine=trial_engine, **kwargs,
        )

    def test_auto_honours_process_default_override(self):
        """Under an override of 10, 'auto' at n=100 runs the counts engine
        (bitwise equal to an explicit counts request), and the batched
        engine again once the default is restored."""
        counts, batched = self.stage1("counts"), self.stage1("batched")
        assert not np.array_equal(counts.biases, batched.biases)
        try:
            assert set_default_counts_threshold(10) == 10
            np.testing.assert_array_equal(
                self.stage1("auto").biases, counts.biases
            )
        finally:
            assert (
                set_default_counts_threshold(None) == DEFAULT_COUNTS_THRESHOLD
            )
        np.testing.assert_array_equal(
            self.stage1("auto").biases, batched.biases
        )

    @pytest.mark.parametrize("helper", ["stage1", "stage2"])
    def test_rejects_the_analytic_tier(self, helper):
        with pytest.raises(ValueError, match="analytic"):
            getattr(self, helper)("analytic")

    def test_auto_routes_stage1_trials(self):
        result = self.stage1(
            "auto", rumor_instance(250, 3, 1), counts_threshold=100
        )
        counts = self.stage1("counts", rumor_instance(250, 3, 1))
        np.testing.assert_array_equal(result.biases, counts.biases)

    def test_auto_routes_stage2_trials(self):
        result = self.stage2("auto", counts_threshold=100)
        np.testing.assert_array_equal(
            result.biases, self.stage2("counts").biases
        )

    def test_counts_native_states_always_resolve_to_counts(self):
        """Counts-native inputs carry no per-node information: 'auto' must
        pick the counts engine even below the threshold, and explicit
        per-node engines must be rejected with a clear error."""
        source = CountsState.single_source(250, 3, 1)
        population = CountsState([150, 100, 50], 300)
        assert self.stage1("auto", source).num_trials == 2
        assert self.stage2("auto", population).num_trials == 2
        for engine in ("batched", "sequential"):
            with pytest.raises(ValueError, match="per-node"):
                self.stage1(engine, source)
            with pytest.raises(ValueError, match="per-node"):
                self.stage2(engine, population)


def _drive_stage_executors(
    stage, trial_engine, initial_state, noise, schedule, num_trials, seed,
    track_opinion, **ablation,
):
    """One stage for ``num_trials`` trials on its executor, phase by phase.

    Returns the ``(R, P)`` opinionated fractions and biases after every
    phase and the ``(R,)`` final consensus mask on ``track_opinion``.
    """
    num_nodes = initial_state.num_nodes
    if stage == 1:
        phases = [(length,) for length in schedule.phase_lengths]
    else:
        phases = list(zip(schedule.phase_lengths, schedule.sample_sizes))
    fractions, biases = [], []
    if trial_engine == "sequential":
        if isinstance(initial_state, EnsembleState):
            states = initial_state.to_states()
        else:
            states = [initial_state.copy() for _ in range(num_trials)]
        consensus = []
        for state, generator in zip(
            states, as_trial_generators(seed, num_trials)
        ):
            engine = UniformPushModel(num_nodes, noise, generator)
            if stage == 1:
                executor = Stage1Executor(engine, schedule, generator)
            else:
                executor = Stage2Executor(
                    engine, schedule, generator, **ablation
                )
            trial_fractions, trial_biases = [], []
            for phase_index, phase in enumerate(phases):
                executor.run_phase(
                    state, phase_index, *phase, track_opinion=track_opinion
                )
                trial_fractions.append(state.opinionated_fraction())
                trial_biases.append(state.bias_toward(track_opinion))
            fractions.append(trial_fractions)
            biases.append(trial_biases)
            consensus.append(state.has_consensus_on(track_opinion))
        return np.array(fractions), np.array(biases), np.array(consensus)

    randomness = resolve_trial_randomness(seed, num_trials, "per_trial")
    if trial_engine == "batched":
        if isinstance(initial_state, EnsembleState):
            ensemble = initial_state.copy()
        else:
            ensemble = EnsembleState.from_state(initial_state, num_trials)
        engine = UniformPushModel(num_nodes, noise, None)
        if stage == 1:
            executor = EnsembleStage1Executor(engine, schedule, randomness)
        else:
            executor = EnsembleStage2Executor(
                engine, schedule, randomness, **ablation
            )
        for phase_index, phase in enumerate(phases):
            executor.run_phase(
                ensemble, phase_index, *phase, track_opinion=track_opinion
            )
            fractions.append(ensemble.opinionated_fractions())
            biases.append(ensemble.bias_toward(track_opinion))
        consensus = ensemble.consensus_mask(track_opinion)
        return np.stack(fractions, axis=1), np.stack(biases, axis=1), consensus

    counts = coerce_to_ensemble_counts(initial_state, num_trials).counts
    delivery = CountsDeliveryModel([num_trials], [num_nodes], [noise])
    executor_cls = CountsStage1Executor if stage == 1 else CountsStage2Executor
    executor = executor_cls(delivery, random_state=randomness)
    for phase_index, phase in enumerate(phases):
        executor.run_phase(
            counts, [(phase_index, *phase)], [track_opinion]
        )
        fractions.append(counts.sum(axis=1, dtype=np.int64) / num_nodes)
        biases.append(distribution_biases(counts / num_nodes, track_opinion))
    consensus = counts[:, track_opinion - 1] == num_nodes
    return np.stack(fractions, axis=1), np.stack(biases, axis=1), consensus


class TestStageHelpersMatchTheExecutors:
    """Bitwise pin: each stage helper equals its tier's stage executor
    driven phase by phase, with the helper's engine and per-trial
    randomness."""

    NUM_NODES = 300
    EPSILON = 0.35
    TRIALS = 3
    SEED = 11
    NOISE = uniform_noise_matrix(3, EPSILON)

    def check(self, stage, trial_engine, initial_state, **ablation):
        if stage == 1:
            schedule = Stage1Schedule.for_population(
                self.NUM_NODES, self.EPSILON
            )
            result = stage1_trial_trajectories(
                initial_state, self.NOISE, self.EPSILON, self.TRIALS,
                self.SEED, track_opinion=1, trial_engine=trial_engine,
            )
        else:
            schedule = Stage2Schedule.for_population(
                self.NUM_NODES, self.EPSILON
            )
            result = stage2_trial_trajectories(
                initial_state, self.NOISE, self.EPSILON, self.TRIALS,
                self.SEED, track_opinion=1, trial_engine=trial_engine,
                **ablation,
            )
        fractions, biases, consensus = _drive_stage_executors(
            stage, trial_engine, initial_state, self.NOISE, schedule,
            self.TRIALS, self.SEED, 1, **ablation,
        )
        assert result.phase_lengths == tuple(schedule.phase_lengths)
        np.testing.assert_array_equal(result.biases, biases)
        if stage == 1:
            np.testing.assert_array_equal(
                result.opinionated_fractions, fractions
            )
        else:
            assert result.sample_sizes == tuple(schedule.sample_sizes)
            np.testing.assert_array_equal(result.consensus, consensus)

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_stage1(self, trial_engine):
        self.check(1, trial_engine, rumor_instance(self.NUM_NODES, 3, 1))

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_stage2(self, trial_engine):
        self.check(
            2,
            trial_engine,
            biased_population(self.NUM_NODES, 3, 0.1, random_state=3),
        )

    @pytest.mark.parametrize("trial_engine", TRIAL_ENGINES)
    def test_stage2_from_a_per_trial_ensemble(self, trial_engine):
        self.check(
            2,
            trial_engine,
            ensemble_biased_population(
                self.NUM_NODES, 3, 0.1, self.TRIALS, random_state=5
            ),
        )

    @pytest.mark.parametrize("trial_engine", ("batched", "sequential"))
    @pytest.mark.parametrize("per_trial_start", [False, True])
    def test_stage2_with_replacement(self, trial_engine, per_trial_start):
        if per_trial_start:
            initial_state = ensemble_biased_population(
                self.NUM_NODES, 3, 0.1, self.TRIALS, random_state=5
            )
        else:
            initial_state = biased_population(
                self.NUM_NODES, 3, 0.1, random_state=3
            )
        self.check(
            2, trial_engine, initial_state, sampling_method="with_replacement"
        )

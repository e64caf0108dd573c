"""Smoke and trend tests for every experiment module (tiny configurations).

Each experiment has a dedicated test that runs it at a deliberately small
scale (smaller than the ``quick()`` configuration where possible) and checks
both the table structure and the *direction* of the reproduced trend, so a
regression in the protocol or harness shows up here without requiring the
full benchmark run.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    exp_ablation_sampling,
    exp_amplification,
    exp_baselines,
    exp_epsilon_threshold,
    exp_memory,
    exp_noise_matrices,
    exp_parity,
    exp_plurality_consensus,
    exp_poissonization,
    exp_rumor_scaling,
    exp_stage1_bias,
    exp_stage1_growth,
    exp_stage2_trajectory,
    exp_topologies,
)
from repro.experiments.runner import set_default_counts_threshold
from repro.experiments.spec import get_spec


class TestE1RumorScaling:
    def test_table_and_success(self):
        config = exp_rumor_scaling.RumorScalingConfig(
            num_nodes_grid=(300, 600),
            epsilon_grid=(0.35,),
            num_opinions=3,
            num_trials=2,
        )
        table = exp_rumor_scaling.run(config, random_state=0)
        assert table.experiment_id == "E1"
        assert len(table) == 2
        assert all(record["success_rate"] >= 0.5 for record in table)
        assert all(record["mean_rounds"] > 0 for record in table)
        # Larger n needs at least as many rounds at fixed epsilon.
        rounds = table.column("mean_rounds")
        assert rounds[1] >= rounds[0]
        assert any("fit" in note for note in table.notes)


class TestE2PluralityConsensus:
    def test_bias_above_requirement_succeeds(self):
        config = exp_plurality_consensus.PluralityConsensusConfig(
            num_nodes=600,
            support_fractions=(1.0,),
            bias_multipliers=(4.0,),
            num_trials=2,
        )
        table = exp_plurality_consensus.run(config, random_state=0)
        assert len(table) == 1
        assert table.records[0]["success_rate"] == 1.0
        assert table.records[0]["support_meets_theorem"]


class TestE3Stage1Bias:
    def test_everyone_opinionated_and_biased(self):
        config = exp_stage1_bias.Stage1BiasConfig(
            num_nodes_grid=(400, 800), num_trials=2
        )
        table = exp_stage1_bias.run(config, random_state=0)
        assert len(table) == 2
        for record in table:
            assert record["min_opinionated_fraction"] == pytest.approx(1.0)
            assert record["mean_bias"] > 0
            assert record["bias_over_theory"] > 0.5


class TestE4Stage1Growth:
    def test_growth_is_monotone_and_mostly_within_envelope(self):
        config = exp_stage1_growth.Stage1GrowthConfig(num_nodes=1500, num_trials=2)
        table = exp_stage1_growth.run(config, random_state=0)
        fractions = table.column("mean_opinionated_fraction")
        assert all(b >= a - 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == pytest.approx(1.0, abs=0.05)
        assert sum(1 for r in table if r["within_envelope"]) >= len(table) - 1


class TestE5Amplification:
    def test_bound_never_violated(self):
        config = exp_amplification.AmplificationConfig(
            num_opinions_grid=(2, 3),
            sample_size_grid=(5, 11),
            delta_grid=(0.05, 0.2),
            monte_carlo_trials=20_000,
        )
        table = exp_amplification.run(config, random_state=0)
        assert all(record["bound_holds"] for record in table)
        # Amplification factor should exceed 1 for the bigger samples.
        big_sample = table.filtered(sample_size=11, delta=0.05, k=2)
        assert big_sample[0]["amplification_factor"] > 1.0


class TestE6Stage2Trajectory:
    def test_bias_amplified_every_phase(self):
        config = exp_stage2_trajectory.Stage2TrajectoryConfig(
            num_nodes=800, num_trials=2
        )
        table = exp_stage2_trajectory.run(config, random_state=0)
        assert all(record["amplified"] for record in table)
        assert table.records[-1]["mean_bias_after"] > 0.9


class TestE7NoiseMatrices:
    def test_paper_examples_classified_correctly(self):
        config = exp_noise_matrices.NoiseMatrixConfig(
            dynamic_num_nodes=400, dynamic_trials=1
        )
        table = exp_noise_matrices.run(config, random_state=0)
        uniform_rows = [
            record
            for record in table
            if record["matrix"].startswith("uniform-noise")
        ]
        assert all(record["majority_preserving"] for record in uniform_rows)
        counterexample_rows = [
            record
            for record in table
            if record["matrix"].startswith("diag-dominant")
        ]
        assert counterexample_rows
        assert not any(
            record["preserves_plurality"] for record in counterexample_rows
        )


class TestE8Poissonization:
    def test_processes_statistically_close(self):
        config = exp_poissonization.PoissonizationConfig(
            num_nodes=200,
            num_deliveries=60,
            dynamic_trials=1,
            dynamic_num_nodes=400,
        )
        table = exp_poissonization.run(config, random_state=0)
        static_rows = table.filtered(check="static")
        assert len(static_rows) == 3
        push_vs_bins = [
            record
            for record in static_rows
            if record["comparison"] == "push vs balls_bins"
        ][0]
        assert push_vs_bins["tv_total_counts"] < 0.1
        dynamic_rows = table.filtered(check="dynamic")
        assert len(dynamic_rows) == 3
        assert all(record["success_rate"] == 1.0 for record in dynamic_rows)


class TestE9EpsilonThreshold:
    def test_large_epsilon_succeeds(self):
        config = exp_epsilon_threshold.EpsilonThresholdConfig(
            num_nodes=800,
            epsilon_over_threshold=(2.5,),
            num_trials=2,
        )
        table = exp_epsilon_threshold.run(config, random_state=0)
        assert table.records[0]["success_rate"] == 1.0
        assert table.records[0]["stage1_bias_sufficient"]


class TestE10Parity:
    def test_lemma17_verified(self):
        config = exp_parity.ParityConfig(
            sample_sizes=(3, 5), binary_probabilities=(0.6,),
            ternary_distributions=((0.5, 0.3, 0.2),),
        )
        table = exp_parity.run(config, random_state=0)
        assert all(record["lemma_holds"] for record in table)
        assert all(record["monotone_holds"] for record in table)
        binary_rows = [r for r in table if r["equality_expected"]]
        assert all(record["equality_holds"] for record in binary_rows)

    def test_even_sample_size_rejected(self):
        config = exp_parity.ParityConfig(sample_sizes=(4,))
        with pytest.raises(ValueError):
            exp_parity.run(config)


class TestE11Memory:
    def test_ratio_bounded(self):
        table = exp_memory.run(exp_memory.MemoryConfig(), random_state=0)
        ratios = table.column("measured_over_bound")
        assert max(ratios) < 10.0
        assert all(record["total_bits"] >= record["opinion_bits"] for record in table)


class TestE12Baselines:
    def test_protocol_beats_baselines_under_noise(self):
        config = exp_baselines.BaselineComparisonConfig(
            num_nodes=500, max_rounds_dynamics=80, num_trials=2
        )
        table = exp_baselines.run(config, random_state=0)
        protocol_noisy = table.filtered(
            algorithm="two-stage protocol (this paper)", channel="noisy"
        )[0]
        assert protocol_noisy["success_rate"] == 1.0
        voter_noisy = table.filtered(algorithm="voter", channel="noisy")[0]
        assert voter_noisy["success_rate"] < protocol_noisy["success_rate"] + 1e-9
        # Without noise the 3-majority dynamics is much faster than the
        # schedule-driven protocol.
        protocol_clean = table.filtered(
            algorithm="two-stage protocol (this paper)", channel="noise-free"
        )[0]
        majority_clean = table.filtered(algorithm="3-majority", channel="noise-free")[0]
        assert majority_clean["mean_rounds"] < protocol_clean["mean_rounds"]


class TestE14Topologies:
    def test_complete_graph_succeeds_and_cycle_fails(self):
        config = exp_topologies.TopologyConfig(
            num_nodes=400,
            num_trials=2,
            topologies=(
                ("complete graph (paper)", "complete", {}),
                ("cycle", "cycle", {}),
            ),
        )
        table = exp_topologies.run(config, random_state=0)
        complete = table.filtered(topology="complete graph (paper)")[0]
        cycle = table.filtered(topology="cycle")[0]
        assert complete["success_rate"] >= 0.5
        assert cycle["mean_correct_fraction"] < complete["mean_correct_fraction"]
        assert cycle["mean_degree"] == pytest.approx(2.0)


#: Small configurations of the scenario-based whole-protocol experiments,
#: keyed by experiment id: (module, config factory taking a trial engine).
SCENARIO_EXPERIMENTS = {
    "E1": (
        exp_rumor_scaling,
        lambda engine: exp_rumor_scaling.RumorScalingConfig(
            num_nodes_grid=(300, 400),
            epsilon_grid=(0.35,),
            num_opinions=3,
            num_trials=2,
            trial_engine=engine,
        ),
    ),
    "E2": (
        exp_plurality_consensus,
        lambda engine: exp_plurality_consensus.PluralityConsensusConfig(
            num_nodes=600,
            support_fractions=(1.0,),
            bias_multipliers=(4.0,),
            num_trials=2,
            trial_engine=engine,
        ),
    ),
    "E7": (
        exp_noise_matrices,
        lambda engine: exp_noise_matrices.NoiseMatrixConfig(
            delta_grid=(0.1,),
            dynamic_num_nodes=400,
            dynamic_trials=2,
            trial_engine=engine,
        ),
    ),
    "E12": (
        exp_baselines,
        lambda engine: exp_baselines.BaselineComparisonConfig(
            num_nodes=500,
            max_rounds_dynamics=80,
            num_trials=2,
            trial_engine=engine,
        ),
    ),
}


def _run_scenario_experiment(experiment_id, engine):
    module, make_config = SCENARIO_EXPERIMENTS[experiment_id]
    return module.run(make_config(engine), random_state=0)


class TestEngineUniformity:
    """Every migrated experiment honours its declared trial engines."""

    @pytest.mark.parametrize("engine", ["batched", "sequential", "counts"])
    def test_e3_runs_on_every_engine(self, engine):
        config = exp_stage1_bias.Stage1BiasConfig(
            num_nodes_grid=(400,), num_trials=2, trial_engine=engine
        )
        table = exp_stage1_bias.run(config, random_state=0)
        assert table.records[0]["min_opinionated_fraction"] == pytest.approx(
            1.0
        )
        assert f"trial engine: {engine}" in table.notes[-1]

    @pytest.mark.parametrize("engine", ["batched", "sequential", "counts"])
    def test_e4_runs_on_every_engine(self, engine):
        config = exp_stage1_growth.Stage1GrowthConfig(
            num_nodes=800, num_trials=2, trial_engine=engine
        )
        table = exp_stage1_growth.run(config, random_state=0)
        fractions = table.column("mean_opinionated_fraction")
        assert fractions[-1] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("engine", ["batched", "sequential", "counts"])
    def test_e6_runs_on_every_engine(self, engine):
        config = exp_stage2_trajectory.Stage2TrajectoryConfig(
            num_nodes=600, num_trials=2, trial_engine=engine
        )
        table = exp_stage2_trajectory.run(config, random_state=0)
        assert table.records[-1]["mean_bias_after"] > 0.9

    @pytest.mark.parametrize("engine", get_spec("E1").supported_engines)
    def test_e1_runs_on_every_engine(self, engine):
        table = _run_scenario_experiment("E1", engine)
        assert all(record["success_rate"] >= 0.5 for record in table)
        assert f"trial engine: {engine}" in table.notes[-1]

    @pytest.mark.parametrize("engine", get_spec("E2").supported_engines)
    def test_e2_runs_on_every_engine(self, engine):
        table = _run_scenario_experiment("E2", engine)
        assert table.records[0]["success_rate"] == 1.0
        assert f"trial engine: {engine}" in table.notes[-1]

    @pytest.mark.parametrize("engine", get_spec("E7").supported_engines)
    def test_e7_dynamic_check_runs_on_every_engine(self, engine):
        table = _run_scenario_experiment("E7", engine)
        assert "failed to reach consensus on the original plurality in 100%" in (
            table.notes[-1]
        )

    @pytest.mark.parametrize("engine", get_spec("E12").supported_engines)
    def test_e12_runs_on_every_engine(self, engine):
        table = _run_scenario_experiment("E12", engine)
        assert len(table) == 12
        protocol_noisy = table.filtered(
            algorithm="two-stage protocol (this paper)", channel="noisy"
        )[0]
        assert protocol_noisy["success_rate"] == 1.0
        assert f"trial engine: {engine}" in table.notes[-1]

    @pytest.mark.parametrize("experiment_id", sorted(SCENARIO_EXPERIMENTS))
    def test_auto_reaches_counts_through_the_process_default(
        self, experiment_id
    ):
        """``run-experiment --counts-threshold`` installs the process
        default; the scenario-based experiments must pick it up, so 'auto'
        above the threshold reproduces an explicit counts run."""
        counts = _run_scenario_experiment(experiment_id, "counts")
        try:
            set_default_counts_threshold(10)
            auto = _run_scenario_experiment(experiment_id, "auto")
        finally:
            set_default_counts_threshold(None)
        assert auto.records == counts.records
        assert [
            note.replace("trial engine: auto", "trial engine: counts")
            for note in auto.notes
        ] == counts.notes

    @pytest.mark.parametrize("engine", ["batched", "sequential"])
    def test_e8_dynamic_check_runs_on_both_per_node_engines(self, engine):
        config = exp_poissonization.PoissonizationConfig(
            num_nodes=200,
            num_deliveries=40,
            dynamic_trials=1,
            dynamic_num_nodes=400,
            trial_engine=engine,
        )
        table = exp_poissonization.run(config, random_state=0)
        dynamic_rows = table.filtered(check="dynamic")
        assert len(dynamic_rows) == 3
        assert all(record["success_rate"] == 1.0 for record in dynamic_rows)


class TestE13Ablation:
    def test_all_variants_reported(self):
        config = exp_ablation_sampling.AblationConfig(
            num_nodes=600,
            initial_bias=0.12,
            num_trials=2,
            timing_nodes=100,
            timing_rounds=5,
        )
        table = exp_ablation_sampling.run(config, random_state=0)
        voting_rows = table.filtered(ablation="stage2 voting rule")
        assert len(voting_rows) == 3
        assert all(record["success_rate"] >= 0.5 for record in voting_rows)
        engine_rows = table.filtered(ablation="delivery engine")
        assert engine_rows[0]["speedup"] > 1.0

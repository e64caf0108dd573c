"""The complete two-stage protocol (Stage 1 followed by Stage 2).

:class:`TwoStageProtocol` wires together the schedule, the delivery engine
(process O by default), and the two stage executors, and reports a
:class:`ProtocolResult` containing the final state, the per-phase history of
both stages, and the headline outcome (did every node adopt the correct
opinion, and after how many rounds).

:class:`EnsembleProtocol` is the batched counterpart: it runs ``R``
independent trials of the same protocol as one vectorized computation over
an ``(R, n)`` opinion matrix, which is how repeated-trial experiments get
multi-fold speedups over a Python-level loop of :class:`TwoStageProtocol`
runs.  :meth:`TwoStageProtocol.run_ensemble` is a convenience shortcut.
:class:`CountsProtocol` runs the same trials on ``(R, k)`` opinion counts.

Every tier records each phase of both stages as one
:class:`~repro.core.schedule.PhaseRecord` with a leading trial axis (one row
per sequential run).  :meth:`EnsembleResult.from_trials` stacks per-trial
:class:`ProtocolResult` runs along that axis, so every tier's outcome reads
the same way.  A schedule whose other stage has no phase runs one stage
alone (the per-phase experiments E3/E4/E6/E13 do that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from repro.core.schedule import PhaseRecord, ProtocolSchedule
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
    EnsembleCountsState,
    EnsembleState,
    PopulationState,
    coerce_to_ensemble_counts,
)
from repro.network.balls_bins import CountsDeliveryModel
from repro.network.delivery import make_delivery_engine
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    resolve_trial_randomness,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.faults.injection import FaultedPhaseSampler

__all__ = [
    "TwoStageProtocol",
    "ProtocolResult",
    "EnsembleProtocol",
    "EnsembleResult",
    "CountsProtocol",
    "CountsProtocolTask",
    "run_heterogeneous_counts_protocol",
]


@dataclass
class ProtocolResult:
    """Outcome of a full protocol execution.

    Attributes
    ----------
    final_state:
        The population state after the last executed phase.
    target_opinion:
        The correct/plurality opinion ``m`` the run was tracking.
    success:
        ``True`` iff every node supports ``target_opinion`` at the end.
    total_rounds:
        Total number of communication rounds executed.
    stage1_records, stage2_records:
        Per-phase histories of the two stages (one-row records).
    """

    final_state: PopulationState
    target_opinion: int
    success: bool
    total_rounds: int
    stage1_records: List[PhaseRecord] = field(default_factory=list)
    stage2_records: List[PhaseRecord] = field(default_factory=list)

    @property
    def stage1_rounds(self) -> int:
        """Rounds spent in Stage 1."""
        return int(sum(record.num_rounds for record in self.stage1_records))

    @property
    def stage2_rounds(self) -> int:
        """Rounds spent in Stage 2."""
        return int(sum(record.num_rounds for record in self.stage2_records))

    @property
    def final_bias(self) -> float:
        """Bias of the final distribution toward the target opinion."""
        return self.final_state.bias_toward(self.target_opinion)

    @property
    def bias_after_stage1(self) -> Optional[float]:
        """Bias toward the target opinion at the end of Stage 1."""
        if not self.stage1_records:
            return None
        return float(self.stage1_records[-1].bias[0])

    @property
    def opinionated_after_stage1(self) -> Optional[int]:
        """Number of opinionated nodes at the end of Stage 1."""
        if not self.stage1_records:
            return None
        return int(self.stage1_records[-1].opinionated_after[0])

    def correct_fraction(self) -> float:
        """Fraction of nodes supporting the target opinion at the end."""
        return float(
            np.count_nonzero(self.final_state.opinions == self.target_opinion)
            / self.final_state.num_nodes
        )


class TwoStageProtocol:
    """The paper's protocol: Stage 1 (spread) followed by Stage 2 (amplify).

    Parameters
    ----------
    num_nodes:
        Population size ``n``.
    noise:
        The noise matrix ``P`` of the channel.
    schedule:
        The phase schedule; when omitted, a default schedule is built from
        ``num_nodes``, ``epsilon`` and the initial state at run time.
    epsilon:
        The noise parameter used to build the default schedule; mandatory
        when ``schedule`` is omitted.
    process:
        Delivery process name (``"push"``, ``"balls_bins"`` or ``"poisson"``).
    engine:
        A pre-built delivery engine to use instead of ``process`` — e.g. a
        :class:`~repro.network.topology.GraphPushModel` for non-complete
        topologies.  Must expose ``run_phase_from_senders`` or
        ``run_phase_from_population``.
    random_state:
        Randomness for the engine and both stages.
    round_scale:
        Multiplier for phase lengths of the default schedule.
    sampling_method, use_full_multiset:
        Passed through to :class:`~repro.core.stage2.Stage2Executor`
        (ablation knobs).
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        *,
        schedule: Optional[ProtocolSchedule] = None,
        epsilon: Optional[float] = None,
        process: str = "push",
        engine=None,
        random_state: RandomState = None,
        round_scale: float = 1.0,
        sampling_method: str = "without_replacement",
        use_full_multiset: bool = False,
    ) -> None:
        if schedule is None and epsilon is None:
            raise ValueError("either schedule or epsilon must be provided")
        self.num_nodes = int(num_nodes)
        self.noise = noise
        self.epsilon = epsilon
        self.process = process
        self.engine = engine
        if engine is not None:
            engine_nodes = getattr(engine, "num_nodes", None)
            if engine_nodes is not None and int(engine_nodes) != self.num_nodes:
                raise ValueError(
                    f"engine is built for {engine_nodes} nodes but the protocol "
                    f"was asked to run on {self.num_nodes}"
                )
        self.round_scale = round_scale
        self.sampling_method = sampling_method
        self.use_full_multiset = use_full_multiset
        self._schedule = schedule
        self._rng = as_generator(random_state)

    def build_schedule(self, initial_opinionated: int = 1) -> ProtocolSchedule:
        """The schedule used by :meth:`run` (built lazily when not supplied)."""
        if self._schedule is not None:
            return self._schedule
        return ProtocolSchedule.for_population(
            self.num_nodes,
            float(self.epsilon),
            initial_opinionated=max(1, initial_opinionated),
            round_scale=self.round_scale,
        )

    def run(
        self,
        initial_state: PopulationState,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = False,
    ) -> ProtocolResult:
        """Execute the protocol from ``initial_state``.

        Parameters
        ----------
        initial_state:
            The starting population (rumor source or plurality instance).
        target_opinion:
            The correct opinion ``m``; defaults to the initial plurality.
        stop_at_consensus:
            Stop Stage 2 early once consensus on ``target_opinion`` is
            reached (the success criterion is unaffected).
        """
        if initial_state.num_nodes != self.num_nodes:
            raise ValueError(
                f"initial_state has {initial_state.num_nodes} nodes but the "
                f"protocol was built for {self.num_nodes}"
            )
        if initial_state.num_opinions != self.noise.num_opinions:
            raise ValueError(
                "initial_state and noise matrix disagree on the number of "
                f"opinions ({initial_state.num_opinions} vs {self.noise.num_opinions})"
            )
        if target_opinion is None:
            target_opinion = initial_state.plurality_opinion()
        if target_opinion <= 0:
            raise ValueError(
                "target_opinion could not be inferred: the initial state has "
                "no opinionated node"
            )
        schedule = self.build_schedule(initial_state.opinionated_count())
        if self.engine is not None:
            engine = self.engine
        else:
            engine = make_delivery_engine(
                self.process, self.num_nodes, self.noise, self._rng
            )
        stage1 = Stage1Executor(engine, schedule.stage1, self._rng)
        state_after_stage1, stage1_records = stage1.run(
            initial_state, track_opinion=target_opinion
        )
        stage2 = Stage2Executor(
            engine,
            schedule.stage2,
            self._rng,
            sampling_method=self.sampling_method,
            use_full_multiset=self.use_full_multiset,
        )
        final_state, stage2_records = stage2.run(
            state_after_stage1,
            track_opinion=target_opinion,
            stop_at_consensus=stop_at_consensus,
        )
        total_rounds = int(
            sum(record.num_rounds for record in stage1_records)
            + sum(record.num_rounds for record in stage2_records)
        )
        return ProtocolResult(
            final_state=final_state,
            target_opinion=target_opinion,
            success=final_state.has_consensus_on(target_opinion),
            total_rounds=total_rounds,
            stage1_records=stage1_records,
            stage2_records=stage2_records,
        )

    def run_ensemble(
        self,
        initial_state: Union[PopulationState, EnsembleState],
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
        rng_mode: str = "per_trial",
    ) -> "EnsembleResult":
        """Run ``num_trials`` independent trials as one batched computation.

        Convenience shortcut constructing an :class:`EnsembleProtocol` with
        this protocol's parameters; see there for the full contract.
        """
        ensemble = EnsembleProtocol(
            self.num_nodes,
            self.noise,
            schedule=self._schedule,
            epsilon=self.epsilon,
            process=self.process,
            engine=self.engine,
            random_state=self._rng,
            rng_mode=rng_mode,
            round_scale=self.round_scale,
            sampling_method=self.sampling_method,
            use_full_multiset=self.use_full_multiset,
        )
        return ensemble.run(
            initial_state, num_trials, target_opinion=target_opinion
        )


@dataclass
class EnsembleResult:
    """Outcome of a batched multi-trial protocol execution.

    Attributes
    ----------
    final_states:
        The ensemble state after the last phase (one row per trial).
    target_opinion:
        The correct/plurality opinion ``m`` every trial was tracking.
    successes:
        Boolean ``(R,)`` array; entry ``r`` is ``True`` iff every node of
        trial ``r`` supports ``target_opinion`` at the end.
    total_rounds:
        Communication rounds executed (identical for every trial — the
        schedule is shared and the batch never stops early).
    stage1_records, stage2_records:
        Per-phase histories of the two stages, one row per trial.
    """

    final_states: Union[EnsembleState, EnsembleCountsState]
    target_opinion: int
    successes: np.ndarray
    total_rounds: int
    stage1_records: List[PhaseRecord] = field(default_factory=list)
    stage2_records: List[PhaseRecord] = field(default_factory=list)

    @classmethod
    def from_trials(cls, results: Sequence[ProtocolResult]) -> "EnsembleResult":
        """Stack per-trial :class:`ProtocolResult` runs along the trial axis.

        Trial ``r`` of the result is ``results[r]``.  The runs must share
        the target opinion and the executed phases (a run stopped early at
        consensus cannot be stacked with one that was not).
        """
        if not results:
            raise ValueError("at least one ProtocolResult is required")
        first = results[0]
        if any(
            result.target_opinion != first.target_opinion
            or len(result.stage1_records) != len(first.stage1_records)
            or len(result.stage2_records) != len(first.stage2_records)
            for result in results
        ):
            raise ValueError(
                "trials must share the target opinion and the executed phases"
            )
        return cls(
            final_states=EnsembleState.from_states(
                [result.final_state for result in results]
            ),
            target_opinion=first.target_opinion,
            successes=np.array([result.success for result in results], dtype=bool),
            total_rounds=first.total_rounds,
            stage1_records=[
                PhaseRecord.concatenate(phase)
                for phase in zip(*(result.stage1_records for result in results))
            ],
            stage2_records=[
                PhaseRecord.concatenate(phase)
                for phase in zip(*(result.stage2_records for result in results))
            ],
        )

    @property
    def num_trials(self) -> int:
        """Number of trials ``R`` in the batch."""
        return self.final_states.num_trials

    @property
    def success_count(self) -> int:
        """Number of trials that reached consensus on the target opinion."""
        return int(np.count_nonzero(self.successes))

    @property
    def success_rate(self) -> float:
        """Empirical success probability over the batch."""
        return self.success_count / self.num_trials

    @property
    def stage1_rounds(self) -> int:
        """Rounds spent in Stage 1."""
        return int(sum(record.num_rounds for record in self.stage1_records))

    @property
    def stage2_rounds(self) -> int:
        """Rounds spent in Stage 2."""
        return int(sum(record.num_rounds for record in self.stage2_records))

    @property
    def final_biases(self) -> np.ndarray:
        """Per-trial bias of the final distribution toward the target."""
        return self.final_states.bias_toward(self.target_opinion)

    @property
    def biases_after_stage1(self) -> Optional[np.ndarray]:
        """Per-trial bias toward the target at the end of Stage 1."""
        if not self.stage1_records:
            return None
        return self.stage1_records[-1].bias

    @property
    def opinionated_after_stage1(self) -> Optional[np.ndarray]:
        """Per-trial number of opinionated nodes at the end of Stage 1."""
        if not self.stage1_records:
            return None
        return self.stage1_records[-1].opinionated_after

    def bias_trajectories(self) -> Optional[np.ndarray]:
        """The ``(R, P)`` per-phase bias toward the target over both stages
        (``None`` when no phase recorded a bias)."""
        columns = [
            record.bias
            for record in (*self.stage1_records, *self.stage2_records)
            if record.bias is not None
        ]
        if not columns:
            return None
        return np.stack(columns, axis=1)

    def correct_fractions(self) -> np.ndarray:
        """Per-trial fraction of nodes supporting the target at the end."""
        return self.final_states.correct_fractions(self.target_opinion)

    def summary(self) -> dict:
        """Headline statistics of the batch."""
        return {
            "num_trials": self.num_trials,
            "target_opinion": self.target_opinion,
            "success_rate": self.success_rate,
            "total_rounds": self.total_rounds,
            "mean_final_bias": float(self.final_biases.mean()),
            "mean_correct_fraction": float(self.correct_fractions().mean()),
        }


class EnsembleProtocol:
    """Run ``R`` independent two-stage protocol trials as one vectorized batch.

    Every trial follows exactly the protocol of :class:`TwoStageProtocol`
    (same schedule, same per-phase rules); the trial axis is simply carried
    through every numpy operation, and the per-round delivery loop collapses
    into per-phase sampling of the balls-into-bins reformulation (Claim 1),
    so the wall-clock cost grows far slower than linearly in ``R``.

    Parameters
    ----------
    num_nodes, noise, schedule, epsilon, process, engine, round_scale,
    sampling_method, use_full_multiset:
        As in :class:`TwoStageProtocol`.  ``engine`` (or ``process``) must be
        an anonymous complete-graph engine exposing
        ``run_ensemble_phase_from_senders``; topology-aware engines must use
        the sequential protocol.
    random_state:
        Either a single :data:`~repro.utils.rng.RandomState` or a sequence
        with one entry per trial.  With a sequence, trial ``r`` consumes
        randomness exclusively from its own source — a batched run is then
        *bitwise identical* to ``R`` separate batch-size-1 runs with the same
        per-trial sources (the equivalence the test-suite checks).
    rng_mode:
        ``"per_trial"`` (default): when ``random_state`` is a single source,
        spawn one independent child generator per trial, preserving the
        trial-by-trial reproducibility guarantee.  ``"shared"``: drive the
        whole batch from one generator with fully batched draws — slightly
        faster, but individual trials are not reproducible in isolation.
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        *,
        schedule: Optional[ProtocolSchedule] = None,
        epsilon: Optional[float] = None,
        process: str = "push",
        engine=None,
        random_state: EnsembleRandomState = None,
        rng_mode: str = "per_trial",
        round_scale: float = 1.0,
        sampling_method: str = "without_replacement",
        use_full_multiset: bool = False,
    ) -> None:
        if schedule is None and epsilon is None:
            raise ValueError("either schedule or epsilon must be provided")
        if rng_mode not in {"per_trial", "shared"}:
            raise ValueError(
                f"rng_mode must be 'per_trial' or 'shared', got {rng_mode!r}"
            )
        self.num_nodes = int(num_nodes)
        self.noise = noise
        self.epsilon = epsilon
        self.process = process
        self.engine = engine
        if engine is not None:
            engine_nodes = getattr(engine, "num_nodes", None)
            if engine_nodes is not None and int(engine_nodes) != self.num_nodes:
                raise ValueError(
                    f"engine is built for {engine_nodes} nodes but the protocol "
                    f"was asked to run on {self.num_nodes}"
                )
        self.rng_mode = rng_mode
        self.round_scale = round_scale
        self.sampling_method = sampling_method
        self.use_full_multiset = use_full_multiset
        self._schedule = schedule
        self._random_state = random_state

    def build_schedule(self, initial_opinionated: int = 1) -> ProtocolSchedule:
        """The schedule used by :meth:`run` (built lazily when not supplied)."""
        if self._schedule is not None:
            return self._schedule
        return ProtocolSchedule.for_population(
            self.num_nodes,
            float(self.epsilon),
            initial_opinionated=max(1, initial_opinionated),
            round_scale=self.round_scale,
        )

    def _trial_randomness(self, num_trials: int) -> EnsembleRandomState:
        return resolve_trial_randomness(
            self._random_state, num_trials, self.rng_mode
        )

    def run(
        self,
        initial_state: Union[PopulationState, EnsembleState],
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
    ) -> EnsembleResult:
        """Execute ``num_trials`` trials from ``initial_state``.

        Parameters
        ----------
        initial_state:
            Either one :class:`PopulationState` (tiled into ``num_trials``
            identical starting points — the usual repeated-trial setting) or
            a pre-built :class:`EnsembleState` with per-trial initial
            conditions (``num_trials`` is then inferred).
        num_trials:
            Number of trials ``R``; required when ``initial_state`` is a
            single population.
        target_opinion:
            The correct opinion ``m``; defaults to the plurality opinion of
            the pooled initial counts.
        """
        if isinstance(initial_state, PopulationState):
            if num_trials is None:
                raise ValueError(
                    "num_trials is required when initial_state is a single "
                    "PopulationState"
                )
            ensemble = EnsembleState.from_state(initial_state, num_trials)
        elif isinstance(initial_state, EnsembleState):
            if num_trials is not None and num_trials != initial_state.num_trials:
                raise ValueError(
                    f"num_trials = {num_trials} disagrees with the ensemble's "
                    f"{initial_state.num_trials} trials"
                )
            # The stage executors evolve a copy, so the caller's rows stay.
            ensemble = initial_state
        else:
            raise TypeError(
                "initial_state must be a PopulationState or an EnsembleState, "
                f"got {type(initial_state).__name__}"
            )
        if ensemble.num_nodes != self.num_nodes:
            raise ValueError(
                f"initial state has {ensemble.num_nodes} nodes but the "
                f"protocol was built for {self.num_nodes}"
            )
        if ensemble.num_opinions != self.noise.num_opinions:
            raise ValueError(
                "initial state and noise matrix disagree on the number of "
                f"opinions ({ensemble.num_opinions} vs {self.noise.num_opinions})"
            )
        if target_opinion is None:
            target_opinion = ensemble.pooled_plurality_opinion()
        if target_opinion <= 0:
            raise ValueError(
                "target_opinion could not be inferred: the initial ensemble "
                "has no opinionated node"
            )
        schedule = self.build_schedule(
            int(ensemble.opinionated_counts().min())
        )
        if self.engine is not None:
            engine = self.engine
        else:
            engine = make_delivery_engine(
                self.process, self.num_nodes, self.noise, None
            )
        randomness = self._trial_randomness(ensemble.num_trials)
        stage1 = EnsembleStage1Executor(engine, schedule.stage1, randomness)
        state_after_stage1, stage1_records = stage1.run(
            ensemble, track_opinion=target_opinion
        )
        stage2 = EnsembleStage2Executor(
            engine,
            schedule.stage2,
            randomness,
            sampling_method=self.sampling_method,
            use_full_multiset=self.use_full_multiset,
        )
        final_states, stage2_records = stage2.run(
            state_after_stage1, track_opinion=target_opinion
        )
        total_rounds = int(
            sum(record.num_rounds for record in stage1_records)
            + sum(record.num_rounds for record in stage2_records)
        )
        return EnsembleResult(
            final_states=final_states,
            target_opinion=target_opinion,
            successes=final_states.consensus_mask(target_opinion),
            total_rounds=total_rounds,
            stage1_records=stage1_records,
            stage2_records=stage2_records,
        )


# reprolint: counts-tier
class CountsProtocol:
    """Run ``R`` protocol trials on ``(R, k)`` sufficient statistics.

    The third engine tier of the two-stage protocol: per-phase cost is
    ``O(k^2)`` per trial — *independent of the population size* — because
    both stages are driven entirely by the opinion-count vector.  Phase
    message histograms are re-colored exactly (Claim 1's balls-into-bins
    reformulation) and the bin-throwing step is summarized under the
    Poissonized process P (Definition 4), the paper's own analysis device;
    Lemma 2 bounds its distance from the real push process, and the
    engine-agreement test-suite checks the resulting statistics against the
    ``batched``/``sequential`` engines.  This is the engine that runs
    ``n = 10^6`` (and beyond) protocol ensembles in seconds.

    A run is a one-task :func:`run_heterogeneous_counts_protocol` batch, so
    a single run and a fused sweep share one executor.  There is no
    ``process``/``engine`` choice (delivery is always the counts model) and
    no Stage-2 sampling ablation.

    Parameters
    ----------
    num_nodes, noise, schedule, epsilon, round_scale:
        As in :class:`TwoStageProtocol`.
    random_state:
        One source (spawned into per-trial child streams, so a counts batch
        is bitwise reproducible trial by trial) or a sequence with one
        source per trial.
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        *,
        schedule: Optional[ProtocolSchedule] = None,
        epsilon: Optional[float] = None,
        random_state: EnsembleRandomState = None,
        round_scale: float = 1.0,
    ) -> None:
        if schedule is None and epsilon is None:
            raise ValueError("either schedule or epsilon must be provided")
        self.num_nodes = int(num_nodes)
        self.noise = noise
        self.epsilon = epsilon
        self.round_scale = round_scale
        self._schedule = schedule
        self._random_state = random_state

    def run(
        self,
        initial_state: Union[
            PopulationState, EnsembleState, CountsState, EnsembleCountsState
        ],
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
    ) -> EnsembleResult:
        """Execute ``num_trials`` trials from ``initial_state``.

        The counts mirror of :meth:`EnsembleProtocol.run`; per-node initial
        states are reduced to their sufficient statistics on entry, and the
        returned :class:`EnsembleResult` carries an
        :class:`~repro.core.state.EnsembleCountsState` as ``final_states``
        (same accessor API as the batched result).
        """
        task = CountsProtocolTask(
            num_nodes=self.num_nodes,
            noise=self.noise,
            initial_state=initial_state,
            num_trials=num_trials,
            epsilon=self.epsilon,
            schedule=self._schedule,
            target_opinion=target_opinion,
            random_state=self._random_state,
            round_scale=self.round_scale,
        )
        return run_heterogeneous_counts_protocol([task])[0]


# reprolint: counts-tier
@dataclass
class CountsProtocolTask:
    """One grid point of a counts-protocol batch.

    ``num_nodes`` is the population the state counts — the honest nodes
    when ``sampler`` (a
    :class:`~repro.faults.injection.FaultedPhaseSampler` owning the run's
    round clock) adds an oblivious faulty sub-population's balls to every
    phase.  See :func:`run_heterogeneous_counts_protocol` for the batch
    contract.
    """

    num_nodes: int
    noise: NoiseMatrix
    initial_state: Union[
        PopulationState, EnsembleState, CountsState, EnsembleCountsState
    ]
    num_trials: Optional[int] = None
    epsilon: Optional[float] = None
    schedule: Optional[ProtocolSchedule] = None
    target_opinion: Optional[int] = None
    random_state: EnsembleRandomState = None
    round_scale: float = 1.0
    sampler: Optional[FaultedPhaseSampler] = None


@dataclass
class _PreparedPoint:
    """A task resolved to its entry state, target, streams and phase plan."""

    task: CountsProtocolTask
    ensemble: EnsembleCountsState
    target_opinion: int
    generators: list
    plan: list  # [("s1", phase_index, num_rounds)] + [("s2", j, nr, L)]
    rows: Optional[np.ndarray] = None
    stage1_records: list = field(default_factory=list)
    stage2_records: list = field(default_factory=list)


# reprolint: counts-tier
def _prepare_point(
    task: CountsProtocolTask, *, spawn_generators: bool = True
) -> _PreparedPoint:
    """Validate one task and resolve its entry state, target and plan.

    ``spawn_generators=False`` skips resolving the per-trial streams —
    batched-draw runs never touch them (only the shared stream of the
    batch's first point), so spawning one child generator per trial per
    point would be pure setup waste.
    """
    if task.schedule is None and task.epsilon is None:
        raise ValueError("either schedule or epsilon must be provided")
    num_nodes = int(task.num_nodes)
    ensemble = coerce_to_ensemble_counts(task.initial_state, task.num_trials)
    if ensemble.num_nodes != num_nodes:
        raise ValueError(
            f"initial state has {ensemble.num_nodes} nodes but the "
            f"protocol was built for {num_nodes}"
        )
    if ensemble.num_opinions != task.noise.num_opinions:
        raise ValueError(
            "initial state and noise matrix disagree on the number of "
            f"opinions ({ensemble.num_opinions} vs {task.noise.num_opinions})"
        )
    target_opinion = task.target_opinion
    if target_opinion is None:
        target_opinion = ensemble.pooled_plurality_opinion()
    if target_opinion <= 0:
        raise ValueError(
            "target_opinion could not be inferred: the initial ensemble "
            "has no opinionated node"
        )
    if task.schedule is not None:
        schedule = task.schedule
    else:
        schedule = ProtocolSchedule.for_population(
            num_nodes,
            float(task.epsilon),
            initial_opinionated=max(1, int(ensemble.opinionated_counts().min())),
            round_scale=task.round_scale,
        )
    if spawn_generators:
        generators = resolve_trial_randomness(
            task.random_state, ensemble.num_trials, "per_trial"
        )
    else:
        generators = []
    plan = [
        ("s1", phase_index, int(num_rounds))
        for phase_index, num_rounds in enumerate(schedule.stage1.phase_lengths)
    ] + [
        ("s2", phase_index, int(num_rounds), int(sample_size))
        for phase_index, (num_rounds, sample_size) in enumerate(
            zip(schedule.stage2.phase_lengths, schedule.stage2.sample_sizes)
        )
    ]
    return _PreparedPoint(
        task=task,
        ensemble=ensemble,
        target_opinion=int(target_opinion),
        generators=list(generators),
        plan=plan,
    )


# reprolint: counts-tier
def _stage_executor(stage: str, parts, generators, cache):
    """The merged rows and stage executor of one set of active points.

    The active point set is stable across most phases (points retire only
    when their schedule ends), so the rows/executor pair is built once per
    distinct ``(stage, points)`` and reused from ``cache``.
    """
    key = (stage, tuple(id(point) for point in parts))
    cached = cache.get(key)
    if cached is None:
        rows = np.concatenate([point.rows for point in parts])
        delivery = CountsDeliveryModel(
            [point.rows.size for point in parts],
            [point.task.num_nodes for point in parts],
            [point.task.noise for point in parts],
            [point.task.sampler for point in parts],
        )
        # Per-trial mode hands each row its own stream; batched mode passes
        # the one shared stream through.
        randomness = (
            [generators[row] for row in rows]
            if isinstance(generators, list)
            else generators
        )
        executor_cls = CountsStage1Executor if stage == "s1" else CountsStage2Executor
        cached = cache[key] = (rows, executor_cls(delivery, randomness))
    return cached


# reprolint: counts-tier
def run_heterogeneous_counts_protocol(
    tasks: List[CountsProtocolTask],
    *,
    draw_mode: str = "per-trial",
) -> List[EnsembleResult]:
    """Run counts-protocol tasks as one merged batched computation.

    The counts tier's protocol executor: :meth:`CountsProtocol.run` is a
    one-task batch and the sweep engine fuses a grid's counts points into
    one.  Each task's :class:`EnsembleResult` is **bitwise identical** to
    running that task alone — same values, same random draws.  The
    equivalence holds because randomness is per-trial (trial ``r`` of task
    ``g`` draws only from its own spawned generator, in the same order as
    alone) and every merged floating-point operation is row-stable; the one
    op that is not (the wide ``maj()`` composition matmul) is evaluated per
    block at the block's own row shape by
    :class:`~repro.network.balls_bins.CountsDeliveryModel`.

    Points advance phase-synchronously: at global step ``p`` every point
    still owning a ``p``-th phase executes it (Stage-1 and Stage-2 phases
    in separate merged :meth:`~repro.core.stage1.CountsStage1Executor.
    run_phase` / :meth:`~repro.core.stage2.CountsStage2Executor.run_phase`
    calls); points whose schedule is exhausted retire early and stop paying
    any per-step cost.  All points must share the number of opinions ``k``
    (callers group by ``k`` first).

    ``draw_mode="batched"`` gives up the bitwise guarantee for throughput:
    every merged phase draws from one shared stream via column-wise
    batched multinomials/binomials instead of one generator call per row.
    The per-row *laws* are untouched, so results are samples of exactly the
    same distribution (verified by the ``pytest -m agreement`` TVD/Wilson
    harness); only the raw draw order differs from the per-trial run.  The
    shared stream is the first point's first spawned trial generator, so
    batched runs are themselves deterministic given the task seeds.
    """
    if draw_mode not in ("per-trial", "batched"):
        raise ValueError(
            f"draw_mode must be 'per-trial' or 'batched', got {draw_mode!r}"
        )
    if not tasks:
        return []
    batched = draw_mode == "batched"
    points = [
        _prepare_point(task, spawn_generators=(not batched or index == 0))
        for index, task in enumerate(tasks)
    ]
    num_opinions = points[0].ensemble.num_opinions
    if any(p.ensemble.num_opinions != num_opinions for p in points):
        raise ValueError(
            "every task of a heterogeneous batch must share the number of "
            "opinions; group grid points by k first"
        )
    offset = 0
    for point in points:
        point.rows = np.arange(offset, offset + point.ensemble.num_trials)
        offset += point.ensemble.num_trials
    counts = np.vstack([point.ensemble.counts for point in points])
    if batched:
        generators = points[0].generators[0]
    else:
        generators = [
            generator for point in points for generator in point.generators
        ]
    step = 0
    executor_cache: dict = {}
    while True:
        active = [point for point in points if step < len(point.plan)]
        if not active:
            break
        for stage in ("s1", "s2"):
            parts = [p for p in active if p.plan[step][0] == stage]
            if not parts:
                continue
            rows, executor = _stage_executor(
                stage, parts, generators, executor_cache
            )
            merged = counts[rows]
            records = executor.run_phase(
                merged,
                [point.plan[step][1:] for point in parts],
                [point.target_opinion for point in parts],
            )
            counts[rows] = merged
            for point, record in zip(parts, records):
                history = (
                    point.stage1_records if stage == "s1" else point.stage2_records
                )
                history.append(record)
        step += 1
    results = []
    for point in points:
        final_states = EnsembleCountsState(
            counts[point.rows], point.task.num_nodes
        )
        total_rounds = int(
            sum(record.num_rounds for record in point.stage1_records)
            + sum(record.num_rounds for record in point.stage2_records)
        )
        results.append(
            EnsembleResult(
                final_states=final_states,
                target_opinion=point.target_opinion,
                successes=final_states.consensus_mask(point.target_opinion),
                total_rounds=total_rounds,
                stage1_records=point.stage1_records,
                stage2_records=point.stage2_records,
            )
        )
    return results

"""Common infrastructure for the baseline opinion dynamics.

Every baseline is a synchronous-round dynamic over a
:class:`~repro.core.state.PopulationState`: in each round every node observes
a few uniformly random nodes' opinions through the noisy channel (the same
noise matrix the paper's protocol faces) and updates its own opinion by a
local rule.  :class:`OpinionDynamics` implements the run loop, convergence
detection and history recording; concrete dynamics implement
:meth:`OpinionDynamics.step`.

:class:`EnsembleOpinionDynamics` is the batched counterpart: ``R``
independent trials evolve together over an ``(R, n)`` opinion matrix
(:class:`~repro.core.state.EnsembleState`), with per-trial convergence
tracking and an active-trials index so converged trials stop costing work.
With per-trial randomness sources (the default), trial ``r`` consumes draws
from its own source only, so a batched run is bitwise identical to ``R``
batch-size-1 ensemble runs with matched seeds — exactly the guarantee the
ensemble protocol gives.  Agreement with the sequential
:meth:`OpinionDynamics.run` reference engine is distributional (the batched
engine samples the compound observation channel; see
:mod:`repro.network.pull_model`) and is checked statistically by the
test-suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.core.state import (
    CountsState,
    EnsembleCountsState,
    EnsembleState,
    PopulationState,
    coerce_to_ensemble_counts,
)
from repro.network.pull_model import (
    CountsPullModel,
    EnsemblePullModel,
    UniformPullModel,
)
from repro.noise.matrix import NoiseMatrix
from repro.utils.multiset import opinion_counts_matrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    is_generator_sequence,
    resolve_trial_randomness,
)
from repro.utils.validation import require_positive_int

__all__ = [
    "OpinionDynamics",
    "DynamicsResult",
    "EnsembleOpinionDynamics",
    "EnsembleDynamicsResult",
    "EnsembleCountsDynamics",
    "CountsDynamicsTask",
    "run_heterogeneous_counts_dynamics",
]


def _bias_from_counts(
    counts: np.ndarray, opinion: int, num_nodes: int
) -> np.ndarray:
    """Definition-1 bias toward ``opinion`` from opinion counts.

    Works on a single count vector ``(k,)`` or a batch ``(..., k)``; the
    sequential and batched run loops share this helper so both record the
    bias with identical arithmetic.
    """
    distribution = counts / num_nodes
    if distribution.shape[-1] == 1:
        return distribution[..., 0]
    rivals = np.delete(distribution, opinion - 1, axis=-1)
    return distribution[..., opinion - 1] - rivals.max(axis=-1)


@dataclass
class DynamicsResult:
    """Outcome of running a baseline dynamic.

    Attributes
    ----------
    final_state:
        The population state when the run stopped.
    rounds_executed:
        Number of synchronous rounds executed.
    converged:
        ``True`` iff the run stopped because all nodes agreed on one opinion.
    consensus_opinion:
        The agreed opinion when ``converged`` (0 otherwise).
    target_opinion:
        The opinion the run was tracking (initial plurality by default).
    success:
        ``True`` iff the run converged on ``target_opinion``.
    bias_history:
        Bias toward ``target_opinion`` after every round.
    """

    final_state: PopulationState
    rounds_executed: int
    converged: bool
    consensus_opinion: int
    target_opinion: int
    success: bool
    bias_history: List[float] = field(default_factory=list)


class OpinionDynamics(ABC):
    """Base class for synchronous baseline dynamics under noisy observation.

    Parameters
    ----------
    num_nodes:
        Population size ``n``.
    noise:
        Noise matrix applied to every observation; pass the identity matrix
        for the classical noise-free dynamics.
    random_state:
        Randomness source shared by the observation substrate and the rules.
    """

    #: Human-readable name used in comparison tables.
    name: str = "opinion-dynamics"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: RandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        self.noise = noise
        self._rng = as_generator(random_state)
        self.pull = UniformPullModel(self.num_nodes, noise, self._rng)

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    @abstractmethod
    def step(self, state: PopulationState) -> None:
        """Execute one synchronous round, mutating ``state`` in place."""

    def _check_state(self, state: PopulationState) -> None:
        if state.num_nodes != self.num_nodes:
            raise ValueError(
                f"state has {state.num_nodes} nodes but the dynamic was built "
                f"for {self.num_nodes}"
            )
        if state.num_opinions != self.num_opinions:
            raise ValueError(
                f"state has {state.num_opinions} opinions but the noise matrix "
                f"has {self.num_opinions}"
            )

    def run(
        self,
        initial_state: PopulationState,
        max_rounds: int,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = True,
        record_history: bool = True,
    ) -> DynamicsResult:
        """Run the dynamic for up to ``max_rounds`` rounds.

        The run stops early when all nodes share one opinion (if
        ``stop_at_consensus``), which is the natural convergence-time
        measurement used by the baseline-comparison experiment.
        """
        max_rounds = require_positive_int(max_rounds, "max_rounds")
        self._check_state(initial_state)
        state = initial_state.copy()
        if target_opinion is None:
            target_opinion = state.plurality_opinion()
        target_opinion = int(target_opinion)
        if target_opinion > self.num_opinions:
            raise ValueError(
                f"target_opinion must be in [0, {self.num_opinions}], "
                f"got {target_opinion}"
            )
        bias_history: List[float] = []
        rounds_executed = 0
        for _ in range(max_rounds):
            self.step(state)
            rounds_executed += 1
            # One opinion_counts() per round, shared by the bias record, the
            # early-stop check and the final convergence verdict.
            counts = state.opinion_counts()
            if record_history and target_opinion > 0:
                bias_history.append(
                    float(_bias_from_counts(counts, target_opinion, self.num_nodes))
                )
            if stop_at_consensus and counts.max(initial=0) == state.num_nodes:
                break
        converged = bool(counts.max(initial=0) == state.num_nodes)
        consensus_opinion = int(np.argmax(counts)) + 1 if converged else 0
        return DynamicsResult(
            final_state=state,
            rounds_executed=rounds_executed,
            converged=converged,
            consensus_opinion=consensus_opinion,
            target_opinion=target_opinion,
            success=bool(converged and consensus_opinion == target_opinion),
            bias_history=bias_history,
        )


@dataclass
class EnsembleDynamicsResult:
    """Outcome of a batched or counts multi-trial dynamics run.

    Attributes
    ----------
    final_states:
        The ensemble state when every trial had stopped (one row per trial):
        an :class:`~repro.core.state.EnsembleState` from the batched tier,
        an :class:`~repro.core.state.EnsembleCountsState` (``(R, k)``
        sufficient statistics) from the counts tier.
    rounds_executed:
        Integer ``(R,)`` array: rounds trial ``r`` executed before it
        converged (or hit ``max_rounds``).
    converged:
        Boolean ``(R,)`` mask of trials that reached consensus.
    consensus_opinions:
        Integer ``(R,)`` array: the agreed opinion per converged trial
        (0 otherwise).
    target_opinion:
        The opinion every trial was tracking.
    successes:
        Boolean ``(R,)`` mask: converged on ``target_opinion``.
    bias_history:
        Float ``(T, R)`` matrix: bias toward the target after every executed
        round, where ``T = rounds_executed.max()``.  Rows past a trial's
        convergence repeat its final bias; slice with ``rounds_executed`` (or
        use :meth:`trial_result`) for the per-trial history a sequential run
        would record.  Empty (``T = 0``) when history recording is off.
    """

    final_states: Union[EnsembleState, EnsembleCountsState]
    rounds_executed: np.ndarray
    converged: np.ndarray
    consensus_opinions: np.ndarray
    target_opinion: int
    successes: np.ndarray
    bias_history: np.ndarray

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
    def convergence_rate(self) -> float:
        """Fraction of trials that reached consensus on *some* opinion."""
        return int(np.count_nonzero(self.converged)) / self.num_trials

    @property
    def final_biases(self) -> np.ndarray:
        """Per-trial bias of the final distribution toward the target.

        All zeros when no target was tracked (``target_opinion == 0``), so
        the accessor is total like the rest of the result.
        """
        if self.target_opinion <= 0:
            return np.zeros(self.num_trials, dtype=float)
        return self.final_states.bias_toward(self.target_opinion)

    def trial_result(self, trial: int) -> DynamicsResult:
        """Trial ``trial`` as a standalone :class:`DynamicsResult`.

        Bitwise identical to what a batch-size-1 ensemble run with that
        trial's randomness source would have produced for its only trial.
        """
        rounds = int(self.rounds_executed[trial])
        return DynamicsResult(
            final_state=self.final_states.trial_state(trial),
            rounds_executed=rounds,
            converged=bool(self.converged[trial]),
            consensus_opinion=int(self.consensus_opinions[trial]),
            target_opinion=self.target_opinion,
            success=bool(self.successes[trial]),
            bias_history=[
                float(value) for value in self.bias_history[:rounds, trial]
            ],
        )

    def summary(self) -> dict:
        """Headline statistics of the batch."""
        return {
            "num_trials": self.num_trials,
            "target_opinion": self.target_opinion,
            "success_rate": self.success_rate,
            "convergence_rate": self.convergence_rate,
            "mean_rounds": float(self.rounds_executed.mean()),
            "mean_final_bias": float(self.final_biases.mean()),
        }


class EnsembleOpinionDynamics(ABC):
    """Run ``R`` independent trials of a baseline dynamic as one batch.

    Every trial follows exactly the rule of the matching
    :class:`OpinionDynamics` subclass; the trial axis is carried through
    every numpy operation, and per-trial early stopping keeps converged
    trials out of the remaining rounds' work (the *active-trials index*).

    Parameters
    ----------
    num_nodes:
        Population size ``n`` per trial.
    noise:
        Noise matrix applied to every observation.
    random_state:
        Either a single :data:`~repro.utils.rng.RandomState` or a sequence
        with one entry per trial.  With a sequence, trial ``r`` consumes
        randomness exclusively from its own source, making a batched run
        bitwise identical to ``R`` batch-size-1 runs with the same sources.
    rng_mode:
        ``"per_trial"`` (default): when ``random_state`` is a single source,
        spawn one independent child generator per trial, preserving the
        trial-by-trial reproducibility guarantee.  ``"shared"``: drive the
        whole batch from one generator with fully batched draws — faster,
        but individual trials are not reproducible in isolation (and the
        stream depends on when other trials converge).
    """

    #: Human-readable name used in comparison tables.
    name: str = "ensemble-opinion-dynamics"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
        *,
        rng_mode: str = "per_trial",
    ) -> None:
        if rng_mode not in {"per_trial", "shared"}:
            raise ValueError(
                f"rng_mode must be 'per_trial' or 'shared', got {rng_mode!r}"
            )
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        self.noise = noise
        self.rng_mode = rng_mode
        self._random_state = random_state
        self.pull = EnsemblePullModel(self.num_nodes, noise)

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    @abstractmethod
    def step(
        self, state: EnsembleState, random_state: EnsembleRandomState
    ) -> None:
        """One synchronous round over every trial of ``state``, in place.

        ``random_state`` is the batch's randomness for this round: a list
        with one generator per trial of ``state`` (per-trial mode) or one
        shared generator.
        """

    def _trial_randomness(self, num_trials: int) -> EnsembleRandomState:
        return resolve_trial_randomness(
            self._random_state, num_trials, self.rng_mode
        )

    def _coerce_ensemble(
        self,
        initial_state: Union[PopulationState, EnsembleState],
        num_trials: Optional[int],
    ) -> EnsembleState:
        if isinstance(initial_state, PopulationState):
            if num_trials is None:
                raise ValueError(
                    "num_trials is required when initial_state is a single "
                    "PopulationState"
                )
            return EnsembleState.from_state(initial_state, num_trials)
        if isinstance(initial_state, EnsembleState):
            if num_trials is not None and num_trials != initial_state.num_trials:
                raise ValueError(
                    f"num_trials = {num_trials} disagrees with the ensemble's "
                    f"{initial_state.num_trials} trials"
                )
            return initial_state.copy()
        raise TypeError(
            "initial_state must be a PopulationState or an EnsembleState, "
            f"got {type(initial_state).__name__}"
        )

    def _check_state(self, state: EnsembleState) -> None:
        if state.num_nodes != self.num_nodes:
            raise ValueError(
                f"state has {state.num_nodes} nodes but the dynamic was built "
                f"for {self.num_nodes}"
            )
        if state.num_opinions != self.num_opinions:
            raise ValueError(
                f"state has {state.num_opinions} opinions but the noise matrix "
                f"has {self.num_opinions}"
            )

    def run(
        self,
        initial_state: Union[PopulationState, EnsembleState],
        max_rounds: int,
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = True,
        record_history: bool = True,
    ) -> EnsembleDynamicsResult:
        """Run every trial for up to ``max_rounds`` rounds.

        Parameters
        ----------
        initial_state:
            Either one :class:`PopulationState` (tiled into ``num_trials``
            identical starting points) or a pre-built :class:`EnsembleState`
            with per-trial initial conditions (``num_trials`` inferred).
        max_rounds:
            Round budget per trial.
        target_opinion:
            The opinion to track; defaults to the plurality opinion of the
            pooled initial counts (for a tiled ensemble this matches the
            per-trial default of the sequential runner).
        stop_at_consensus:
            Remove a trial from the active set as soon as all its nodes
            agree; converged trials stop consuming randomness and compute.
        record_history:
            Record the per-round bias toward the target for every trial.
        """
        max_rounds = require_positive_int(max_rounds, "max_rounds")
        ensemble = self._coerce_ensemble(initial_state, num_trials)
        self._check_state(ensemble)
        num_trials = ensemble.num_trials
        if target_opinion is None:
            target_opinion = ensemble.pooled_plurality_opinion()
        target_opinion = int(target_opinion)
        if target_opinion > self.num_opinions:
            raise ValueError(
                f"target_opinion must be in [0, {self.num_opinions}], "
                f"got {target_opinion}"
            )
        randomness = self._trial_randomness(num_trials)
        per_trial = is_generator_sequence(randomness)
        opinions = ensemble.opinions
        rounds_executed = np.zeros(num_trials, dtype=np.int64)
        active = np.arange(num_trials)
        bias_rows: List[np.ndarray] = []
        last_bias = np.zeros(num_trials, dtype=float)
        for _ in range(max_rounds):
            if active.size == num_trials:
                # Full batch: step the working state in place.
                self.step(ensemble, randomness)
                active_opinions = opinions
            else:
                sub_randomness = (
                    [randomness[index] for index in active]
                    if per_trial
                    else randomness
                )
                # The fancy index already yields a fresh in-range matrix, so
                # wrap it without the constructor's copy and range scan.
                sub_state = EnsembleState.wrap(
                    opinions[active], self.num_opinions
                )
                self.step(sub_state, sub_randomness)
                opinions[active] = sub_state.opinions
                active_opinions = sub_state.opinions
            counts = opinion_counts_matrix(
                active_opinions, self.num_opinions, validate=False
            )
            rounds_executed[active] += 1
            if record_history and target_opinion > 0:
                last_bias = last_bias.copy()
                last_bias[active] = _bias_from_counts(
                    counts, target_opinion, self.num_nodes
                )
                bias_rows.append(last_bias)
            if stop_at_consensus:
                done = counts.max(axis=1) == self.num_nodes
                if done.any():
                    active = active[~done]
                    if active.size == 0:
                        break
        final_counts = ensemble.opinion_counts()
        converged = final_counts.max(axis=1) == self.num_nodes
        consensus_opinions = np.where(
            converged, final_counts.argmax(axis=1) + 1, 0
        ).astype(np.int64)
        bias_history = (
            np.stack(bias_rows)
            if bias_rows
            else np.zeros((0, num_trials), dtype=float)
        )
        return EnsembleDynamicsResult(
            final_states=ensemble,
            rounds_executed=rounds_executed,
            converged=converged,
            consensus_opinions=consensus_opinions,
            target_opinion=target_opinion,
            successes=converged & (consensus_opinions == target_opinion),
            bias_history=bias_history,
        )


# reprolint: counts-tier
class EnsembleCountsDynamics(ABC):
    """Run ``R`` independent trials of a dynamic on sufficient statistics.

    The third engine tier.  Every trial follows exactly the rule of the
    matching :class:`OpinionDynamics` subclass, but the state is the
    ``(R, k)`` opinion-count matrix of an
    :class:`~repro.core.state.EnsembleCountsState`: on the complete graph
    the per-node opinion vector is exchangeable, so one grouped-multinomial
    draw per current-opinion group reproduces each round's aggregate
    update *exactly in distribution* (see
    :class:`~repro.network.pull_model.CountsPullModel`).  Per-round cost is
    ``O(k^2)`` per trial — independent of ``n`` — and no method allocates
    an array with an ``n``-sized axis, which is what lets the engine
    simulate millions (or billions) of nodes at fixed cost.

    Randomness follows the ensemble convention: with per-trial sources
    (the default) trial ``r`` consumes draws from its own generator only,
    so a counts batch is bitwise identical to ``R`` batch-size-1 counts
    runs with the same sources; agreement with the ``sequential`` and
    ``batched`` per-node engines is distributional and is checked by the
    statistical engine-agreement test-suite.
    """

    #: Human-readable name used in comparison tables.
    name: str = "counts-opinion-dynamics"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
        *,
        rng_mode: str = "per_trial",
    ) -> None:
        if rng_mode not in {"per_trial", "shared"}:
            raise ValueError(
                f"rng_mode must be 'per_trial' or 'shared', got {rng_mode!r}"
            )
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        self.noise = noise
        self.rng_mode = rng_mode
        self._random_state = random_state
        self.pull = CountsPullModel(self.num_nodes, noise)

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    @abstractmethod
    def step(
        self, state: EnsembleCountsState, random_state: EnsembleRandomState
    ) -> None:
        """One synchronous round over every trial of ``state``, in place.

        Implementations mutate ``state.counts`` (an ``(R, k)`` int64
        matrix) and must consume randomness per trial only from that
        trial's generator when ``random_state`` is a per-trial sequence.
        """

    def _trial_randomness(self, num_trials: int) -> EnsembleRandomState:
        return resolve_trial_randomness(
            self._random_state, num_trials, self.rng_mode
        )

    def _check_state(self, state: EnsembleCountsState) -> None:
        if state.num_nodes != self.num_nodes:
            raise ValueError(
                f"state has {state.num_nodes} nodes but the dynamic was built "
                f"for {self.num_nodes}"
            )
        if state.num_opinions != self.num_opinions:
            raise ValueError(
                f"state has {state.num_opinions} opinions but the noise matrix "
                f"has {self.num_opinions}"
            )

    def _begin(
        self,
        initial_state: Union[
            PopulationState, EnsembleState, CountsState, EnsembleCountsState
        ],
        max_rounds: int,
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = True,
        record_history: bool = True,
    ) -> "_CountsRunState":
        """Validate inputs and set up the run-loop state of :meth:`run`."""
        max_rounds = require_positive_int(max_rounds, "max_rounds")
        ensemble = coerce_to_ensemble_counts(initial_state, num_trials)
        self._check_state(ensemble)
        num_trials = ensemble.num_trials
        if target_opinion is None:
            target_opinion = ensemble.pooled_plurality_opinion()
        target_opinion = int(target_opinion)
        if target_opinion > self.num_opinions:
            raise ValueError(
                f"target_opinion must be in [0, {self.num_opinions}], "
                f"got {target_opinion}"
            )
        randomness = self._trial_randomness(num_trials)
        return _CountsRunState(
            ensemble=ensemble,
            max_rounds=max_rounds,
            target_opinion=target_opinion,
            stop_at_consensus=stop_at_consensus,
            record_history=record_history,
            randomness=randomness,
            per_trial=is_generator_sequence(randomness),
            rounds_executed=np.zeros(num_trials, dtype=np.int64),
            active=np.arange(num_trials),
            last_bias=np.zeros(num_trials, dtype=float),
        )

    def _advance(self, run: "_CountsRunState") -> bool:
        """Execute one round of :meth:`run`'s loop; ``True`` while unfinished.

        The exact body of the historical monolithic loop, factored out so
        the heterogeneous sweep runner
        (:func:`run_heterogeneous_counts_dynamics`) can interleave many
        grid points round by round while each point stays bitwise
        identical to its own standalone :meth:`run`.
        """
        if run.rounds_done >= run.max_rounds or run.active.size == 0:
            return False
        ensemble, counts, active = run.ensemble, run.ensemble.counts, run.active
        if active.size == ensemble.num_trials:
            self.step(ensemble, run.randomness)
            active_counts = counts
        else:
            sub_randomness = (
                [run.randomness[index] for index in active]
                if run.per_trial
                else run.randomness
            )
            sub_state = EnsembleCountsState(counts[active], self.num_nodes)
            self.step(sub_state, sub_randomness)
            counts[active] = sub_state.counts
            active_counts = sub_state.counts
        run.rounds_executed[active] += 1
        if run.record_history and run.target_opinion > 0:
            run.last_bias = run.last_bias.copy()
            run.last_bias[active] = _bias_from_counts(
                active_counts, run.target_opinion, self.num_nodes
            )
            run.bias_rows.append(run.last_bias)
        if run.stop_at_consensus:
            done = active_counts.max(axis=1) == self.num_nodes
            if done.any():
                run.active = run.active[~done]
        run.rounds_done += 1
        return run.rounds_done < run.max_rounds and run.active.size > 0

    def _finish(self, run: "_CountsRunState") -> EnsembleDynamicsResult:
        """Assemble the :class:`EnsembleDynamicsResult` of a completed loop."""
        counts = run.ensemble.counts
        converged = counts.max(axis=1) == self.num_nodes
        consensus_opinions = np.where(
            converged, counts.argmax(axis=1) + 1, 0
        ).astype(np.int64)
        bias_history = (
            np.stack(run.bias_rows)
            if run.bias_rows
            else np.zeros((0, run.ensemble.num_trials), dtype=float)
        )
        return EnsembleDynamicsResult(
            final_states=run.ensemble,
            rounds_executed=run.rounds_executed,
            converged=converged,
            consensus_opinions=consensus_opinions,
            target_opinion=run.target_opinion,
            successes=converged & (consensus_opinions == run.target_opinion),
            bias_history=bias_history,
        )

    def run(
        self,
        initial_state: Union[
            PopulationState, EnsembleState, CountsState, EnsembleCountsState
        ],
        max_rounds: int,
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = True,
        record_history: bool = True,
    ) -> EnsembleDynamicsResult:
        """Run every trial for up to ``max_rounds`` rounds.

        The counts-engine mirror of :meth:`EnsembleOpinionDynamics.run`
        (same arguments, same early-stopping semantics: converged trials
        leave the active set and stop consuming randomness and compute).
        ``initial_state`` additionally accepts the counts-native state
        types; per-node states are reduced to their sufficient statistics
        on entry.
        """
        run = self._begin(
            initial_state,
            max_rounds,
            num_trials,
            target_opinion=target_opinion,
            stop_at_consensus=stop_at_consensus,
            record_history=record_history,
        )
        while self._advance(run):
            pass
        return self._finish(run)


@dataclass
class _CountsRunState:
    """The loop state of one :meth:`EnsembleCountsDynamics.run` in flight."""

    ensemble: EnsembleCountsState
    max_rounds: int
    target_opinion: int
    stop_at_consensus: bool
    record_history: bool
    randomness: EnsembleRandomState
    per_trial: bool
    rounds_executed: np.ndarray
    active: np.ndarray
    last_bias: np.ndarray
    bias_rows: List[np.ndarray] = field(default_factory=list)
    rounds_done: int = 0


# reprolint: counts-tier
@dataclass
class CountsDynamicsTask:
    """One grid point of a heterogeneous counts-dynamics batch.

    Carries exactly the arguments a serial per-point loop would pass to
    :meth:`EnsembleCountsDynamics.run` on ``dynamics``.
    """

    dynamics: EnsembleCountsDynamics
    initial_state: Union[
        PopulationState, EnsembleState, CountsState, EnsembleCountsState
    ]
    max_rounds: int
    num_trials: Optional[int] = None
    target_opinion: Optional[int] = None
    stop_at_consensus: bool = True
    record_history: bool = True


def _merge_kind(dynamics: EnsembleCountsDynamics) -> Optional[str]:
    """The merged-step family of ``dynamics``, or ``None`` if unmergeable.

    Only the exact stock counts classes qualify (a subclass may override
    :meth:`step`, which the merged round cannot reproduce); they all share
    the grouped-observation structure — a row-stable observation pmf, one
    multinomial per trial, then exact integer algebra — which is what lets
    many grid points advance as one ``(sum of trials, k)`` computation
    while staying bitwise identical to their standalone runs.
    """
    from repro.dynamics.h_majority import (
        EnsembleCountsHMajorityDynamics,
        EnsembleCountsThreeMajorityDynamics,
    )
    from repro.dynamics.median_rule import EnsembleCountsMedianRuleDynamics
    from repro.dynamics.undecided_state import (
        EnsembleCountsUndecidedStateDynamics,
    )
    from repro.dynamics.voter import EnsembleCountsVoterDynamics

    concrete = type(dynamics)
    if concrete is EnsembleCountsVoterDynamics:
        return "voter"
    if concrete in (
        EnsembleCountsHMajorityDynamics,
        EnsembleCountsThreeMajorityDynamics,
    ):
        return "majority"
    if concrete is EnsembleCountsUndecidedStateDynamics:
        return "undecided"
    if concrete is EnsembleCountsMedianRuleDynamics:
        return "median"
    return None


# reprolint: counts-tier
def _run_merged_counts_group(
    kind: str,
    tasks: List[CountsDynamicsTask],
    states: List["_CountsRunState"],
) -> None:
    """Advance a group of same-``(kind, k)`` points as one merged batch.

    All heterogeneity is per row or per block: per-row population sizes
    (the merged state's ``num_nodes`` vector), per-block noise matrices
    and ``maj()`` sample sizes, per-row generators, per-point round
    budgets and convergence masks.  Every floating-point operation either
    is elementwise / a per-row reduction (row-stable by construction) or
    runs on exactly the slice shape the standalone run would use (the
    per-block matmul and vote-law calls), and every draw comes from the
    same generator with the same arguments — so each point's trajectory is
    bitwise identical to its own :meth:`EnsembleCountsDynamics.run`.
    Mutates ``states`` in place; callers finish with ``_finish``.
    """
    from repro.network.pull_model import majority_vote_law

    num_opinions = tasks[0].dynamics.num_opinions
    if kind == "median":
        from repro.dynamics.median_rule import _median_transition_tensor

        transition = _median_transition_tensor(num_opinions)
    live = list(range(len(tasks)))
    global_round = 0
    rebuild = True
    while live:
        if rebuild:
            # (Re)assemble the merged batch.  Between retirement events
            # the active sets are frozen, so this runs only when a row
            # converges or a point exhausts its round budget — the steady
            # state pays no per-block bookkeeping at all.
            blocks = []
            counts_parts: List[np.ndarray] = []
            node_parts: List[np.ndarray] = []
            stop_parts: List[np.ndarray] = []
            generators: List = []
            position = 0
            for index in live:
                state = states[index]
                dynamics = tasks[index].dynamics
                size = state.active.size
                blocks.append(
                    (
                        index,
                        state,
                        dynamics,
                        slice(position, position + size),
                        dynamics.noise.matrix,
                    )
                )
                counts_parts.append(state.ensemble.counts[state.active])
                node_parts.append(
                    np.full(size, dynamics.num_nodes, dtype=np.int64)
                )
                stop_parts.append(
                    np.full(size, state.stop_at_consensus, dtype=bool)
                )
                generators.extend(
                    state.randomness[row].multinomial
                    for row in state.active
                )
                position += size
            counts_active = np.vstack(counts_parts)
            nodes_active = np.concatenate(node_parts)
            stop_mask = np.concatenate(stop_parts)
            any_stop = bool(stop_mask.any())
            bias_blocks = [
                entry
                for entry in blocks
                if entry[1].record_history and entry[1].target_opinion > 0
            ]
            num_rows = counts_active.shape[0]
            deadline = min(tasks[index].max_rounds for index in live)
            rebuild = False
        # Observation pmf with per-row n and per-block noise — identical
        # arithmetic to CountsPullModel.observation_probabilities.
        shares = counts_active / nodes_active[:, np.newaxis]
        none_mass = 1.0 - shares.sum(axis=1, keepdims=True)
        noisy = np.empty((num_rows, num_opinions), dtype=float)
        for index, state, dynamics, block, noise_matrix in blocks:
            np.matmul(shares[block], noise_matrix, out=noisy[block])
        pmf = np.clip(np.concatenate([none_mass, noisy], axis=1), 0.0, 1.0)
        undecided = nodes_active - counts_active.sum(axis=1, dtype=np.int64)
        sizes = np.concatenate(
            [undecided[:, np.newaxis], counts_active], axis=1
        )
        if kind == "majority":
            draw_pmf = np.empty_like(pmf)
            for index, state, dynamics, block, noise_matrix in blocks:
                draw_pmf[block] = majority_vote_law(
                    pmf[block], dynamics.sample_size
                )
            out_dim = num_opinions + 1
        elif kind == "median":
            draw_pmf = (
                pmf[:, :, np.newaxis] * pmf[:, np.newaxis, :]
            ).reshape(num_rows, -1)
            out_dim = (num_opinions + 1) ** 2
        else:
            draw_pmf = pmf
            out_dim = num_opinions + 1
        drawn = np.empty(
            (num_rows, num_opinions + 1, out_dim), dtype=np.int64
        )
        # One scalar-n multinomial per observing group instead of one
        # vector-n call per row: numpy's broadcasting path costs ~5x more
        # per call, draws the same bits in the same order, and empty
        # groups (n = 0) consume no bits at all, so both decompositions
        # are bitwise identical to the serial _grouped_multinomial.
        for out_row, draw, size_row, pmf_row in zip(
            drawn, generators, sizes, draw_pmf
        ):
            for group in range(num_opinions + 1):
                group_size = size_row[group]
                if group_size:
                    out_row[group] = draw(group_size, pmf_row)
                else:
                    out_row[group] = 0
        if kind in ("voter", "majority"):
            counts_active = drawn[:, :, 1:].sum(axis=1) + drawn[:, 1:, 0]
        elif kind == "undecided":
            diagonal = np.arange(num_opinions)
            counts_active = (
                drawn[:, 0, 1:]
                + drawn[:, 1:, 0]
                + drawn[:, diagonal + 1, diagonal + 1]
            )
        else:  # median
            # Same unsafe cast the serial step performs when assigning the
            # float transition product into the int64 counts matrix.
            counts_active = np.einsum("rgp,gpv->rv", drawn, transition)[
                :, 1:
            ].astype(np.int64)
        global_round += 1
        for index, state, dynamics, block, noise_matrix in bias_blocks:
            state.last_bias = state.last_bias.copy()
            state.last_bias[state.active] = _bias_from_counts(
                counts_active[block], state.target_opinion, dynamics.num_nodes
            )
            state.bias_rows.append(state.last_bias)
        retired = False
        if any_stop:
            done_rows = (
                counts_active.max(axis=1) == nodes_active
            ) & stop_mask
            retired = bool(done_rows.any())
        if retired or global_round == deadline:
            still_live: List[int] = []
            for index, state, dynamics, block, noise_matrix in blocks:
                state.ensemble.counts[state.active] = counts_active[block]
                if retired:
                    local_done = done_rows[block]
                    if local_done.any():
                        state.rounds_executed[
                            state.active[local_done]
                        ] = global_round
                        state.active = state.active[~local_done]
                if (
                    global_round >= tasks[index].max_rounds
                    or state.active.size == 0
                ):
                    # Rows stepped in every round so far finish with the
                    # same count the serial per-round increment would give.
                    state.rounds_executed[state.active] = global_round
                    state.rounds_done = global_round
                    continue
                still_live.append(index)
            live = still_live
            rebuild = True


# reprolint: counts-tier
def run_heterogeneous_counts_dynamics(
    tasks: List[CountsDynamicsTask],
) -> List[EnsembleDynamicsResult]:
    """Run many counts-dynamics grid points in one shared round loop.

    The sweep engine's dynamics executor.  Points whose dynamics are stock
    counts rules are grouped by ``(rule family, k)`` and advanced as one
    merged ``(sum of trials, k)`` batch per round — per-row population
    sizes, per-block noise matrices and vote laws, per-block convergence
    masks, early retirement of finished points (see
    :func:`_run_merged_counts_group`).  Anything else (custom subclasses,
    shared-generator randomness) falls back to round-robin interleaving of
    the factored ``_begin`` / ``_advance`` / ``_finish`` loop.  Either
    way every point's :class:`EnsembleDynamicsResult` is **bitwise
    identical** to ``task.dynamics.run(...)`` with the same arguments.
    """
    states = [
        task.dynamics._begin(
            task.initial_state,
            task.max_rounds,
            task.num_trials,
            target_opinion=task.target_opinion,
            stop_at_consensus=task.stop_at_consensus,
            record_history=task.record_history,
        )
        for task in tasks
    ]
    groups: dict = {}
    loners: List[int] = []
    for index, (task, state) in enumerate(zip(tasks, states)):
        kind = _merge_kind(task.dynamics)
        if kind is not None and is_generator_sequence(state.randomness):
            key = (kind, task.dynamics.num_opinions)
            groups.setdefault(key, []).append(index)
        else:
            loners.append(index)
    for (kind, _), indices in groups.items():
        _run_merged_counts_group(
            kind,
            [tasks[index] for index in indices],
            [states[index] for index in indices],
        )
    pending = list(loners)
    while pending:
        pending = [
            index
            for index in pending
            if tasks[index].dynamics._advance(states[index])
        ]
    return [
        task.dynamics._finish(state) for task, state in zip(tasks, states)
    ]

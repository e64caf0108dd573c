"""Trial bookkeeping that whole-protocol scenarios do not cover yet.

Whole-protocol experiments describe each run as a
:class:`~repro.sim.scenario.Scenario` and execute it through
:func:`~repro.sim.facade.simulate` / :func:`~repro.sim.sweep.simulate_sweep`.
What remains here serves the experiments that need something else:

* :func:`stage1_trial_trajectories` / :func:`stage2_trial_trajectories` run
  *one* stage for ``R`` trials and record every phase (E3/E4/E6/E13), on
  the ``"batched"`` ``(R, n)`` ensemble, the ``"counts"`` ``(R, k)``
  sufficient statistics, or the ``"sequential"`` reference loop.  They run
  the protocol classes on a schedule whose other stage has no phase and
  read the stage's :class:`~repro.core.schedule.PhaseRecord` history;
* :func:`repeat_trials`, :func:`sweep_product` and :func:`summarize` are
  plain repetition / grid / statistics helpers;
* :func:`set_default_counts_threshold` installs the process-wide ``"auto"``
  switch-over population size that the CLI's ``--counts-threshold`` sets.
  The stage helpers read it directly; scenario-based experiments pick it
  up through :func:`scenario_counts_threshold`.

``"auto"`` resolves through :func:`repro.sim.engines.resolve_engine_policy`:
from ``counts_threshold`` nodes on (default: the process override, else
:data:`~repro.sim.engines.DEFAULT_COUNTS_THRESHOLD`) the counts engine wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.core.protocol import (
    CountsProtocol,
    EnsembleProtocol,
    EnsembleResult,
    TwoStageProtocol,
)
from repro.core.schedule import ProtocolSchedule, Stage1Schedule, Stage2Schedule
from repro.core.state import CountsState, EnsembleCountsState, EnsembleState, PopulationState
from repro.noise.matrix import NoiseMatrix
from repro.sim.engines import DEFAULT_COUNTS_THRESHOLD, resolve_engine_policy
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_trial_generators,
    spawn_generators,
)

__all__ = [
    "repeat_trials",
    "sweep_product",
    "summarize",
    "Stage1TrajectoryResult",
    "stage1_trial_trajectories",
    "Stage2TrajectoryResult",
    "stage2_trial_trajectories",
    "TRIAL_ENGINES",
    "scenario_counts_threshold",
    "set_default_counts_threshold",
]

T = TypeVar("T")

#: Concrete execution engines accepted by the stage helpers.
TRIAL_ENGINES = ("batched", "sequential", "counts")

#: The process-wide ``"auto"`` threshold of the stage helpers, set by
#: :func:`set_default_counts_threshold` (``None``: no override).  It goes
#: with this module once every experiment runs on :mod:`repro.sim`, whose
#: scenarios carry their threshold themselves.
_active_counts_threshold: Optional[int] = None


def set_default_counts_threshold(counts_threshold: Optional[int]) -> int:
    """Override the process-wide ``"auto"`` switch-over population size.

    ``None`` restores :data:`~repro.sim.engines.DEFAULT_COUNTS_THRESHOLD`.
    Returns the now active value.  Used by the orchestrator and the CLI's
    ``run-experiment --counts-threshold`` so experiment configs (which
    carry only a ``trial_engine`` name) pick it up too.
    """
    global _active_counts_threshold
    if counts_threshold is not None and counts_threshold < 1:
        raise ValueError(
            f"counts_threshold must be >= 1, got {counts_threshold}"
        )
    if counts_threshold is None:
        _active_counts_threshold = None
        return DEFAULT_COUNTS_THRESHOLD
    _active_counts_threshold = int(counts_threshold)
    return _active_counts_threshold


def scenario_counts_threshold(engine: str) -> Optional[int]:
    """The ``counts_threshold`` of an experiment's
    ``Scenario(engine=engine)``: the threshold installed by
    :func:`set_default_counts_threshold` for ``"auto"``, else ``None``."""
    return _active_counts_threshold if engine == "auto" else None


def _resolve_engine_for_state(
    trial_engine: str,
    initial_state,
    counts_threshold: Optional[int],
) -> str:
    """Engine resolution that also respects the initial-state type.

    Counts-native states carry no per-node information, so only the counts
    engine can consume them: ``"auto"`` resolves straight to ``"counts"``
    for them, and an explicit per-node engine is rejected with a clear
    error instead of a deep ``TypeError``.
    """
    if trial_engine == "analytic":
        raise ValueError(
            "the stage helpers sample independent trials, which the "
            "analytic (distribution-level) engine does not produce; run "
            "repro.sim.simulate(Scenario(..., engine='analytic')) instead"
        )
    counts_native = isinstance(
        initial_state, (CountsState, EnsembleCountsState)
    )
    if counts_native and trial_engine == "auto":
        return "counts"
    resolved = resolve_engine_policy(
        trial_engine,
        initial_state.num_nodes,
        (
            _active_counts_threshold
            if counts_threshold is None
            else counts_threshold
        ),
    )
    if counts_native and resolved != "counts":
        raise ValueError(
            f"trial_engine={resolved!r} needs per-node initial states; "
            "CountsState/EnsembleCountsState inputs can only run on "
            "trial_engine='counts'"
        )
    return resolved


def repeat_trials(
    trial: Callable[[np.random.Generator], T],
    num_trials: int,
    random_state: RandomState = None,
) -> List[T]:
    """Run ``trial`` ``num_trials`` times with independent generators.

    Each invocation receives its own :class:`numpy.random.Generator` derived
    deterministically from ``random_state``, so the whole batch is
    reproducible while the trials stay statistically independent.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    generators = spawn_generators(num_trials, random_state)
    return [trial(generator) for generator in generators]


@dataclass(frozen=True)
class Stage1TrajectoryResult:
    """Per-phase Stage-1 measurements for a batch of independent trials.

    Attributes
    ----------
    phase_lengths:
        Rounds per Stage-1 phase (shared by every trial).
    opinionated_fractions:
        ``(R, P)`` array: fraction of opinionated nodes after each phase.
    biases:
        ``(R, P)`` array: bias toward the tracked opinion after each phase.
    """

    phase_lengths: Tuple[int, ...]
    opinionated_fractions: np.ndarray
    biases: np.ndarray

    @property
    def num_trials(self) -> int:
        return self.opinionated_fractions.shape[0]

    @property
    def total_rounds(self) -> int:
        return int(sum(self.phase_lengths))


def stage1_trial_trajectories(
    initial_state: PopulationState,
    noise: NoiseMatrix,
    epsilon: float,
    num_trials: int,
    random_state: EnsembleRandomState = None,
    *,
    track_opinion: int = 1,
    schedule: Optional[Stage1Schedule] = None,
    trial_engine: str = "batched",
    counts_threshold: Optional[int] = None,
) -> Stage1TrajectoryResult:
    """Run *only Stage 1* for ``num_trials`` trials, recording every phase.

    The engine-aware counterpart of driving
    :class:`~repro.core.stage1.Stage1Executor` in a Python loop: the batched
    engine evolves one ``(R, n)`` ensemble (:class:`~repro.core.protocol.
    EnsembleProtocol`), the counts engine one ``(R, k)`` count matrix
    (:class:`~repro.core.protocol.CountsProtocol`), and the sequential
    reference loops single :class:`~repro.core.protocol.TwoStageProtocol`
    trials — all three on a schedule with an empty Stage 2, and all three
    produce the same per-phase measurement arrays (Lemma 4/6/7's
    opinionated fraction and bias, experiments E3/E4).  Per-trial randomness
    follows the shared spawned-generator discipline, so a fixed
    ``random_state`` reproduces the batch on any engine.
    """
    num_nodes = initial_state.num_nodes
    if schedule is None:
        schedule = Stage1Schedule.for_population(num_nodes, epsilon)
    result = _run_one_stage(
        ProtocolSchedule(schedule, Stage2Schedule([], [], epsilon)),
        _resolve_engine_for_state(trial_engine, initial_state, counts_threshold),
        initial_state,
        noise,
        num_trials,
        random_state,
        track_opinion,
    )
    records = result.stage1_records
    return Stage1TrajectoryResult(
        tuple(int(length) for length in schedule.phase_lengths),
        np.stack(
            [record.opinionated_after / num_nodes for record in records], axis=1
        ),
        np.stack([record.bias for record in records], axis=1),
    )


@dataclass(frozen=True)
class Stage2TrajectoryResult:
    """Per-phase Stage-2 measurements for a batch of independent trials.

    Attributes
    ----------
    phase_lengths, sample_sizes:
        Rounds and sample size per Stage-2 phase (shared by every trial).
    biases:
        ``(R, P)`` array: bias toward the tracked opinion after each phase.
    consensus:
        ``(R,)`` boolean array: consensus on the tracked opinion at the end.
    """

    phase_lengths: Tuple[int, ...]
    sample_sizes: Tuple[int, ...]
    biases: np.ndarray
    consensus: np.ndarray

    @property
    def num_trials(self) -> int:
        return self.biases.shape[0]

    @property
    def final_biases(self) -> np.ndarray:
        """Bias toward the tracked opinion after the last phase, per trial."""
        return self.biases[:, -1]


def stage2_trial_trajectories(
    initial_state: Union[PopulationState, EnsembleState],
    noise: NoiseMatrix,
    epsilon: float,
    num_trials: int,
    random_state: EnsembleRandomState = None,
    *,
    track_opinion: int = 1,
    schedule: Optional[Stage2Schedule] = None,
    sampling_method: str = "without_replacement",
    use_full_multiset: bool = False,
    trial_engine: str = "batched",
    counts_threshold: Optional[int] = None,
) -> Stage2TrajectoryResult:
    """Run *only Stage 2* for ``num_trials`` trials, recording every phase.

    The engine-aware Stage-2 counterpart of :func:`stage1_trial_trajectories`
    (Lemma 12's per-phase bias amplification, experiments E6/E13).
    ``initial_state`` is either one fully opinionated population (every
    trial starts from it) or a pre-built :class:`EnsembleState` with
    per-trial rows.  The Stage-2 sampling ablations (``sampling_method``,
    ``use_full_multiset``) are served by the batched and sequential engines;
    the counts engine implements only the faithful rule and raises
    ``ValueError`` for anything else.
    """
    num_nodes = initial_state.num_nodes
    if schedule is None:
        schedule = Stage2Schedule.for_population(num_nodes, epsilon)
    if isinstance(initial_state, EnsembleState) and (
        num_trials != initial_state.num_trials
    ):
        raise ValueError(
            f"num_trials = {num_trials} disagrees with the ensemble's "
            f"{initial_state.num_trials} trials"
        )
    trial_engine = _resolve_engine_for_state(
        trial_engine, initial_state, counts_threshold
    )
    if trial_engine == "counts" and (
        sampling_method != "without_replacement" or use_full_multiset
    ):
        raise ValueError(
            "the counts engine implements only the faithful Stage-2 rule "
            "(a size-L sample drawn without replacement); use the batched "
            f"or sequential engine for sampling_method={sampling_method!r}, "
            f"use_full_multiset={use_full_multiset}"
        )
    result = _run_one_stage(
        ProtocolSchedule(Stage1Schedule([], epsilon), schedule),
        trial_engine,
        initial_state,
        noise,
        num_trials,
        random_state,
        track_opinion,
        sampling_method=sampling_method,
        use_full_multiset=use_full_multiset,
    )
    return Stage2TrajectoryResult(
        tuple(int(length) for length in schedule.phase_lengths),
        tuple(int(size) for size in schedule.sample_sizes),
        np.stack([record.bias for record in result.stage2_records], axis=1),
        result.successes,
    )


def _run_one_stage(
    schedule: ProtocolSchedule,
    trial_engine: str,
    initial_state,
    noise: NoiseMatrix,
    num_trials: int,
    random_state: EnsembleRandomState,
    track_opinion: int,
    **ablation: Any,
) -> EnsembleResult:
    """``num_trials`` protocol trials on ``schedule`` (one of whose stages
    has no phase) on the resolved tier, as one :class:`EnsembleResult`.

    Every tier spawns one generator per trial from ``random_state``.
    """
    num_nodes = initial_state.num_nodes
    if trial_engine == "counts":
        return CountsProtocol(
            num_nodes, noise, schedule=schedule, random_state=random_state
        ).run(initial_state, num_trials, target_opinion=track_opinion)
    if trial_engine == "batched":
        return EnsembleProtocol(
            num_nodes,
            noise,
            schedule=schedule,
            random_state=random_state,
            **ablation,
        ).run(initial_state, num_trials, target_opinion=track_opinion)
    if isinstance(initial_state, EnsembleState):
        trial_states = initial_state.to_states()
    else:
        trial_states = [initial_state] * num_trials
    return EnsembleResult.from_trials(
        [
            TwoStageProtocol(
                num_nodes,
                noise,
                schedule=schedule,
                random_state=generator,
                **ablation,
            ).run(trial_state, target_opinion=track_opinion)
            for trial_state, generator in zip(
                trial_states, as_trial_generators(random_state, num_trials)
            )
        ]
    )


def sweep_product(**parameter_values: Sequence[Any]) -> List[Dict[str, Any]]:
    """The Cartesian product of named parameter lists, as dictionaries.

    >>> sweep_product(n=[10, 20], eps=[0.1])
    [{'n': 10, 'eps': 0.1}, {'n': 20, 'eps': 0.1}]
    """
    if not parameter_values:
        return [{}]
    names = list(parameter_values)
    combinations = itertools.product(
        *(parameter_values[name] for name in names)
    )
    return [dict(zip(names, values)) for values in combinations]


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Mean / standard deviation / min / max of a batch of measurements."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("at least one value is required")
    return {
        "mean": float(array.mean()),
        "std": float(array.std(ddof=1)) if array.size > 1 else 0.0,
        "min": float(array.min()),
        "max": float(array.max()),
    }

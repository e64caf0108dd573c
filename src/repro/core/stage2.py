"""Stage 2 of the protocol: amplifying the bias via sample majorities.

Rule of Stage 2 (paper, Section 3.1.2).  During each phase of length ``2L``:

* every opinionated node pushes its current opinion in every round;
* every node maintains a uniform random sample ``S(u)`` of size ``L`` of the
  messages it receives during the phase (a size-``L`` reservoir);
* at the end of the phase, every node that received at least ``L`` messages
  switches its opinion to ``maj(S(u))`` — the most frequent opinion in the
  sample, ties broken uniformly at random.

Proposition 1 shows each such phase multiplies the bias toward the plurality
opinion by a constant factor > 1 (w.h.p.), so after ``T' + 1 = O(log n)``
phases every node supports the plurality opinion (Lemma 12).  Experiments E5
and E6 verify the per-phase amplification and the full trajectory.

Three executors run the rule, one per engine tier: :class:`Stage2Executor`
on one population, :class:`EnsembleStage2Executor` on an ``(R, n)`` batch
and :class:`CountsStage2Executor` on ``(A, k)`` counts.  Each phase is
reported as one :class:`~repro.core.schedule.PhaseRecord` (one row for the
sequential executor, one row per trial otherwise), with the phase's
re-voters as ``updated_nodes`` and ``L`` as ``sample_size``.  The bias
before a phase is the previous record's ``bias``; consensus at the end of
the run is the protocol result's ``successes``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import PhaseRecord, Stage2Schedule
from repro.core.state import EnsembleState, PopulationState
from repro.network.balls_bins import CountsDeliveryModel
from repro.network.delivery import (
    deliver_ensemble_phase,
    deliver_phase,
    supports_ensemble_delivery,
    supports_population_delivery,
)
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    normalize_ensemble_random_state,
)

__all__ = [
    "Stage2Executor",
    "EnsembleStage2Executor",
    "CountsStage2Executor",
]


class Stage2Executor:
    """Run Stage 2 of the protocol on a delivery engine.

    Parameters
    ----------
    engine:
        A delivery engine exposing ``run_phase_from_senders`` (anonymous,
        complete-graph processes O/B/P) or ``run_phase_from_population``
        (topology-aware engines).
    schedule:
        The Stage-2 phase schedule (phase lengths and sample sizes).
    random_state:
        Randomness for sampling and majority tie-breaks.
    sampling_method:
        ``"without_replacement"`` (faithful reservoir semantics, default) or
        ``"with_replacement"`` — exposed for the sampling ablation E13.
    use_full_multiset:
        When ``True``, nodes vote on their *entire* received multiset instead
        of a size-``L`` sample (the memory-unbounded variant, the other arm of
        ablation E13).
    """

    def __init__(
        self,
        engine,
        schedule: Stage2Schedule,
        random_state: RandomState = None,
        *,
        sampling_method: str = "without_replacement",
        use_full_multiset: bool = False,
    ) -> None:
        if not (
            hasattr(engine, "run_phase_from_senders")
            or supports_population_delivery(engine)
        ):
            raise TypeError(
                "engine must expose run_phase_from_senders or "
                "run_phase_from_population"
            )
        if sampling_method not in {"without_replacement", "with_replacement"}:
            raise ValueError(
                "sampling_method must be 'without_replacement' or "
                f"'with_replacement', got {sampling_method!r}"
            )
        self.engine = engine
        self.schedule = schedule
        self.sampling_method = sampling_method
        self.use_full_multiset = use_full_multiset
        self._rng = as_generator(random_state)

    def run(
        self,
        state: PopulationState,
        *,
        track_opinion: Optional[int] = None,
        stop_at_consensus: bool = False,
    ) -> Tuple[PopulationState, List[PhaseRecord]]:
        """Execute every Stage-2 phase, returning the final state and history.

        Parameters
        ----------
        state:
            Initial population state (not modified; a copy is evolved).
        track_opinion:
            The opinion whose bias is recorded (defaults to the current
            plurality opinion).
        stop_at_consensus:
            Stop early once every node supports ``track_opinion`` — useful
            for convergence-time measurements; the recorded history then
            covers only the executed phases.
        """
        current = state.copy()
        if track_opinion is None:
            plurality = current.plurality_opinion()
            track_opinion = plurality if plurality > 0 else None
        records: List[PhaseRecord] = []
        for phase_index, (num_rounds, sample_size) in enumerate(
            zip(self.schedule.phase_lengths, self.schedule.sample_sizes)
        ):
            record = self.run_phase(
                current,
                phase_index,
                num_rounds,
                sample_size,
                track_opinion=track_opinion,
            )
            records.append(record)
            if (
                stop_at_consensus
                and track_opinion is not None
                and current.has_consensus_on(track_opinion)
            ):
                break
        return current, records

    def run_phase(
        self,
        state: PopulationState,
        phase_index: int,
        num_rounds: int,
        sample_size: int,
        *,
        track_opinion: Optional[int] = None,
    ) -> PhaseRecord:
        """Execute a single Stage-2 phase, mutating ``state`` in place."""
        opinionated_before = state.opinionated_count()
        updated_nodes = messages_sent = 0
        if opinionated_before > 0:
            received = deliver_phase(self.engine, state.opinions, num_rounds)
            messages_sent = received.total_messages()
            votes = received.majority_votes(
                self._rng,
                sample_size=None if self.use_full_multiset else sample_size,
                sampling_method=self.sampling_method,
            )
            updaters = votes > 0
            state.opinions[updaters] = votes[updaters]
            updated_nodes = np.count_nonzero(updaters)
        return PhaseRecord.after_phase(
            phase_index,
            num_rounds,
            sample_size,
            counts=state.opinion_counts(),
            num_nodes=state.num_nodes,
            opinionated_before=opinionated_before,
            updated_nodes=updated_nodes,
            messages_sent=messages_sent,
            track_opinion=track_opinion,
        )


class EnsembleStage2Executor:
    """Run Stage 2 for ``R`` independent trials with batched phase delivery.

    Mirrors :class:`Stage2Executor` over an
    :class:`~repro.core.state.EnsembleState`: each phase delivers every
    trial's messages at once and applies the sample-majority rule to the
    whole ``(R, n)`` batch.  Unlike the sequential executor there is no
    per-trial early stopping — the batch always runs the full schedule (the
    default behaviour of the sequential executor too).

    Parameters
    ----------
    engine:
        A delivery engine exposing ``run_ensemble_phase_from_senders``.
    schedule:
        The Stage-2 phase schedule (lengths and sample sizes).
    random_state:
        One shared randomness source, or a sequence with one source per
        trial (then trial ``r`` consumes draws from its own generator only).
    sampling_method, use_full_multiset:
        As in :class:`Stage2Executor`.
    """

    def __init__(
        self,
        engine,
        schedule: Stage2Schedule,
        random_state: EnsembleRandomState = None,
        *,
        sampling_method: str = "without_replacement",
        use_full_multiset: bool = False,
    ) -> None:
        if not supports_ensemble_delivery(engine):
            raise TypeError(
                "engine must expose run_ensemble_phase_from_senders"
            )
        if sampling_method not in {"without_replacement", "with_replacement"}:
            raise ValueError(
                "sampling_method must be 'without_replacement' or "
                f"'with_replacement', got {sampling_method!r}"
            )
        self.engine = engine
        self.schedule = schedule
        self.sampling_method = sampling_method
        self.use_full_multiset = use_full_multiset
        self._random_state = normalize_ensemble_random_state(random_state)

    def run(
        self,
        state: EnsembleState,
        *,
        track_opinion: Optional[int] = None,
    ) -> Tuple[EnsembleState, List[PhaseRecord]]:
        """Execute every Stage-2 phase on a copy of ``state``."""
        current = state.copy()
        if track_opinion is None:
            pooled = current.pooled_plurality_opinion()
            track_opinion = pooled if pooled > 0 else None
        records: List[PhaseRecord] = []
        for phase_index, (num_rounds, sample_size) in enumerate(
            zip(self.schedule.phase_lengths, self.schedule.sample_sizes)
        ):
            record = self.run_phase(
                current,
                phase_index,
                num_rounds,
                sample_size,
                track_opinion=track_opinion,
            )
            records.append(record)
        return current, records

    def run_phase(
        self,
        state: EnsembleState,
        phase_index: int,
        num_rounds: int,
        sample_size: int,
        *,
        track_opinion: Optional[int] = None,
    ) -> PhaseRecord:
        """Execute a single batched Stage-2 phase, mutating ``state`` in place."""
        opinionated_before = state.opinionated_counts()
        received = deliver_ensemble_phase(
            self.engine, state.opinions, num_rounds, self._random_state
        )
        votes = received.majority_votes(
            self._random_state,
            sample_size=None if self.use_full_multiset else sample_size,
            sampling_method=self.sampling_method,
        )
        updaters = votes > 0
        state.opinions[updaters] = votes[updaters]
        return PhaseRecord.after_phase(
            phase_index,
            num_rounds,
            sample_size,
            counts=state.opinion_counts(),
            num_nodes=state.num_nodes,
            opinionated_before=opinionated_before,
            updated_nodes=np.count_nonzero(updaters, axis=1),
            messages_sent=received.total_messages(),
            track_opinion=track_opinion,
        )


# reprolint: counts-tier
class CountsStage2Executor:
    """Run Stage 2 on ``(A, k)`` sufficient statistics — never ``(R, n)``.

    The counts-engine executor.  Each phase re-colors the message histogram
    exactly (Claim 1) and summarizes the Poissonized delivery (Definition
    4) per node class:

    * a node re-votes iff it received at least ``L`` messages — probability
      ``P(Poisson(Lambda) >= L)``, so the number of re-voters per
      current-opinion group is one binomial draw per group;
    * by Poisson splitting, a re-voter's size-``L`` sample is ``L`` i.i.d.
      draws from the noisy histogram's color law *independent of its own
      opinion*, so the re-voters' ``maj()`` tallies are one multinomial
      over the exact vote law (or the bounded-chunk sampler when both
      tables are intractable — see
      :meth:`~repro.network.balls_bins.CountsDeliveryModel.sample_vote_counts`).

    :meth:`run_phase` advances every block of the delivery model through
    one phase at once; :func:`~repro.core.protocol.
    run_heterogeneous_counts_protocol` drives it through whole schedules.
    The executor implements only the faithful Stage-2 rule: the sampling
    ablations (``with_replacement``, ``use_full_multiset``) condition on
    per-node arrival totals and are served by the sequential and batched
    engines.

    Parameters
    ----------
    delivery:
        A :class:`~repro.network.balls_bins.CountsDeliveryModel`.
    random_state:
        One shared randomness source, or a sequence with one per row.
    """

    def __init__(
        self,
        delivery: CountsDeliveryModel,
        random_state: EnsembleRandomState = None,
    ) -> None:
        if not isinstance(delivery, CountsDeliveryModel):
            raise TypeError(
                "delivery must be a CountsDeliveryModel, got "
                f"{type(delivery).__name__}"
            )
        self.delivery = delivery
        self._random_state = normalize_ensemble_random_state(random_state)

    def run_phase(
        self,
        counts: np.ndarray,
        phases: Sequence[Tuple[int, int, int]],
        track_opinions: Sequence[Optional[int]],
    ) -> List[PhaseRecord]:
        """One Stage-2 phase for every block, updating ``counts`` in place.

        ``counts`` is the ``(A, k)`` matrix of the model's rows;
        ``phases[b]`` is block ``b``'s ``(phase_index, num_rounds,
        sample_size)`` and ``track_opinions[b]`` the opinion whose bias its
        record carries (``None``: no bias).  Returns one record per block.
        """
        delivery = self.delivery
        randomness = self._random_state
        sample_sizes = [sample_size for _, _, sample_size in phases]
        histograms = delivery.phase_histograms(
            counts, [num_rounds for _, num_rounds, _ in phases], randomness
        )
        noisy = delivery.recolor(histograms, randomness)
        update_probability = delivery.update_probability(noisy, sample_sizes)
        undecided = delivery.num_nodes - counts.sum(axis=1, dtype=np.int64)
        group_sizes = np.concatenate([undecided[:, np.newaxis], counts], axis=1)
        updaters = delivery.sample_updaters(
            group_sizes, update_probability, randomness
        )
        votes = delivery.sample_vote_counts(
            noisy,
            updaters.sum(axis=1, dtype=np.int64),
            sample_sizes,
            randomness,
        )
        new_counts = counts + votes - updaters[:, 1:]
        records = [
            PhaseRecord.after_phase(
                *phases[block],
                counts=new_counts[sl],
                num_nodes=delivery.block_num_nodes[block],
                opinionated_before=counts[sl].sum(axis=1, dtype=np.int64),
                updated_nodes=updaters[sl].sum(axis=1, dtype=np.int64),
                messages_sent=histograms[sl].sum(axis=1, dtype=np.int64),
                track_opinion=track_opinions[block],
            )
            for block, sl in enumerate(delivery.block_slices)
        ]
        counts[...] = new_counts
        return records

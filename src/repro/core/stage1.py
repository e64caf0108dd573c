"""Stage 1 of the protocol: spreading the rumor while preserving the bias.

Rule of Stage 1 (paper, Section 3.1.1).  During each phase:

* every node that already supports an opinion at the beginning of the phase
  pushes that opinion in every round of the phase (opinionated nodes never
  change opinion during Stage 1);
* every undecided node that receives at least one opinion during the phase
  adopts, at the end of the phase, one of the received opinions chosen
  uniformly at random counting multiplicities (realizable with a capacity-1
  reservoir, so no unbounded memory is needed);
* undecided nodes never push.

Lemma 4 states that after Stage 1 all nodes are opinionated w.h.p. and the
opinion distribution is ``Omega(sqrt(log n / n))``-biased toward the correct
opinion; experiments E3 and E4 verify this and the per-phase growth claims.

Three executors run the rule, one per engine tier: :class:`Stage1Executor`
on one population, :class:`EnsembleStage1Executor` on an ``(R, n)`` batch
and :class:`CountsStage1Executor` on ``(A, k)`` counts.  Each phase is
reported as one :class:`~repro.core.schedule.PhaseRecord` (one row for the
sequential executor, one row per trial otherwise), with the phase's adopters
``|S_j|`` as ``updated_nodes`` and ``sample_size=None``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import PhaseRecord, Stage1Schedule
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
    "Stage1Executor",
    "EnsembleStage1Executor",
    "CountsStage1Executor",
]


class Stage1Executor:
    """Run Stage 1 of the protocol on a delivery engine.

    Parameters
    ----------
    engine:
        A delivery engine — normally the :class:`~repro.network.push_model.
        UniformPushModel` (process O), but the balls-into-bins and Poissonized
        engines (the E8 experiment runs the protocol under all three) and the
        topology-aware :class:`~repro.network.topology.GraphPushModel` are
        accepted too.  The engine must expose either
        ``run_phase_from_senders`` or ``run_phase_from_population``.
    schedule:
        The Stage-1 phase schedule.
    random_state:
        Randomness used for the end-of-phase uniform opinion adoption.
    """

    def __init__(
        self,
        engine,
        schedule: Stage1Schedule,
        random_state: RandomState = None,
    ) -> None:
        if not (
            hasattr(engine, "run_phase_from_senders")
            or supports_population_delivery(engine)
        ):
            raise TypeError(
                "engine must expose run_phase_from_senders or "
                "run_phase_from_population"
            )
        self.engine = engine
        self.schedule = schedule
        self._rng = as_generator(random_state)

    def run(
        self,
        state: PopulationState,
        *,
        track_opinion: Optional[int] = None,
    ) -> Tuple[PopulationState, List[PhaseRecord]]:
        """Execute every Stage-1 phase, returning the final state and history.

        Parameters
        ----------
        state:
            Initial population state; it is not modified (a copy is evolved).
        track_opinion:
            The opinion ``m`` whose bias is recorded per phase (defaults to
            the initial plurality opinion, if any).

        Returns
        -------
        (final_state, records):
            The population state after the last phase and one one-row
            :class:`~repro.core.schedule.PhaseRecord` per phase.
        """
        current = state.copy()
        if track_opinion is None:
            plurality = current.plurality_opinion()
            track_opinion = plurality if plurality > 0 else None
        records: List[PhaseRecord] = []
        for phase_index, num_rounds in enumerate(self.schedule.phase_lengths):
            record = self.run_phase(
                current, phase_index, num_rounds, track_opinion=track_opinion
            )
            records.append(record)
        return current, records

    def run_phase(
        self,
        state: PopulationState,
        phase_index: int,
        num_rounds: int,
        *,
        track_opinion: Optional[int] = None,
    ) -> PhaseRecord:
        """Execute a single Stage-1 phase, mutating ``state`` in place."""
        opinionated_before = state.opinionated_count()
        updated_nodes = messages_sent = 0
        if opinionated_before > 0:
            received = deliver_phase(self.engine, state.opinions, num_rounds)
            # Only undecided nodes act on what they received; each adopts one
            # received opinion u.a.r. (counting multiplicities) at phase end.
            adopted = received.uniform_opinion_choice(self._rng)
            undecided = ~state.opinionated_mask()
            adopters = undecided & (adopted > 0)
            state.opinions[adopters] = adopted[adopters]
            updated_nodes = np.count_nonzero(adopters)
            messages_sent = received.total_messages()
        return PhaseRecord.after_phase(
            phase_index,
            num_rounds,
            None,
            counts=state.opinion_counts(),
            num_nodes=state.num_nodes,
            opinionated_before=opinionated_before,
            updated_nodes=updated_nodes,
            messages_sent=messages_sent,
            track_opinion=track_opinion,
        )


class EnsembleStage1Executor:
    """Run Stage 1 for ``R`` independent trials with batched phase delivery.

    The executor mirrors :class:`Stage1Executor` but evolves an
    :class:`~repro.core.state.EnsembleState`: every phase delivers all
    trials' messages through the engine's batched entry point and applies
    the end-of-phase adoption rule to the whole ``(R, n)`` batch at once.
    Trials never interact — a trial's evolution depends only on its own row
    and (in per-trial randomness mode) its own generator, which is what the
    batched-equals-sequential equivalence tests rely on.

    Parameters
    ----------
    engine:
        A delivery engine exposing ``run_ensemble_phase_from_senders``
        (processes O, B and P all do).
    schedule:
        The Stage-1 phase schedule, shared by every trial.
    random_state:
        One shared randomness source, or a sequence with one source per
        trial (then trial ``r`` consumes draws from its own generator only).
    """

    def __init__(
        self,
        engine,
        schedule: Stage1Schedule,
        random_state: EnsembleRandomState = None,
    ) -> None:
        if not supports_ensemble_delivery(engine):
            raise TypeError(
                "engine must expose run_ensemble_phase_from_senders"
            )
        self.engine = engine
        self.schedule = schedule
        self._random_state = normalize_ensemble_random_state(random_state)

    def run(
        self,
        state: EnsembleState,
        *,
        track_opinion: Optional[int] = None,
    ) -> Tuple[EnsembleState, List[PhaseRecord]]:
        """Execute every Stage-1 phase on a copy of ``state``.

        ``track_opinion`` defaults to the plurality opinion of the pooled
        initial counts (summed over trials), matching the single-trial
        executor on homogeneous ensembles.
        """
        current = state.copy()
        if track_opinion is None:
            pooled = current.pooled_plurality_opinion()
            track_opinion = pooled if pooled > 0 else None
        records: List[PhaseRecord] = []
        for phase_index, num_rounds in enumerate(self.schedule.phase_lengths):
            record = self.run_phase(
                current, phase_index, num_rounds, track_opinion=track_opinion
            )
            records.append(record)
        return current, records

    def run_phase(
        self,
        state: EnsembleState,
        phase_index: int,
        num_rounds: int,
        *,
        track_opinion: Optional[int] = None,
    ) -> PhaseRecord:
        """Execute a single batched Stage-1 phase, mutating ``state`` in place."""
        opinionated_before = state.opinionated_counts()
        received = deliver_ensemble_phase(
            self.engine, state.opinions, num_rounds, self._random_state
        )
        # Only undecided nodes act on what they received; each adopts one
        # received opinion u.a.r. (counting multiplicities) at phase end.
        adopted = received.uniform_opinion_choice(self._random_state)
        undecided = ~state.opinionated_mask()
        adopters = undecided & (adopted > 0)
        state.opinions[adopters] = adopted[adopters]
        return PhaseRecord.after_phase(
            phase_index,
            num_rounds,
            None,
            counts=state.opinion_counts(),
            num_nodes=state.num_nodes,
            opinionated_before=opinionated_before,
            updated_nodes=np.count_nonzero(adopters, axis=1),
            messages_sent=received.total_messages(),
            track_opinion=track_opinion,
        )


# reprolint: counts-tier
class CountsStage1Executor:
    """Run Stage 1 on ``(A, k)`` sufficient statistics — never ``(R, n)``.

    The counts-engine executor: each phase reduces to its message histogram
    (``num_rounds`` balls per opinionated node, Claim 1), applies the noise
    re-coloring *exactly* (one multinomial per color), and draws the
    end-of-phase adoptions of the undecided nodes from the closed-form
    per-node outcome law of the Poissonized throw (Definition 4) — one
    multinomial per trial.  Per-phase cost is ``O(k^2)`` per trial,
    independent of ``n``; see
    :class:`~repro.network.balls_bins.CountsDeliveryModel` for the
    exactness discussion.

    :meth:`run_phase` advances every block of the delivery model through
    one phase at once (a fused sweep's grid points, or the single block of
    one run); :func:`~repro.core.protocol.run_heterogeneous_counts_protocol`
    drives it through whole schedules.

    Parameters
    ----------
    delivery:
        A :class:`~repro.network.balls_bins.CountsDeliveryModel`.
    random_state:
        One shared randomness source, or a sequence with one source per
        row (row ``r`` then consumes draws from its own source only).
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
        phases: Sequence[Tuple[int, int]],
        track_opinions: Sequence[Optional[int]],
    ) -> List[PhaseRecord]:
        """One Stage-1 phase for every block, updating ``counts`` in place.

        ``counts`` is the ``(A, k)`` matrix of the model's rows;
        ``phases[b]`` is block ``b``'s ``(phase_index, num_rounds)`` and
        ``track_opinions[b]`` the opinion whose bias its record carries
        (``None``: no bias).  Returns one record per block.
        """
        delivery = self.delivery
        randomness = self._random_state
        histograms = delivery.phase_histograms(
            counts, [num_rounds for _, num_rounds in phases], randomness
        )
        noisy = delivery.recolor(histograms, randomness)
        undecided = delivery.num_nodes - counts.sum(axis=1, dtype=np.int64)
        adopted = delivery.sample_adoptions(noisy, undecided, randomness)
        new_counts = counts + adopted[:, 1:]
        records = [
            PhaseRecord.after_phase(
                *phases[block],
                None,
                counts=new_counts[sl],
                num_nodes=delivery.block_num_nodes[block],
                opinionated_before=counts[sl].sum(axis=1, dtype=np.int64),
                updated_nodes=adopted[sl, 1:].sum(axis=1, dtype=np.int64),
                messages_sent=histograms[sl].sum(axis=1, dtype=np.int64),
                track_opinion=track_opinions[block],
            )
            for block, sl in enumerate(delivery.block_slices)
        ]
        counts[...] = new_counts
        return records

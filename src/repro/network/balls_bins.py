"""Process B: the balls-into-bins reformulation (Definition 3).

For a fixed phase, view the messages sent during the phase as colored balls
(one color per opinion) and the nodes as bins.  The process has two steps:

1. each ball of color ``i`` is independently re-colored ``j`` with
   probability ``p_ij`` (the noise acting on the message);
2. every ball is thrown into a bin chosen uniformly at random.

Claim 1 of the paper states that the end-of-phase state of the protocol under
the real push model (process O) has exactly the same distribution as if the
messages had been delivered by this process.  The engine below implements the
process directly from the phase's message histogram so that experiment E8 can
compare the two empirically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.network.pull_model import (
    dense_majority_vote_law,
    majority_vote_law,
    resolve_vote_path,
)
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
    is_generator_sequence,
)
from repro.utils.validation import require_positive_int

__all__ = [
    "BallsIntoBinsProcess",
    "ensemble_recolor_and_throw",
    "CountsDeliveryModel",
    "poisson_tail_probability",
]


# reprolint: counts-tier
@lru_cache(maxsize=64)
def _poisson_tail_tables(threshold: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``(indices, log_factorial)`` work arrays of the Poisson tail.

    The tail is evaluated once per phase per threshold, and the same
    thresholds recur across phases, trials, sweep points and repeated engine
    construction — hoisting the ``O(L)`` cumulative-log table out of
    :func:`poisson_tail_probability` makes the per-call cost proportional to
    the batch size only.  The arrays are read-only views shared by every
    caller.
    """
    indices = np.arange(threshold, dtype=float)
    log_factorial = np.zeros(threshold)
    if threshold > 1:
        log_factorial[1:] = np.cumsum(np.log(np.arange(1, threshold)))
    indices.setflags(write=False)
    log_factorial.setflags(write=False)
    return indices, log_factorial


# reprolint: counts-tier
def poisson_tail_probability(threshold: int, lam: np.ndarray) -> np.ndarray:
    """``P(Poisson(lam) >= threshold)``, vectorized over ``lam``.

    Computed in log space (no scipy dependency) so that phase intensities in
    the hundreds — the Stage-2 final phase has ``Lambda ~ 2 L' ~ log n /
    eps^2`` — neither underflow ``exp(-Lambda)`` nor lose the tail.  Exact
    up to float64 rounding.
    """
    lam = np.asarray(lam, dtype=float)
    if threshold <= 0:
        return np.ones(lam.shape)
    indices, log_factorial = _poisson_tail_tables(threshold)
    positive = lam > 0
    all_positive = lam.ndim > 0 and bool(positive.all())
    if not all_positive and not positive.any():
        return np.zeros(lam.shape)
    lam_pos = lam if all_positive else lam[positive]
    log_terms = (
        -lam_pos[:, np.newaxis]
        + indices[np.newaxis, :] * np.log(lam_pos)[:, np.newaxis]
        - log_factorial[np.newaxis, :]
    )
    top = log_terms.max(axis=1)
    cdf = np.exp(top) * np.exp(
        log_terms - top[:, np.newaxis]
    ).sum(axis=1)
    if all_positive:
        return np.clip(1.0 - cdf, 0.0, 1.0)
    tail = np.zeros(lam.shape)
    tail[positive] = np.clip(1.0 - cdf, 0.0, 1.0)
    return tail


# reprolint: counts-tier
class CountsDeliveryModel:
    """Counts-native phase delivery: Claim-1 recoloring + Poissonized bins.

    The counts engine's substitute for a per-node delivery engine.  A phase
    is reduced to its message histogram (Claim 1's balls-into-bins
    reformulation, Definition 3): step 1 — every ball is re-colored through
    the noise matrix — is sampled *exactly* with one multinomial per color
    (:meth:`recolor`).  Step 2 — throwing the balls into the bins — is
    summarized under the Poissonized process P (Definition 4, the paper's
    own analysis device): every node independently receives
    ``Poisson(h_i / n)`` copies of opinion ``i``, which makes the per-node
    outcomes i.i.d. and therefore reducible to ``O(k)`` closed-form
    probabilities per trial:

    * Stage-1 adoption (:meth:`adoption_probabilities`): by Poisson
      splitting, a node that received at least one ball adopts color ``j``
      with probability ``h_j / B`` independent of how many balls arrived,
      so the per-node outcome law over {stay undecided, adopt 1, …, adopt
      k} is ``(e^-Lambda, (1 - e^-Lambda) h / B)`` with
      ``Lambda = B / n``.
    * Stage-2 eligibility (:meth:`update_probability`): a node re-votes iff
      it received at least ``L`` messages, an event of probability
      ``P(Poisson(Lambda) >= L)``.
    * Stage-2 votes (:meth:`sample_vote_counts`): a size-``L`` uniform
      subsample of i.i.d.-colored arrivals is ``L`` i.i.d. draws from
      ``h / B`` — exactly the observation law the ``maj()`` vote law
      consumes.

    Lemma 2 bounds the distance between process P and the real push process
    O, so protocol runs under this model agree with the per-node engines
    statistically (checked by the engine-agreement test-suite).

    The rows of one ``(A, k)`` histogram matrix belong to contiguous
    *blocks* — one block for a single run, one per grid point for a fused
    sweep — each with its own population size, noise channel, Stage-2
    sample size and optional fault sampler.  Merged evaluation is used only
    for operations whose floating-point result is row-stable (elementwise
    arithmetic and per-row reductions); the ``maj()`` vote law (a wide
    matmul whose summation tree depends on the batch shape) is evaluated
    per block at the block's own row count, and every random draw of a row
    comes from that row's own stream.  A block's rows therefore get exactly
    the values and draws a one-block model would give them, which is what
    makes fused sweeps bitwise identical to a serial loop.

    Parameters
    ----------
    block_sizes:
        Rows per block, in row order.
    num_nodes:
        One population size per block: the (honest) nodes whose counts the
        rows hold.
    noises:
        One :class:`~repro.noise.matrix.NoiseMatrix` per block; all blocks
        must share the number of opinions ``k``.
    samplers:
        Optional, one :class:`~repro.faults.injection.FaultedPhaseSampler`
        or ``None`` per block.  A sampled block's faulty balls join its
        phase histograms before recoloring and are thrown into
        ``num_nodes + sampler.num_faulty`` bins, while the rows keep
        counting honest nodes only.  Only oblivious adversaries qualify:
        the adaptive family conditions on per-node information the counts
        reduction has discarded.
    """

    #: Bounded chunk size of the per-voter fallback sampler: keeps every
    #: intermediate array ``O(chunk * k)`` regardless of how many of the
    #: ``n`` nodes re-vote in a phase.
    VOTE_CHUNK = 32_768

    def __init__(
        self,
        block_sizes: Sequence[int],
        num_nodes: Sequence[int],
        noises: Sequence[NoiseMatrix],
        samplers: Optional[Sequence] = None,
    ) -> None:
        if not noises:
            raise ValueError("at least one block is required")
        if samplers is None:
            samplers = [None] * len(noises)
        if not len(block_sizes) == len(num_nodes) == len(noises) == len(samplers):
            raise ValueError(
                "block_sizes, num_nodes, noises and samplers must have equal "
                "length"
            )
        for noise in noises:
            if not isinstance(noise, NoiseMatrix):
                raise TypeError(
                    f"noise must be a NoiseMatrix, got {type(noise).__name__}"
                )
        for sampler in samplers:
            if sampler is not None and not sampler.model.is_oblivious:
                raise ValueError(
                    "the counts tier is only exact for oblivious adversaries "
                    f"(crash/omission/liar), got kind={sampler.model.kind!r}; "
                    "use the batched tier (or allow_degradation=True)"
                )
        self.num_opinions = noises[0].num_opinions
        if any(noise.num_opinions != self.num_opinions for noise in noises):
            raise ValueError(
                "every block must have the same number of opinions"
            )
        self.block_sizes = [
            require_positive_int(size, "block_sizes") for size in block_sizes
        ]
        bounds = np.cumsum([0] + self.block_sizes).tolist()
        self.block_slices = [
            slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        self.block_num_nodes = [
            require_positive_int(n, "num_nodes") for n in num_nodes
        ]
        self.noises = list(noises)
        self.samplers = list(samplers)
        self.num_rows = bounds[-1]
        #: Per-row population size (the rows' own nodes), shape ``(A,)``.
        self.num_nodes = self._per_row(self.block_num_nodes)
        #: Per-row bin count ``Lambda = B / bins`` divides by, shape ``(A,)``.
        self.num_bins = self._per_row(
            [
                n + (0 if sampler is None else sampler.num_faulty)
                for n, sampler in zip(self.block_num_nodes, self.samplers)
            ]
        )

    def _per_row(self, block_values: Sequence[int]) -> np.ndarray:
        """Expand one integer per block to one per row, shape ``(A,)``."""
        return np.repeat(
            np.asarray(block_values, dtype=np.int64), self.block_sizes
        )

    def _validate_histograms(self, histograms: np.ndarray) -> np.ndarray:
        array = np.asarray(histograms, dtype=np.int64)
        if array.shape != (self.num_rows, self.num_opinions):
            raise ValueError(
                f"histograms must have shape ({self.num_rows}, "
                f"{self.num_opinions}), got shape {array.shape}"
            )
        if array.size and array.min() < 0:
            raise ValueError("histogram entries must be non-negative")
        return array

    def _block_randomness(self, generators, block: int):
        """Block ``block``'s streams: its rows' generators, or the shared one."""
        if is_generator_sequence(generators):
            sl = self.block_slices[block]
            return generators[sl.start : sl.stop]
        return generators

    def phase_histograms(
        self,
        counts: np.ndarray,
        num_rounds: Sequence[int],
        generators,
    ) -> np.ndarray:
        """The phase's message histograms from the senders' opinion counts.

        Every opinionated node pushes once per round, so a block's rows
        carry ``counts * num_rounds[block]`` honest balls; a block with a
        fault sampler adds that phase's faulty ball deltas, drawn from the
        block's own streams before any recoloring draw.
        """
        histograms = counts * self._per_row(num_rounds)[:, np.newaxis]
        for block, sampler in enumerate(self.samplers):
            if sampler is not None:
                sl = self.block_slices[block]
                histograms[sl] += sampler.phase_ball_deltas(
                    counts[sl],
                    num_rounds[block],
                    self._block_randomness(generators, block),
                )
        return histograms

    def recolor(self, histograms: np.ndarray, generators) -> np.ndarray:
        """Step 1 of Definition 3: exact per-row noise re-coloring.

        ``generators`` is either one source per row (per-trial mode: row
        ``r`` consumes exactly the draws
        :meth:`~repro.noise.matrix.NoiseMatrix.apply_to_counts` would make)
        or a single shared stream (batched mode: one column-wise
        multinomial per source opinion across every block — far fewer
        generator calls, different draw order).  The histograms are
        validated here, once per phase; the samplers downstream reuse the
        validated arrays.
        """
        histograms = self._validate_histograms(histograms)
        if is_generator_sequence(generators):
            noisy = np.empty_like(histograms)
            for block, sl in enumerate(self.block_slices):
                noisy[sl] = self.noises[block].recolor_rows(
                    histograms[sl], generators[sl.start : sl.stop]
                )
            return noisy
        rng = as_generator(generators)
        noisy = np.zeros_like(histograms)
        stacked = self._stacked_noise_rows()
        for source in range(self.num_opinions):
            column = histograms[:, source]
            if column.any():
                noisy += rng.multinomial(column, stacked[source])
        return noisy

    def _stacked_noise_rows(self) -> np.ndarray:
        """Per-source per-row channel laws, shape ``(k, A, k)``.

        ``stacked[s, r]`` is row ``s`` of the noise matrix governing row
        ``r`` — the pvals layout that lets shared-stream recoloring draw one
        batched multinomial per *source opinion* across every block at
        once.  Built once per model.
        """
        cached = self.__dict__.get("_stacked_noise_rows_cache")
        if cached is None:
            k = self.num_opinions
            cached = np.empty((k, self.num_rows, k))
            for block, sl in enumerate(self.block_slices):
                cached[:, sl, :] = self.noises[block].matrix[
                    :, np.newaxis, :
                ]
            self.__dict__["_stacked_noise_rows_cache"] = cached
        return cached

    def adoption_probabilities(self, noisy: np.ndarray) -> np.ndarray:
        """Per-undecided-node Stage-1 outcome law, shape ``(A, k + 1)``.

        Column 0 is "received nothing, stay undecided"; columns ``1..k``
        are the adoption probabilities of each opinion.
        """
        totals = noisy.sum(axis=1, dtype=np.int64)
        lam = totals / self.num_bins
        none_mass = np.exp(-lam)
        shares = np.divide(
            noisy,
            totals[:, np.newaxis],
            out=np.zeros(noisy.shape, dtype=float),
            where=totals[:, np.newaxis] > 0,
        )
        probabilities = (1.0 - none_mass)[:, np.newaxis] * shares
        return np.concatenate(
            [none_mass[:, np.newaxis], probabilities], axis=1
        )

    def sample_adoptions(
        self,
        noisy: np.ndarray,
        undecided_counts: np.ndarray,
        generators,
    ) -> np.ndarray:
        """Stage-1 end-of-phase adoptions, shape ``(A, k + 1)`` int64.

        Entry ``(r, 0)`` is the number of row-``r`` undecided nodes that
        received nothing and stay undecided; entry ``(r, j)`` the number
        adopting opinion ``j`` — one multinomial per row from its own
        stream (per-trial mode) or one batched multinomial (shared stream).
        """
        undecided = np.asarray(undecided_counts, dtype=np.int64)
        probabilities = self.adoption_probabilities(noisy)
        if not is_generator_sequence(generators):
            rng = as_generator(generators)
            return rng.multinomial(undecided, probabilities).astype(
                np.int64, copy=False
            )
        adopted = np.empty(
            (self.num_rows, self.num_opinions + 1), dtype=np.int64
        )
        undecided_list = undecided.tolist()
        for row in range(self.num_rows):
            adopted[row] = generators[row].multinomial(
                undecided_list[row], probabilities[row]
            )
        return adopted

    def update_probability(
        self, noisy: np.ndarray, sample_sizes: Sequence[int]
    ) -> np.ndarray:
        """Per-row probability of receiving at least ``L`` messages.

        ``sample_sizes`` holds one ``L`` per block; rows sharing a threshold
        are evaluated in one merged (row-stable) tail call.
        """
        thresholds = self._per_row(sample_sizes)
        totals = noisy.sum(axis=1, dtype=np.int64)
        lam = totals / self.num_bins
        tail = np.empty(self.num_rows, dtype=float)
        for threshold in np.unique(thresholds):
            mask = thresholds == threshold
            tail[mask] = poisson_tail_probability(int(threshold), lam[mask])
        return tail

    def sample_updaters(
        self,
        group_sizes: np.ndarray,
        update_probability: np.ndarray,
        generators,
    ) -> np.ndarray:
        """Stage-2 re-voters per current-opinion group, shape ``(A, k + 1)``.

        One binomial per group: row ``r`` consumes exactly ``k + 1``
        binomial draws from its own stream (per-trial mode), or one
        batched binomial covers the whole matrix (shared stream).
        """
        if not is_generator_sequence(generators):
            rng = as_generator(generators)
            return rng.binomial(
                group_sizes, update_probability[:, np.newaxis]
            ).astype(np.int64, copy=False)
        updaters = np.empty(group_sizes.shape, dtype=np.int64)
        sizes = group_sizes.tolist()
        probability_list = update_probability.tolist()
        for row in range(updaters.shape[0]):
            updaters[row] = generators[row].binomial(
                sizes[row], probability_list[row]
            )
        return updaters

    def vote_probabilities(self, noisy: np.ndarray) -> np.ndarray:
        """The i.i.d. color law of a re-voting node's sample, shape ``(A, k)``.

        Rows with an empty histogram come back all-zero (no node can be
        eligible there, so the law is never used).
        """
        totals = noisy.sum(axis=1, keepdims=True, dtype=np.int64)
        return np.divide(
            noisy,
            totals,
            out=np.zeros(noisy.shape, dtype=float),
            where=totals > 0,
        )

    def sample_vote_counts(
        self,
        noisy: np.ndarray,
        num_voters: np.ndarray,
        sample_sizes: Sequence[int],
        generators,
    ) -> np.ndarray:
        """Per-row tallies of ``num_voters`` i.i.d. ``maj()`` votes.

        Each eligible node's vote is ``maj()`` of ``L`` i.i.d. draws from
        its row's :meth:`vote_probabilities` law (the exact Stage-2 sample
        law under Poissonization), with ``L = sample_sizes[block]``.  The
        sampler is chosen per block by
        :func:`~repro.network.pull_model.resolve_vote_path`:

        * ``"table"`` — the closed-form vote law, evaluated at the block's
          own row shape; one multinomial per row;
        * ``"dense"`` — the dense large-sample vote law (exact, evaluated
          row by row in log space over opinionated compositions only); one
          multinomial per row, so the phase cost is independent of
          ``num_voters``.  It is the *same distribution* as the chunk
          sampler but consumes different raw draws — see
          ``docs/performance.md``;
        * ``"chunk"`` — bounded chunks of :data:`VOTE_CHUNK` per-voter
          compositions (``O(num_voters)`` work but never an ``n``-sized
          array), for ``(L, k)`` beyond both table budgets.

        Returns an ``(A, k)`` int64 matrix.
        """
        voters = np.asarray(num_voters, dtype=np.int64)
        per_trial = is_generator_sequence(generators)
        vote_law_probabilities = self.vote_probabilities(noisy)
        observation_law = np.concatenate(
            [np.zeros((self.num_rows, 1)), vote_law_probabilities], axis=1
        )
        votes = np.empty((self.num_rows, self.num_opinions), dtype=np.int64)
        law = np.zeros((self.num_rows, self.num_opinions + 1), dtype=float)
        dense_pmf = np.empty((self.num_rows, self.num_opinions), dtype=float)
        tractable_rows = np.zeros(self.num_rows, dtype=bool)
        dense_rows = np.zeros(self.num_rows, dtype=bool)
        for block, sl in enumerate(self.block_slices):
            sample_size = int(sample_sizes[block])
            vote_path = resolve_vote_path(sample_size, self.num_opinions)
            if vote_path == "table":
                law[sl] = majority_vote_law(observation_law[sl], sample_size)
                tractable_rows[sl] = True
            elif vote_path == "dense":
                dense_pmf[sl] = dense_majority_vote_law(
                    vote_law_probabilities[sl], sample_size
                )
                dense_rows[sl] = True
            else:
                votes[sl] = self._chunk_vote_counts(
                    vote_law_probabilities[sl],
                    voters[sl],
                    sample_size,
                    self._block_randomness(generators, block),
                )
        law_rows = tractable_rows | dense_rows
        if law_rows.any():
            # Renormalize away the rounding dust; the no-vote column is
            # exactly zero because every sampled message carries an opinion.
            vote_pmf = np.clip(law, 0.0, 1.0)[:, 1:]
            row_sums = vote_pmf.sum(axis=1, keepdims=True)
            vote_pmf = np.divide(
                vote_pmf,
                row_sums,
                out=np.full(vote_pmf.shape, 1.0 / self.num_opinions),
                where=row_sums > 0,
            )
            if dense_rows.any():
                vote_pmf[dense_rows] = dense_pmf[dense_rows]
            if per_trial:
                voters_list = voters.tolist()
                for row in np.nonzero(law_rows)[0]:
                    votes[row] = generators[row].multinomial(
                        voters_list[row], vote_pmf[row]
                    )
            else:
                votes[law_rows] = as_generator(generators).multinomial(
                    voters[law_rows], vote_pmf[law_rows]
                )
        return votes

    def _chunk_vote_counts(
        self,
        vote_law_probabilities: np.ndarray,
        voters: np.ndarray,
        sample_size: int,
        generators,
    ) -> np.ndarray:
        """The bounded-chunk per-voter vote sampler of one block.

        Enumerates each voter's sample composition directly (a ``k``-cell
        multinomial) and tallies the argmax with uniform tie-break keys —
        distribution-identical to the closed form, with every array bounded
        by :data:`VOTE_CHUNK`.  Per chunk the compositions are drawn before
        the tie-break keys; a zero-voter row draws nothing.
        """
        num_rows, num_opinions = vote_law_probabilities.shape
        if not is_generator_sequence(generators):
            generators = [as_generator(generators)] * num_rows
        votes = np.zeros((num_rows, num_opinions), dtype=np.int64)
        for row, generator in enumerate(generators):
            remaining = int(voters[row])
            if remaining == 0:
                continue
            pvals = vote_law_probabilities[row]
            if pvals.sum() <= 0:
                raise ValueError(
                    "cannot sample votes from an empty message histogram"
                )
            while remaining > 0:
                chunk = min(remaining, self.VOTE_CHUNK)
                compositions = generator.multinomial(
                    sample_size, pvals, size=chunk
                )
                tie_keys = generator.random(compositions.shape)
                winners = (compositions + tie_keys).argmax(axis=1)
                votes[row] += np.bincount(
                    winners, minlength=num_opinions
                ).astype(np.int64, copy=False)
                remaining -= chunk
        return votes


def ensemble_recolor_and_throw(
    num_nodes: int,
    noise: NoiseMatrix,
    message_histograms: np.ndarray,
    random_state: EnsembleRandomState = None,
) -> EnsembleReceivedMessages:
    """Run the two-step process of Definition 3 for ``R`` trials at once.

    ``message_histograms`` has shape ``(R, k)``: row ``r`` is trial ``r``'s
    phase message multiset ``M_j``.  Step 1 re-colors every ball through the
    noise matrix; step 2 throws every ball into a uniform bin, realized as a
    multinomial over the ``n`` bins (``O(n)`` per trial and color, however
    many balls are in flight).  This sampler also backs the batched push
    engine: by Claim 1 the end-of-phase counts of process O are distributed
    exactly as this process's output.

    ``random_state`` may be one shared source (two broadcast draws per
    opinion for the whole batch) or a per-trial sequence (trial ``r``'s balls
    consume only trial ``r``'s generator).
    """
    histograms = np.asarray(message_histograms, dtype=np.int64)
    if histograms.ndim != 2 or histograms.shape[1] != noise.num_opinions:
        raise ValueError(
            f"message_histograms must have shape (R, {noise.num_opinions}), "
            f"got shape {histograms.shape}"
        )
    if np.any(histograms < 0):
        raise ValueError("message_histogram entries must be non-negative")
    num_trials = histograms.shape[0]
    num_opinions = noise.num_opinions
    bins = np.full(num_nodes, 1.0 / num_nodes)
    counts = np.zeros((num_trials, num_nodes, num_opinions), dtype=np.int64)
    if is_generator_sequence(random_state):
        generators = as_trial_generators(random_state, num_trials)
        for trial, generator in enumerate(generators):
            noisy = noise.apply_to_counts(histograms[trial], generator)
            for opinion_index in np.nonzero(noisy)[0]:
                counts[trial, :, opinion_index] = generator.multinomial(
                    int(noisy[opinion_index]), bins
                )
    else:
        rng = as_generator(random_state)
        noisy = noise.apply_to_count_matrix(histograms, rng)
        for opinion_index in range(num_opinions):
            column = noisy[:, opinion_index]
            if column.any():
                counts[:, :, opinion_index] = rng.multinomial(column, bins)
    return EnsembleReceivedMessages(counts)


class BallsIntoBinsProcess:
    """The two-step balls-into-bins process of Definition 3.

    Parameters
    ----------
    num_nodes:
        Number of bins ``n`` (= number of nodes).
    noise:
        The noise matrix used for the re-coloring step.
    random_state:
        Randomness for re-coloring and throwing.
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: RandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise
        self._rng = as_generator(random_state)

    @property
    def num_opinions(self) -> int:
        """Number of ball colors ``k``."""
        return self.noise.num_opinions

    def _validate_histogram(self, message_histogram: Sequence[int]) -> np.ndarray:
        histogram = np.asarray(message_histogram, dtype=np.int64)
        if histogram.shape != (self.num_opinions,):
            raise ValueError(
                f"message_histogram must have length {self.num_opinions}, "
                f"got shape {histogram.shape}"
            )
        if np.any(histogram < 0):
            raise ValueError("message_histogram entries must be non-negative")
        return histogram

    def recolor(self, message_histogram: Sequence[int]) -> np.ndarray:
        """Step 1: apply the noise to every ball independently.

        Returns the post-noise histogram ``h`` (the paper's ``N_j`` counts).
        """
        histogram = self._validate_histogram(message_histogram)
        return self.noise.apply_to_counts(histogram, self._rng)

    def throw(self, noisy_histogram: Sequence[int]) -> ReceivedMessages:
        """Step 2: throw every (already re-colored) ball into a uniform bin."""
        histogram = self._validate_histogram(noisy_histogram)
        counts = np.zeros((self.num_nodes, self.num_opinions), dtype=np.int64)
        for opinion_index in np.nonzero(histogram)[0]:
            targets = self._rng.integers(
                0, self.num_nodes, size=int(histogram[opinion_index])
            )
            counts[:, opinion_index] += np.bincount(
                targets, minlength=self.num_nodes
            )
        return ReceivedMessages(counts)

    def run_phase(self, message_histogram: Sequence[int]) -> ReceivedMessages:
        """Run both steps for a phase described by its message histogram.

        ``message_histogram[i]`` is the number of messages carrying opinion
        ``i + 1`` sent during the phase (the multiset ``M_j``): for the
        paper's protocol this is ``num_rounds`` times the sender-opinion
        histogram, since every opinionated node pushes once per round.
        """
        noisy = self.recolor(message_histogram)
        return self.throw(noisy)

    def run_phase_from_senders(
        self, sender_opinions: np.ndarray, num_rounds: int
    ) -> ReceivedMessages:
        """Convenience wrapper mirroring ``UniformPushModel.run_phase``.

        Builds ``M_j`` from the sender opinions (each sender contributes
        ``num_rounds`` balls of its color) and runs the process.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        opinions = np.asarray(sender_opinions, dtype=np.int64).ravel()
        if opinions.size and (opinions.min() < 1 or opinions.max() > self.num_opinions):
            raise ValueError(
                f"sender opinions must be in [1, {self.num_opinions}]"
            )
        histogram = np.bincount(opinions, minlength=self.num_opinions + 1)[1:]
        return self.run_phase(histogram * num_rounds)

    def run_ensemble_phase_from_senders(
        self,
        sender_histograms: np.ndarray,
        num_rounds: int,
        random_state: EnsembleRandomState = None,
    ) -> EnsembleReceivedMessages:
        """Batched phase delivery for ``R`` trials (shape ``(R, k)`` input).

        Row ``r`` of ``sender_histograms`` is trial ``r``'s sender-opinion
        histogram; each sender contributes ``num_rounds`` balls.  When
        ``random_state`` is omitted the engine's own generator is used in
        shared-stream mode.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        if random_state is None:
            random_state = self._rng
        histograms = np.asarray(sender_histograms, dtype=np.int64)
        return ensemble_recolor_and_throw(
            self.num_nodes, self.noise, histograms * num_rounds, random_state
        )

"""A noisy uniform *pull* substrate for the baseline dynamics.

The baseline protocols the paper's related-work section compares against
(3-majority dynamics, h-majority, undecided-state dynamics, the median rule)
are classically stated in a pull fashion: in each round every node samples
the opinion of a few nodes chosen uniformly at random and updates from what
it observed.  To compare those dynamics with the paper's protocol *under the
same noise assumption*, this engine lets every observation be corrupted by
the same noise matrix used by the push model.

The engine works on a full opinion vector (0 = undecided) and reports, per
round, the matrix of observed (noisy) opinion counts per node.

:class:`EnsemblePullModel` is the batched counterpart used by the ensemble
dynamics: the same noisy observation step over an ``(R, n)`` opinion matrix
of ``R`` independent trials.  Exactly as the ensemble protocol replaces the
per-round push loop with Claim-1 phase sampling, the batched pull engine
samples the *compound* observation channel directly: an observation is a
uniform target draw composed with per-message noise, so each observation is
an i.i.d. categorical draw over {no opinion, 1, …, k} with probabilities
``(1 - a, c P)`` — distribution-exact, not an approximation.  With a
sequence of per-trial randomness sources, trial ``r`` consumes one uniform
block per observation step from its own source, so a batched run is bitwise
identical to ``R`` batch-size-1 runs with the same sources (the ensemble
reproducibility guarantee); agreement with the per-message sequential engine
is distributional and is checked statistically by the test-suite.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache
from itertools import combinations
from typing import Dict, Tuple

import numpy as np

from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.noise.matrix import NoiseMatrix
from repro.utils.multiset import opinion_counts_matrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
    is_generator_sequence,
)
from repro.utils.validation import require_positive_int

__all__ = [
    "UniformPullModel",
    "EnsemblePullModel",
    "CountsPullModel",
    "majority_vote_law",
    "vote_table_is_tractable",
    "dense_majority_vote_law",
    "dense_vote_law_is_tractable",
    "resolve_vote_path",
    "vote_law_cache_info",
    "clear_vote_law_cache",
]


def _candidate_pool(
    opinions: np.ndarray, include_undecided: bool
) -> np.ndarray:
    """The nodes a single trial may observe (all, or opinionated-only)."""
    num_nodes = opinions.shape[0]
    if include_undecided:
        return np.arange(num_nodes)
    pool = np.nonzero(opinions > 0)[0]
    if pool.size == 0:
        return np.arange(num_nodes)
    return pool


def _observe_core(
    opinions: np.ndarray,
    sample_size: int,
    include_undecided: bool,
    noise: NoiseMatrix,
    rng: np.random.Generator,
) -> np.ndarray:
    """One trial's observed-count matrix ``(n, k)``, message by message.

    The executable specification of the pull observation step: every
    observation is materialized, noised and counted individually.  The
    per-node accumulation is a single :func:`numpy.bincount` over flattened
    ``observer * k + opinion`` indices (measurably faster than the
    ``np.add.at`` scatter it replaces).
    """
    num_nodes = opinions.shape[0]
    num_opinions = noise.num_opinions
    pool = _candidate_pool(opinions, include_undecided)
    targets = rng.choice(pool, size=(num_nodes, sample_size), replace=True)
    observed = opinions[targets]
    observers, slots = np.nonzero(observed > 0)
    if observers.size == 0:
        return np.zeros((num_nodes, num_opinions), dtype=np.int64)
    true_opinions = observed[observers, slots]
    noisy_opinions = noise.apply_to_opinions(true_opinions, rng)
    flat = np.bincount(
        observers * num_opinions + (noisy_opinions - 1),
        minlength=num_nodes * num_opinions,
    )
    return flat.reshape(num_nodes, num_opinions).astype(np.int64, copy=False)


#: Above this many compositions the closed-form ``maj()`` table is not worth
#: building (cost and memory grow as C(sample_size + k, k)); the fused vote
#: sampler then falls back to explicit observation counts.
_VOTE_TABLE_MAX_COMPOSITIONS = 100_000

#: Largest sample size whose factorial still fits a float64 (171! overflows);
#: beyond it the closed form is numerically moot anyway, so the fused vote
#: sampler falls back to explicit observation counts.
_VOTE_TABLE_MAX_SAMPLE = 170


def _vote_table_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Whether the closed-form ``maj()`` table is worth (and safe) building."""
    return (
        sample_size <= _VOTE_TABLE_MAX_SAMPLE
        and math.comb(sample_size + num_opinions, num_opinions)
        <= _VOTE_TABLE_MAX_COMPOSITIONS
    )


def vote_table_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Public predicate: can the exact ``maj()`` vote law be tabulated?

    The batched pull engine falls back to explicit observation counts when
    this is ``False``; the counts engines use it to decide between the fused
    closed-form vote law and their bounded-chunk per-voter sampler.
    """
    return _vote_table_is_tractable(sample_size, num_opinions)


#: Module-level LRU over fully evaluated ``maj()`` vote laws, keyed by
#: ``(k, sample_size, observation-pmf bytes)`` — the "noise hash" of a
#: Stage-2 phase or h-majority round is exactly its observation pmf, so
#: repeated engine construction (orchestrator jobs, sweep blocks, analytic
#: kernels) stops re-evaluating identical composition sums.  The cache is
#: exact: identical key bytes imply a bitwise-identical law.
_VOTE_LAW_CACHE: "OrderedDict[Tuple[int, int, bytes], np.ndarray]" = (
    OrderedDict()
)
#: Entry cap of the vote-law LRU.
_VOTE_LAW_CACHE_MAX_ENTRIES = 256
#: Largest observation-pmf payload (bytes) worth hashing and retaining;
#: larger batches are passed through uncached.
_VOTE_LAW_CACHE_MAX_BYTES = 1 << 16
_vote_law_hits = 0
_vote_law_misses = 0


def vote_law_cache_info() -> Dict[str, int]:
    """Hit/miss counters of the ``maj()`` caches (law LRU + table LRU).

    ``law_*`` counts the module-level vote-law LRU of
    :func:`majority_vote_law`; ``table_*`` counts the composition-table
    LRU underneath it (:func:`_majority_vote_table`).  Exposed for the
    sweep benchmark, which reports how many grid points shared tables.
    """
    table = _majority_vote_table.cache_info()
    dense = _dense_majority_vote_table.cache_info()
    return {
        "law_hits": _vote_law_hits,
        "law_misses": _vote_law_misses,
        "law_entries": len(_VOTE_LAW_CACHE),
        "table_hits": table.hits,
        "table_misses": table.misses,
        "table_entries": table.currsize,
        "dense_table_hits": dense.hits,
        "dense_table_misses": dense.misses,
        "dense_table_entries": dense.currsize,
    }


def clear_vote_law_cache(*, tables: bool = False) -> None:
    """Empty the vote-law LRU (and optionally both composition-table LRUs)."""
    global _vote_law_hits, _vote_law_misses
    _VOTE_LAW_CACHE.clear()
    _vote_law_hits = 0
    _vote_law_misses = 0
    if tables:
        _majority_vote_table.cache_clear()
        _dense_majority_vote_table.cache_clear()


def majority_vote_law(
    probabilities: np.ndarray, sample_size: int
) -> np.ndarray:
    """The exact pmf of ``maj()`` over ``sample_size`` i.i.d. observations.

    ``probabilities`` has shape ``(R, k + 1)``: row ``r`` is trial ``r``'s
    observation distribution over {no opinion, opinion 1, …, opinion k}.
    Returns the matching ``(R, k + 1)`` vote distribution over {no vote,
    vote 1, …, vote k}, with the uniform tie-break folded in analytically
    (via :func:`_majority_vote_table`).  Raises ``ValueError`` when the
    composition table is intractable for ``(sample_size, k)`` — callers
    should check :func:`vote_table_is_tractable` first and fall back to
    explicit observation sampling.

    Results for small batches are memoized in a module-level LRU keyed by
    ``(k, sample_size, pmf bytes)`` (see :func:`vote_law_cache_info`); a
    hit returns a fresh copy of the stored law, bitwise identical to
    recomputing it.
    """
    global _vote_law_hits, _vote_law_misses
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2 or probabilities.shape[1] < 2:
        raise ValueError(
            "probabilities must have shape (R, k + 1), got "
            f"{probabilities.shape}"
        )
    num_opinions = probabilities.shape[1] - 1
    sample_size = require_positive_int(sample_size, "sample_size")
    if not _vote_table_is_tractable(sample_size, num_opinions):
        raise ValueError(
            f"the maj() composition table for sample_size={sample_size}, "
            f"k={num_opinions} is intractable; check vote_table_is_tractable "
            "and use explicit observation sampling instead"
        )
    probabilities = np.ascontiguousarray(probabilities)
    key = None
    if probabilities.nbytes <= _VOTE_LAW_CACHE_MAX_BYTES:
        key = (num_opinions, sample_size, probabilities.tobytes())
        cached = _VOTE_LAW_CACHE.get(key)
        if cached is not None:
            _VOTE_LAW_CACHE.move_to_end(key)
            _vote_law_hits += 1
            return cached.copy()
        _vote_law_misses += 1
    exponents, coefficients, vote_law = _majority_vote_table(
        sample_size, num_opinions
    )
    composition_probabilities = coefficients * np.prod(
        probabilities[:, np.newaxis, :] ** exponents[np.newaxis, :, :],
        axis=2,
    )
    law = composition_probabilities @ vote_law
    if key is not None:
        _VOTE_LAW_CACHE[key] = law.copy()
        while len(_VOTE_LAW_CACHE) > _VOTE_LAW_CACHE_MAX_ENTRIES:
            _VOTE_LAW_CACHE.popitem(last=False)
    return law


@lru_cache(maxsize=None)
def _majority_vote_table(
    sample_size: int, num_opinions: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact ``maj()`` law of ``sample_size`` categorical observations.

    Enumerates every composition ``m = (m_0, m_1, …, m_k)`` of
    ``sample_size`` observations over {no opinion, opinion 1, …, opinion k}
    and tabulates

    * ``exponents`` — the ``(C, k+1)`` composition matrix,
    * ``coefficients`` — the multinomial coefficients
      ``sample_size! / prod(m_i!)``,
    * ``vote_law`` — the ``(C, k+1)`` conditional vote distribution given
      the composition: all mass on "no vote" when no opinion was observed,
      otherwise uniform over the most frequent observed opinions (the
      paper's uniform tie-break, folded in analytically).

    With observation probabilities ``q`` the vote pmf is then
    ``(coefficients * prod_i q_i^{m_i}) @ vote_law`` — the closed form the
    batched h-majority step samples from with one uniform per node.
    """
    width = num_opinions + 1
    # Stars-and-bars enumeration of all compositions of sample_size into
    # width non-negative parts.
    compositions = []
    for dividers in combinations(range(sample_size + width - 1), width - 1):
        previous = -1
        parts = []
        for divider in dividers + (sample_size + width - 1,):
            parts.append(divider - previous - 1)
            previous = divider
        compositions.append(parts)
    exponents = np.asarray(compositions, dtype=np.int64)
    factorials = np.asarray(
        [math.factorial(value) for value in range(sample_size + 1)],
        dtype=float,
    )
    coefficients = math.factorial(sample_size) / factorials[exponents].prod(axis=1)
    vote_law = np.zeros((exponents.shape[0], width), dtype=float)
    opinion_counts = exponents[:, 1:]
    row_max = opinion_counts.max(axis=1)
    for row, top in enumerate(row_max):
        if top == 0:
            vote_law[row, 0] = 1.0
        else:
            tied = np.nonzero(opinion_counts[row] == top)[0]
            vote_law[row, tied + 1] = 1.0 / tied.size
    return exponents, coefficients, vote_law


#: Composition budget of the *dense* vote law (opinionated observations
#: only, so ``C(sample_size + k - 1, k - 1)`` rows): large enough to cover
#: the Stage-2 final phase of million-node protocol runs (k = 3, L ~ 700 is
#: ~250k rows), small enough that the table stays a few dozen MB.
_DENSE_VOTE_LAW_MAX_COMPOSITIONS = 3_000_000

#: Memory guard of the dense table builder, which enumerates compositions on
#: a ``(sample_size + 1)**(k - 1)`` grid before filtering; beyond this the
#: transient grid would dominate the table itself.
_DENSE_VOTE_LAW_MAX_GRID = 2_000_000

#: Log-probability surrogate for zero-probability colors: finite (so the
#: composition matmul never produces ``0 * -inf = nan``) yet negative enough
#: that any composition using such a color underflows to exactly 0.
_DENSE_LOG_ZERO = -1.0e6


def dense_vote_law_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Can the dense (opinionated-only) ``maj()`` law be evaluated exactly?

    The dense path enumerates only the compositions of ``sample_size``
    observations over the ``k`` opinions — no "no opinion" cell — which is
    exactly the Stage-2 counts situation, where every message in a voter's
    sample carries an opinion.  Because one axis is dropped, it stays exact
    far beyond :func:`vote_table_is_tractable`'s factorial/composition
    budget (any ``sample_size`` for ``k = 2``, thousands for ``k = 3``);
    beyond these budgets callers fall back to per-voter observation
    sampling.
    """
    if sample_size < 1 or num_opinions < 1:
        return False
    return (
        math.comb(sample_size + num_opinions - 1, num_opinions - 1)
        <= _DENSE_VOTE_LAW_MAX_COMPOSITIONS
        and (sample_size + 1) ** (num_opinions - 1)
        <= _DENSE_VOTE_LAW_MAX_GRID
    )


def resolve_vote_path(sample_size: int, num_opinions: int) -> str:
    """Which sampler the counts tier's Stage-2 vote step uses for ``L``.

    ``"table"`` — the closed-form composition table over {no opinion, 1,
    …, k} (small samples); ``"dense"`` — the exact dense table over
    opinionated observations only (large samples: any ``L`` for ``k = 2``
    and thousands for ``k = 3``); ``"chunk"`` — the bounded-chunk
    per-voter sampler (``O(num_voters)`` work).  The choice depends only on
    ``(sample_size, k)``; the tables behind it are LRU-cached.
    """
    if vote_table_is_tractable(sample_size, num_opinions):
        return "table"
    if dense_vote_law_is_tractable(sample_size, num_opinions):
        return "dense"
    return "chunk"


@lru_cache(maxsize=32)
def _dense_majority_vote_table(
    sample_size: int, num_opinions: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composition table of the dense ``maj()`` law (opinionated-only).

    Enumerates every composition ``m = (m_1, …, m_k)`` of ``sample_size``
    observations over the ``k`` opinions and tabulates

    * ``exponents`` — the ``(C, k)`` composition matrix (float64, ready for
      the log-space matmul),
    * ``log_coefficients`` — ``log(sample_size! / prod(m_i!))``, exact in
      log space for arbitrarily large ``sample_size``,
    * ``win_weight`` — the ``(C, k)`` conditional vote law given the
      composition: uniform over the most frequent opinions (the paper's
      tie-break, folded in analytically).  With ``sample_size >= 1`` some
      opinion always wins, so there is no "no vote" column.
    """
    width = num_opinions
    if width == 1:
        compositions = np.asarray([[sample_size]], dtype=np.int64)
    else:
        grid = np.indices((sample_size + 1,) * (width - 1))
        partial = grid.reshape(width - 1, -1).T
        totals = partial.sum(axis=1)
        keep = totals <= sample_size
        compositions = np.concatenate(
            [partial[keep], (sample_size - totals[keep])[:, np.newaxis]],
            axis=1,
        ).astype(np.int64, copy=False)
    log_factorial = np.concatenate(
        [[0.0], np.cumsum(np.log(np.arange(1, sample_size + 1)))]
    )
    log_coefficients = log_factorial[sample_size] - log_factorial[
        compositions
    ].sum(axis=1)
    row_max = compositions.max(axis=1)
    tied = compositions == row_max[:, np.newaxis]
    win_weight = tied / tied.sum(axis=1, keepdims=True)
    return compositions.astype(float), log_coefficients, win_weight


def dense_majority_vote_law(
    probabilities: np.ndarray, sample_size: int
) -> np.ndarray:
    """Exact ``maj()`` pmf over *opinionated* observations, for large samples.

    ``probabilities`` has shape ``(R, k)``: row ``r`` is trial ``r``'s color
    law of a voter's sample (every observation carries an opinion — the
    Stage-2 counts situation).  Returns the ``(R, k)`` vote pmf with the
    uniform tie-break folded in, evaluated in log space per trial from the
    cached composition table, then renormalized row-wise.  The result is the
    same distribution the bounded-chunk per-voter sampler draws from, at
    ``O(C)`` cost per trial instead of ``O(num_voters)`` per phase.  Rows
    summing to zero (empty histograms, never voted from) come back uniform.

    Raises ``ValueError`` when ``(sample_size, k)`` is beyond the dense
    budget — check :func:`dense_vote_law_is_tractable` first.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2 or probabilities.shape[1] < 1:
        raise ValueError(
            f"probabilities must have shape (R, k), got {probabilities.shape}"
        )
    num_opinions = probabilities.shape[1]
    sample_size = require_positive_int(sample_size, "sample_size")
    if not dense_vote_law_is_tractable(sample_size, num_opinions):
        raise ValueError(
            f"the dense maj() table for sample_size={sample_size}, "
            f"k={num_opinions} is intractable; check "
            "dense_vote_law_is_tractable and use per-voter observation "
            "sampling instead"
        )
    exponents, log_coefficients, win_weight = _dense_majority_vote_table(
        sample_size, num_opinions
    )
    law = np.empty(probabilities.shape, dtype=float)
    log_probabilities = np.full(num_opinions, _DENSE_LOG_ZERO)
    for row in range(probabilities.shape[0]):
        pvals = probabilities[row]
        positive = pvals > 0
        if not positive.any():
            law[row] = 1.0 / num_opinions
            continue
        log_probabilities.fill(_DENSE_LOG_ZERO)
        np.log(pvals, out=log_probabilities, where=positive)
        log_pmf = exponents @ log_probabilities
        log_pmf += log_coefficients
        pmf = np.exp(log_pmf, out=log_pmf)
        law[row] = pmf @ win_weight
    law = np.clip(law, 0.0, 1.0)
    row_sums = law.sum(axis=1, keepdims=True)
    return np.divide(
        law,
        row_sums,
        out=np.full(law.shape, 1.0 / num_opinions),
        where=row_sums > 0,
    )


def _observe_single_core(
    opinions: np.ndarray, noise: NoiseMatrix, rng: np.random.Generator
) -> np.ndarray:
    """One trial's single-observation votes, length ``n`` (0 = saw undecided).

    The one-observation case never needs the ``(n, k)`` counts matrix, so it
    samples one target per node and applies noise to the opinionated
    observations directly.
    """
    num_nodes = opinions.shape[0]
    targets = rng.choice(np.arange(num_nodes), size=num_nodes, replace=True)
    observed = opinions[targets]
    votes = np.zeros(num_nodes, dtype=np.int64)
    observers = np.nonzero(observed > 0)[0]
    if observers.size:
        votes[observers] = noise.apply_to_opinions(observed[observers], rng)
    return votes


class UniformPullModel:
    """Noisy uniform pull: each node observes ``sample_size`` random nodes.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    noise:
        Noise matrix applied independently to every observed opinion.
    random_state:
        Randomness source.
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
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def _validate_opinions(self, opinions: np.ndarray) -> np.ndarray:
        array = np.asarray(opinions, dtype=np.int64).ravel()
        if array.shape[0] != self.num_nodes:
            raise ValueError(
                f"opinions must have length {self.num_nodes}, got {array.shape[0]}"
            )
        if array.size and (array.min() < 0 or array.max() > self.num_opinions):
            raise ValueError(
                f"opinions must be in [0, {self.num_opinions}] (0 = undecided)"
            )
        return array

    def observe(
        self,
        opinions: np.ndarray,
        sample_size: int,
        *,
        include_undecided: bool = True,
    ) -> ReceivedMessages:
        """Each node observes ``sample_size`` uniformly random nodes' opinions.

        Observations are taken with replacement (as in the classical
        h-majority / 3-majority dynamics); undecided nodes contribute no
        opinion to the observation when drawn, so a node may end up observing
        fewer than ``sample_size`` opinions.  When ``include_undecided`` is
        ``False``, observation targets are restricted to opinionated nodes
        (if any exist).

        Returns
        -------
        ReceivedMessages
            Per-node counts of (noisy) observed opinions.
        """
        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        return ReceivedMessages(
            _observe_core(
                opinions, sample_size, include_undecided, self.noise, self._rng
            )
        )

    def observe_single(self, opinions: np.ndarray) -> np.ndarray:
        """Each node observes one random node; returns the noisy opinions.

        Convenience entry point for the one-observation baselines (voter,
        undecided-state, median rule); the result is a length-``n`` vector of
        observed opinions with 0 marking "observed an undecided node".
        """
        opinions = self._validate_opinions(opinions)
        return _observe_single_core(opinions, self.noise, self._rng)


class EnsemblePullModel:
    """Noisy uniform pull over ``R`` independent trials as one batch.

    Observations are sampled from the compound channel (uniform target
    composed with per-message noise): each of a node's ``sample_size``
    observations is an independent categorical draw over
    ``{no opinion, 1, …, k}`` whose probabilities come from the trial's
    current opinion distribution pushed through the noise matrix.  This is
    exactly the distribution of the per-message engine and needs only one
    uniform block per trial per observation step.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n`` per trial.
    noise:
        Noise matrix applied independently to every observed opinion.
    random_state:
        Default randomness: one shared source (fully batched draws) or a
        sequence of per-trial sources (trial ``r`` consumes draws from its
        own source only, making batched runs reproducible trial by trial).
        Every method also accepts an explicit ``random_state`` overriding
        the default.
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise
        self._random_state: EnsembleRandomState = (
            random_state
            if is_generator_sequence(random_state)
            else as_generator(random_state)
        )

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def _validate_opinions(self, opinions: np.ndarray) -> np.ndarray:
        array = np.asarray(opinions, dtype=np.int64)
        if array.ndim != 2:
            raise ValueError(
                f"ensemble opinions must be an (R, n) matrix, got shape {array.shape}"
            )
        if array.shape[1] != self.num_nodes:
            raise ValueError(
                f"opinions must have {self.num_nodes} columns, got {array.shape[1]}"
            )
        if array.size and (array.min() < 0 or array.max() > self.num_opinions):
            raise ValueError(
                f"opinions must be in [0, {self.num_opinions}] (0 = undecided)"
            )
        return array

    def _randomness(self, random_state: EnsembleRandomState):
        return self._random_state if random_state is None else random_state

    def observation_probabilities(
        self, opinions: np.ndarray, *, include_undecided: bool = True
    ) -> np.ndarray:
        """Per-trial observation distribution, shape ``(R, k+1)``.

        Column 0 is the "no opinion observed" mass (the undecided fraction,
        or 0 when targets are restricted to opinionated nodes); columns
        ``1..k`` are the noisy opinion masses ``c P`` (Eq. (2) applied to the
        observation channel).
        """
        return self._probabilities(
            self._validate_opinions(opinions), include_undecided
        )

    def _probabilities(
        self, opinions: np.ndarray, include_undecided: bool
    ) -> np.ndarray:
        """:meth:`observation_probabilities` minus the (already-done) checks."""
        counts = opinion_counts_matrix(
            opinions, self.num_opinions, validate=False
        )
        if include_undecided:
            shares = counts / self.num_nodes
            none_mass = 1.0 - shares.sum(axis=1, keepdims=True)
        else:
            totals = counts.sum(axis=1, keepdims=True)
            has_support = totals > 0
            shares = np.divide(
                counts,
                totals,
                out=np.zeros(counts.shape, dtype=float),
                where=has_support,
            )
            # All-undecided trials fall back to "observe nothing" (pool
            # restriction is vacuous when nobody holds an opinion).
            none_mass = np.where(has_support, 0.0, 1.0)
        return np.concatenate([none_mass, shares @ self.noise.matrix], axis=1)

    @staticmethod
    def _cumulative(probabilities: np.ndarray) -> np.ndarray:
        """Row-wise CDF with the last column pinned to 1 (uniforms < 1)."""
        cumulative = probabilities.copy()
        np.cumsum(cumulative, axis=1, out=cumulative)
        cumulative[:, -1] = 1.0
        return cumulative

    @staticmethod
    def _categorical(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Inverse-CDF categories of ``uniforms`` (leading axis = trials)."""
        outcomes = np.zeros(uniforms.shape, dtype=np.int64)
        broadcast = (-1,) + (1,) * (uniforms.ndim - 1)
        for column in range(cumulative.shape[1] - 1):
            outcomes += uniforms >= cumulative[:, column].reshape(broadcast)
        return outcomes

    def _uniform_blocks(
        self, shape, random_state: EnsembleRandomState
    ) -> np.ndarray:
        """A ``(R, …)`` block of uniforms: one draw per trial, or one shared.

        In per-trial mode each trial's generator fills its own (contiguous)
        row — the single RNG interaction that trial makes for the step.
        """
        if is_generator_sequence(random_state):
            generators = as_trial_generators(random_state, shape[0])
            uniforms = np.empty(shape, dtype=np.float64)
            for trial, generator in enumerate(generators):
                generator.random(out=uniforms[trial])
            return uniforms
        return as_generator(random_state).random(shape)

    def observe(
        self,
        opinions: np.ndarray,
        sample_size: int,
        random_state: EnsembleRandomState = None,
        *,
        include_undecided: bool = True,
    ) -> EnsembleReceivedMessages:
        """Batched :meth:`UniformPullModel.observe` over an ``(R, n)`` matrix.

        Returns the per-trial, per-node counts of (noisy) observed opinions
        as an :class:`~repro.network.mailbox.EnsembleReceivedMessages`; the
        node-level counts are distributed exactly as the per-message engine's
        (independent ``Multinomial(sample_size, (1 - a, c P))`` draws per
        node).  One uniform block per trial, one batched inverse-CDF pass,
        one flattened bincount.
        """
        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        random_state = self._randomness(random_state)
        num_trials = opinions.shape[0]
        cumulative = self._cumulative(
            self._probabilities(opinions, include_undecided)
        )
        uniforms = self._uniform_blocks(
            (num_trials, self.num_nodes, sample_size), random_state
        )
        outcomes = self._categorical(cumulative, uniforms)
        width = self.num_opinions + 1
        offsets = (
            np.arange(num_trials * self.num_nodes, dtype=np.int64) * width
        ).reshape(num_trials, self.num_nodes, 1)
        flat = np.bincount(
            (offsets + outcomes).ravel(),
            minlength=num_trials * self.num_nodes * width,
        )
        counts = np.ascontiguousarray(
            flat.reshape(num_trials, self.num_nodes, width)[..., 1:],
            dtype=np.int64,
        )
        return EnsembleReceivedMessages(counts)

    def observe_single(
        self,
        opinions: np.ndarray,
        random_state: EnsembleRandomState = None,
    ) -> np.ndarray:
        """Batched :meth:`UniformPullModel.observe_single`; returns ``(R, n)``.

        Entry 0 marks "observed an undecided node"; one uniform per node per
        trial is the entire randomness budget of the step.
        """
        opinions = self._validate_opinions(opinions)
        random_state = self._randomness(random_state)
        cumulative = self._cumulative(self._probabilities(opinions, True))
        uniforms = self._uniform_blocks(
            (opinions.shape[0], self.num_nodes), random_state
        )
        return self._categorical(cumulative, uniforms)

    def observe_majority_votes(
        self,
        opinions: np.ndarray,
        sample_size: int,
        random_state: EnsembleRandomState = None,
        *,
        include_undecided: bool = True,
    ) -> np.ndarray:
        """Each node's ``maj()`` vote over ``sample_size`` observations, fused.

        The hot path of the batched h-majority dynamics: because a trial's
        nodes observe i.i.d. draws from the same compound channel, each
        node's majority vote (ties broken uniformly) is itself a categorical
        variable whose exact law follows from the per-trial observation
        probabilities via :func:`_majority_vote_table`.  Sampling that law
        directly costs one uniform per node — equivalent in distribution to
        :meth:`observe` followed by
        :meth:`~repro.network.mailbox.EnsembleReceivedMessages.majority_votes`
        (the test-suite checks the agreement), at a fraction of the work.

        Returns an ``(R, n)`` integer matrix; 0 means "observed no opinion,
        cast no vote".
        """
        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        random_state = self._randomness(random_state)
        if not _vote_table_is_tractable(sample_size, self.num_opinions):
            # Huge samples: enumerate observations instead of compositions
            # (same distribution, linear in sample_size like the sequential
            # engine).
            received = self.observe(
                opinions,
                sample_size,
                random_state,
                include_undecided=include_undecided,
            )
            return received.majority_votes(random_state)
        vote_pmf = majority_vote_law(
            self._probabilities(opinions, include_undecided), sample_size
        )
        cumulative = self._cumulative(vote_pmf)
        uniforms = self._uniform_blocks(
            (opinions.shape[0], self.num_nodes), random_state
        )
        return self._categorical(cumulative, uniforms)


# reprolint: counts-tier
class CountsPullModel:
    """Counts-native noisy uniform pull: sufficient-statistics observation.

    The third engine tier.  On the complete graph every node of a trial
    observes i.i.d. draws from the same compound channel (uniform target
    composed with per-message noise), so the number of nodes seeing each
    outcome is fully described by *grouped multinomial draws*: one
    multinomial per current-opinion group (undecided, opinion 1, …, opinion
    k), because only the node's *reaction* to an observation — never the
    observation law itself — depends on its own opinion.  A round therefore
    costs ``O(k^2)`` work per trial (``O(k^3)`` for the two-observation
    median rule), independent of ``n``, and is **exact in distribution**:
    the grouped counts have exactly the law of the per-node engines'
    aggregated outcomes.

    All inputs and outputs are ``(R, …)`` int64 count arrays; no method
    allocates an array with an ``n``-sized axis.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n`` per trial (a plain integer — only used as a
        scalar normalizer, so populations beyond ``2**31`` are fine).
    noise:
        Noise matrix applied independently to every observed opinion.
    random_state:
        Default randomness: one shared source or a per-trial sequence
        (trial ``r`` then consumes draws from its own source only).
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise
        self._random_state: EnsembleRandomState = (
            random_state
            if is_generator_sequence(random_state)
            else as_generator(random_state)
        )

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def _randomness(self, random_state: EnsembleRandomState):
        return self._random_state if random_state is None else random_state

    def _validate_counts(self, counts: np.ndarray) -> np.ndarray:
        array = np.asarray(counts, dtype=np.int64)
        if array.ndim != 2 or array.shape[1] != self.num_opinions:
            raise ValueError(
                f"counts must be an (R, {self.num_opinions}) matrix, got "
                f"shape {array.shape}"
            )
        if array.size and array.min() < 0:
            raise ValueError("opinion counts must be non-negative")
        return array

    def group_sizes(self, counts: np.ndarray) -> np.ndarray:
        """Current-opinion group sizes, shape ``(R, k + 1)`` (column 0 =
        undecided nodes)."""
        counts = self._validate_counts(counts)
        undecided = np.int64(self.num_nodes) - counts.sum(
            axis=1, dtype=np.int64
        )
        if undecided.min() < 0:
            raise ValueError(
                "opinion counts exceed num_nodes in at least one trial"
            )
        return np.concatenate([undecided[:, np.newaxis], counts], axis=1)

    def observation_probabilities(
        self, counts: np.ndarray, *, include_undecided: bool = True
    ) -> np.ndarray:
        """Per-trial observation distribution, shape ``(R, k + 1)``.

        Identical arithmetic to
        :meth:`EnsemblePullModel.observation_probabilities`, but computed
        straight from the ``(R, k)`` count matrix — the per-node opinion
        matrix never exists.
        """
        counts = self._validate_counts(counts)
        if include_undecided:
            shares = counts / self.num_nodes
            none_mass = 1.0 - shares.sum(axis=1, keepdims=True)
        else:
            totals = counts.sum(axis=1, keepdims=True, dtype=np.int64)
            has_support = totals > 0
            shares = np.divide(
                counts,
                totals,
                out=np.zeros(counts.shape, dtype=float),
                where=has_support,
            )
            none_mass = np.where(has_support, 0.0, 1.0)
        # Clip the float-rounding dust: fully-opinionated trials can leave
        # none_mass at -1e-16, which numpy's multinomial rejects as pvals<0.
        return np.clip(
            np.concatenate([none_mass, shares @ self.noise.matrix], axis=1),
            0.0,
            1.0,
        )

    def _grouped_multinomial(
        self,
        sizes: np.ndarray,
        pmf: np.ndarray,
        random_state: EnsembleRandomState,
    ) -> np.ndarray:
        """Grouped draws: entry ``(r, g, o)`` counts the trial-``r`` nodes of
        group ``g`` whose (independent) draw from ``pmf[r]`` came out ``o``.

        ``sizes`` has shape ``(R, G)`` and ``pmf`` shape ``(R, O)``; the
        result has shape ``(R, G, O)`` and is int64.  In per-trial mode
        trial ``r`` consumes exactly ``G`` multinomial draws from its own
        generator (in group order) — the whole randomness budget of the
        step, which is what makes a counts batch bitwise identical to
        batch-size-1 counts runs with the same per-trial sources.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        num_trials, num_groups = sizes.shape
        if is_generator_sequence(random_state):
            generators = as_trial_generators(random_state, num_trials)
            drawn = np.empty(
                (num_trials, num_groups, pmf.shape[1]), dtype=np.int64
            )
            for trial, generator in enumerate(generators):
                drawn[trial] = generator.multinomial(
                    sizes[trial], pmf[trial]
                )
            return drawn
        rng = as_generator(random_state)
        return rng.multinomial(
            sizes, pmf[:, np.newaxis, :]
        ).astype(np.int64, copy=False)

    def observe_single_grouped(
        self,
        counts: np.ndarray,
        random_state: EnsembleRandomState = None,
    ) -> np.ndarray:
        """One observation per node, grouped by the observer's own opinion.

        Returns an ``(R, k + 1, k + 1)`` int64 tensor: entry ``(r, g, o)``
        is the number of trial-``r`` nodes currently in group ``g`` (0 =
        undecided) that observed outcome ``o`` (0 = saw an undecided node).
        Exactly the aggregated law of
        :meth:`EnsemblePullModel.observe_single`.
        """
        counts = self._validate_counts(counts)
        random_state = self._randomness(random_state)
        pmf = self.observation_probabilities(counts)
        return self._grouped_multinomial(
            self.group_sizes(counts), pmf, random_state
        )

    def observe_pair_grouped(
        self,
        counts: np.ndarray,
        random_state: EnsembleRandomState = None,
    ) -> np.ndarray:
        """Two i.i.d. observations per node, grouped by the observer's opinion.

        Returns an ``(R, k + 1, (k + 1)**2)`` int64 tensor whose last axis
        indexes the ordered pair ``first * (k + 1) + second``.  This backs
        the counts-native median rule, whose update needs the joint of both
        observations and the node's own value.
        """
        counts = self._validate_counts(counts)
        random_state = self._randomness(random_state)
        pmf = self.observation_probabilities(counts)
        pair_pmf = (pmf[:, :, np.newaxis] * pmf[:, np.newaxis, :]).reshape(
            counts.shape[0], -1
        )
        return self._grouped_multinomial(
            self.group_sizes(counts), pair_pmf, random_state
        )

    def observe_majority_grouped(
        self,
        counts: np.ndarray,
        sample_size: int,
        random_state: EnsembleRandomState = None,
    ) -> np.ndarray:
        """Grouped ``maj()`` votes over ``sample_size`` observations per node.

        Returns an ``(R, k + 1, k + 1)`` int64 tensor: entry ``(r, g, v)``
        is the number of trial-``r`` group-``g`` nodes whose majority vote
        came out ``v`` (0 = observed no opinion, cast no vote).  The vote
        law is the exact closed form of :func:`majority_vote_law`; for
        ``(sample_size, k)`` beyond the composition-table budget the counts
        engine has no per-message fallback, so a ``ValueError`` is raised —
        use the batched engine for huge per-round sample sizes.
        """
        sample_size = require_positive_int(sample_size, "sample_size")
        counts = self._validate_counts(counts)
        random_state = self._randomness(random_state)
        vote_pmf = majority_vote_law(
            self.observation_probabilities(counts), sample_size
        )
        return self._grouped_multinomial(
            self.group_sizes(counts), vote_pmf, random_state
        )

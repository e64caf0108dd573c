"""Population state: who holds which opinion.

The paper tracks, at the beginning of every round ``t``:

* ``a(t)`` — the fraction of nodes that are *opinionated* (support some
  opinion); the remaining ``1 - a(t)`` fraction is *undecided*;
* ``c(t) = (c_1, …, c_k)`` — the opinion distribution, where ``c_i`` is the
  fraction of **all** nodes that support opinion ``i`` (so that
  ``sum_i c_i = a(t)``);
* the *bias* of the distribution toward the correct/plurality opinion ``m``:
  ``min_{i != m} (c_m - c_i)`` (Definition 1 calls ``c`` delta-biased toward
  ``m`` when this is at least ``delta``).

:class:`PopulationState` stores the opinion vector (0 = undecided,
``1..k`` = opinions) and exposes those quantities plus the constructors used
by the rumor-spreading and plurality-consensus instances.

:class:`EnsembleState` is the batched counterpart: it stores the opinions of
``R`` independent trials as an ``(R, n)`` matrix so that multi-trial
experiments can evolve all trials with single vectorized numpy operations
instead of a Python-level loop over :class:`PopulationState` runs.

:class:`CountsState` / :class:`EnsembleCountsState` are the third tier: on
the complete graph every engine rule is exchangeable over nodes, so the
opinion-count vector ``(c_1, …, c_k)`` (plus ``n``) is a *sufficient
statistic* of the population.  The counts states store only that vector —
``(k,)`` for one trial, ``(R, k)`` for an ensemble — which is what lets the
counts engines simulate millions of nodes in ``O(k)`` memory per trial,
never materializing an ``n``-sized array.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.utils.multiset import opinion_counts_matrix
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import require_positive_int

__all__ = [
    "PopulationState",
    "EnsembleState",
    "CountsState",
    "EnsembleCountsState",
    "coerce_to_ensemble_counts",
    "distribution_biases",
]

UNDECIDED = 0


def distribution_biases(distributions: np.ndarray, opinion: int) -> np.ndarray:
    """Definition-1 bias toward ``opinion`` of each row of an ``(R, k)``
    opinion-distribution matrix: its share minus the largest rival share."""
    if distributions.shape[1] == 1:
        return distributions[:, 0]
    rivals = distributions.copy()
    rivals[:, opinion - 1] = -np.inf
    return distributions[:, opinion - 1] - rivals.max(axis=1)


class PopulationState:
    """Opinions of an ``n``-node population with ``k`` possible opinions.

    Parameters
    ----------
    opinions:
        Integer vector of length ``n``; entry ``u`` is node ``u``'s opinion in
        ``1..k``, or 0 for undecided.
    num_opinions:
        The number of distinct opinions ``k`` (must upper-bound every entry).
    """

    def __init__(self, opinions: Sequence[int], num_opinions: int) -> None:
        self.num_opinions = require_positive_int(num_opinions, "num_opinions")
        array = np.asarray(opinions, dtype=np.int64).copy()
        if array.ndim != 1:
            raise ValueError(f"opinions must be a vector, got shape {array.shape}")
        if array.size == 0:
            raise ValueError("the population must contain at least one node")
        if array.min() < 0 or array.max() > self.num_opinions:
            raise ValueError(
                f"opinions must lie in [0, {self.num_opinions}] (0 = undecided)"
            )
        self.opinions = array

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def all_undecided(cls, num_nodes: int, num_opinions: int) -> "PopulationState":
        """A population where nobody holds an opinion yet."""
        num_nodes = require_positive_int(num_nodes, "num_nodes")
        return cls(np.zeros(num_nodes, dtype=np.int64), num_opinions)

    @classmethod
    def single_source(
        cls, num_nodes: int, num_opinions: int, source_opinion: int,
        source_node: int = 0
    ) -> "PopulationState":
        """The rumor-spreading initial state: one source, everyone else undecided."""
        state = cls.all_undecided(num_nodes, num_opinions)
        if not (1 <= source_opinion <= num_opinions):
            raise ValueError(
                f"source_opinion must be in [1, {num_opinions}], got {source_opinion}"
            )
        if not (0 <= source_node < num_nodes):
            raise ValueError(
                f"source_node must be in [0, {num_nodes}), got {source_node}"
            )
        state.opinions[source_node] = source_opinion
        return state

    @classmethod
    def from_counts(
        cls,
        num_nodes: int,
        opinion_counts: Dict[int, int],
        num_opinions: int,
        random_state: RandomState = None,
        *,
        shuffle: bool = True,
    ) -> "PopulationState":
        """A population with a prescribed number of supporters per opinion.

        ``opinion_counts[i]`` nodes get opinion ``i``; the remaining nodes are
        undecided.  Node identities are irrelevant on the complete graph, but
        ``shuffle=True`` still randomizes positions so that engines cannot
        accidentally rely on ordering.
        """
        num_nodes = require_positive_int(num_nodes, "num_nodes")
        num_opinions = require_positive_int(num_opinions, "num_opinions")
        total = 0
        opinions = np.zeros(num_nodes, dtype=np.int64)
        for opinion, count in sorted(opinion_counts.items()):
            if not (1 <= opinion <= num_opinions):
                raise ValueError(
                    f"opinion {opinion} outside [1, {num_opinions}]"
                )
            if count < 0:
                raise ValueError(f"count for opinion {opinion} must be >= 0")
            opinions[total:total + count] = opinion
            total += count
        if total > num_nodes:
            raise ValueError(
                f"opinion counts sum to {total} > num_nodes = {num_nodes}"
            )
        if shuffle:
            rng = as_generator(random_state)
            rng.shuffle(opinions)
        return cls(opinions, num_opinions)

    @classmethod
    def from_fractions(
        cls,
        num_nodes: int,
        fractions: Sequence[float],
        random_state: RandomState = None,
        *,
        shuffle: bool = True,
    ) -> "PopulationState":
        """A population whose opinion distribution approximates ``fractions``.

        ``fractions[i]`` is the target fraction of nodes holding opinion
        ``i + 1``; the fractions may sum to less than one, in which case the
        remainder is undecided.  Counts are obtained by rounding down and the
        plurality opinion absorbs any rounding slack so the realized plurality
        is never accidentally lost to rounding.
        """
        num_nodes = require_positive_int(num_nodes, "num_nodes")
        fractions = np.asarray(fractions, dtype=float)
        if fractions.ndim != 1 or fractions.size < 1:
            raise ValueError("fractions must be a non-empty vector")
        if np.any(fractions < 0) or fractions.sum() > 1.0 + 1e-9:
            raise ValueError("fractions must be non-negative and sum to at most 1")
        counts = np.floor(fractions * num_nodes).astype(np.int64)
        # Give the rounding slack (if any) to the largest-fraction opinion so
        # the intended plurality is preserved exactly.
        target_total = int(round(fractions.sum() * num_nodes))
        slack = target_total - int(counts.sum())
        if slack > 0:
            counts[int(np.argmax(fractions))] += slack
        opinion_counts = {
            index + 1: int(count) for index, count in enumerate(counts) if count > 0
        }
        return cls.from_counts(
            num_nodes, opinion_counts, fractions.size, random_state, shuffle=shuffle
        )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return int(self.opinions.shape[0])

    def copy(self) -> "PopulationState":
        """An independent copy of this state."""
        return PopulationState(self.opinions.copy(), self.num_opinions)

    def opinionated_mask(self) -> np.ndarray:
        """Boolean mask of nodes that currently hold an opinion."""
        return self.opinions > UNDECIDED

    def opinionated_count(self) -> int:
        """Number of opinionated nodes."""
        return int(np.count_nonzero(self.opinions))

    def opinionated_fraction(self) -> float:
        """The paper's ``a(t)``: the fraction of opinionated nodes."""
        return self.opinionated_count() / self.num_nodes

    def opinion_counts(self) -> np.ndarray:
        """Number of supporters of each opinion (length ``k``, int64)."""
        return np.bincount(
            self.opinions, minlength=self.num_opinions + 1
        )[1:].astype(np.int64, copy=False)

    def opinion_distribution(self) -> np.ndarray:
        """The paper's ``c(t)``: per-opinion fraction of **all** nodes.

        Sums to :meth:`opinionated_fraction`.
        """
        return self.opinion_counts() / self.num_nodes

    def conditional_distribution(self) -> np.ndarray:
        """Per-opinion fraction among *opinionated* nodes (sums to 1).

        Undefined (all zeros) when nobody is opinionated.
        """
        counts = self.opinion_counts()
        total = counts.sum()
        if total == 0:
            return np.zeros(self.num_opinions)
        return counts / total

    def bias_toward(self, opinion: int) -> float:
        """``min_{i != opinion} (c_opinion - c_i)`` over all nodes (Definition 1).

        For ``k = 1`` the bias is defined as ``c_1`` (there is no rival).
        """
        if not (1 <= opinion <= self.num_opinions):
            raise ValueError(
                f"opinion must be in [1, {self.num_opinions}], got {opinion}"
            )
        distribution = self.opinion_distribution()
        if self.num_opinions == 1:
            return float(distribution[0])
        rivals = np.delete(distribution, opinion - 1)
        return float(distribution[opinion - 1] - rivals.max())

    def plurality_opinion(self) -> int:
        """The opinion with the most supporters (smallest label wins ties).

        Returns 0 when nobody is opinionated.
        """
        counts = self.opinion_counts()
        if counts.sum() == 0:
            return 0
        return int(np.argmax(counts)) + 1

    def has_consensus_on(self, opinion: int) -> bool:
        """``True`` iff every node supports ``opinion``."""
        return bool(np.all(self.opinions == opinion))

    def is_delta_biased(self, opinion: int, delta: float) -> bool:
        """Definition 1: is the distribution delta-biased toward ``opinion``?"""
        return self.bias_toward(opinion) >= delta

    def summary(self) -> Dict[str, float]:
        """A compact dictionary of the headline state statistics."""
        return {
            "num_nodes": self.num_nodes,
            "num_opinions": self.num_opinions,
            "opinionated_fraction": self.opinionated_fraction(),
            "plurality_opinion": self.plurality_opinion(),
            "plurality_bias": (
                self.bias_toward(self.plurality_opinion())
                if self.plurality_opinion() > 0
                else 0.0
            ),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, PopulationState):
            return NotImplemented
        return self.num_opinions == other.num_opinions and bool(
            np.array_equal(self.opinions, other.opinions)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PopulationState(n={self.num_nodes}, k={self.num_opinions}, "
            f"opinionated={self.opinionated_count()})"
        )


class EnsembleState:
    """Opinions of ``R`` independent ``n``-node trials, stored as one matrix.

    Row ``r`` is trial ``r``'s opinion vector (0 = undecided, ``1..k`` =
    opinions), exactly as in :class:`PopulationState`.  All derived
    quantities are computed for every trial at once and returned as arrays
    with a leading trial axis.

    Parameters
    ----------
    opinions:
        Integer matrix of shape ``(num_trials, num_nodes)``.
    num_opinions:
        The number of distinct opinions ``k`` (must upper-bound every entry).
    """

    def __init__(self, opinions: np.ndarray, num_opinions: int) -> None:
        self.num_opinions = require_positive_int(num_opinions, "num_opinions")
        array = np.asarray(opinions, dtype=np.int64).copy()
        if array.ndim != 2:
            raise ValueError(
                f"ensemble opinions must be an (R, n) matrix, got shape {array.shape}"
            )
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise ValueError(
                "the ensemble must contain at least one trial and one node"
            )
        if array.min() < 0 or array.max() > self.num_opinions:
            raise ValueError(
                f"opinions must lie in [0, {self.num_opinions}] (0 = undecided)"
            )
        self.opinions = array

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_state(cls, state: PopulationState, num_trials: int) -> "EnsembleState":
        """``num_trials`` independent trials all starting from ``state``."""
        num_trials = require_positive_int(num_trials, "num_trials")
        return cls(
            np.tile(state.opinions, (num_trials, 1)), state.num_opinions
        )

    @classmethod
    def wrap(cls, opinions: np.ndarray, num_opinions: int) -> "EnsembleState":
        """Wrap an already-validated ``(R, n)`` int64 matrix without copying.

        Internal fast path for the batched engines (e.g. per-round active
        sub-batches): the caller guarantees the array is a fresh, in-range
        int64 ``(R, n)`` matrix, and mutations of the state mutate it.  Use
        the regular constructor everywhere else.
        """
        state = cls.__new__(cls)
        state.num_opinions = num_opinions
        state.opinions = opinions
        return state

    @classmethod
    def from_states(cls, states: Sequence[PopulationState]) -> "EnsembleState":
        """Stack per-trial initial states (all must share ``n`` and ``k``)."""
        if not states:
            raise ValueError("at least one trial state is required")
        first = states[0]
        for state in states[1:]:
            if state.num_nodes != first.num_nodes:
                raise ValueError(
                    "all trial states must have the same number of nodes"
                )
            if state.num_opinions != first.num_opinions:
                raise ValueError(
                    "all trial states must have the same number of opinions"
                )
        return cls(
            np.stack([state.opinions for state in states]), first.num_opinions
        )

    # ------------------------------------------------------------------ #
    # Shape / conversion
    # ------------------------------------------------------------------ #

    @property
    def num_trials(self) -> int:
        """Number of independent trials ``R``."""
        return int(self.opinions.shape[0])

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n`` per trial."""
        return int(self.opinions.shape[1])

    def copy(self) -> "EnsembleState":
        """An independent copy of this ensemble."""
        return EnsembleState(self.opinions.copy(), self.num_opinions)

    def trial_state(self, trial: int) -> PopulationState:
        """Trial ``trial`` as a standalone :class:`PopulationState`."""
        return PopulationState(self.opinions[trial].copy(), self.num_opinions)

    def to_states(self) -> List[PopulationState]:
        """All trials as standalone :class:`PopulationState` objects."""
        return [self.trial_state(trial) for trial in range(self.num_trials)]

    # ------------------------------------------------------------------ #
    # Derived quantities (one entry per trial)
    # ------------------------------------------------------------------ #

    def opinionated_mask(self) -> np.ndarray:
        """Boolean ``(R, n)`` mask of nodes that currently hold an opinion."""
        return self.opinions > UNDECIDED

    def opinionated_counts(self) -> np.ndarray:
        """Number of opinionated nodes per trial (shape ``(R,)``)."""
        return np.count_nonzero(self.opinions, axis=1).astype(np.int64)

    def opinionated_fractions(self) -> np.ndarray:
        """The paper's ``a(t)`` per trial (shape ``(R,)``)."""
        return self.opinionated_counts() / self.num_nodes

    def opinion_counts(self) -> np.ndarray:
        """Supporters of each opinion per trial (shape ``(R, k)``).

        Computed with a single offset :func:`numpy.bincount` over the whole
        batch — no Python loop over trials.
        """
        return opinion_counts_matrix(self.opinions, self.num_opinions)

    def opinion_distributions(self) -> np.ndarray:
        """The paper's ``c(t)`` per trial (shape ``(R, k)``)."""
        return self.opinion_counts() / self.num_nodes

    def bias_toward(self, opinion: int) -> np.ndarray:
        """Definition-1 bias toward ``opinion`` per trial (shape ``(R,)``)."""
        if not (1 <= opinion <= self.num_opinions):
            raise ValueError(
                f"opinion must be in [1, {self.num_opinions}], got {opinion}"
            )
        return distribution_biases(self.opinion_distributions(), opinion)

    def plurality_opinions(self) -> np.ndarray:
        """The most supported opinion per trial, 0 for all-undecided trials."""
        counts = self.opinion_counts()
        winners = counts.argmax(axis=1) + 1
        return np.where(counts.sum(axis=1) > 0, winners, 0).astype(np.int64)

    def pooled_plurality_opinion(self) -> int:
        """The plurality opinion of the counts pooled over all trials.

        This is the default tracked opinion of the ensemble executors; for a
        homogeneous ensemble (every trial tiled from one initial state) it
        coincides with the single-trial plurality.  Returns 0 when no trial
        has an opinionated node.
        """
        pooled = self.opinion_counts().sum(axis=0)
        if pooled.sum() == 0:
            return 0
        return int(pooled.argmax()) + 1

    def consensus_mask(self, opinion: int) -> np.ndarray:
        """Boolean ``(R,)`` mask of trials where every node supports ``opinion``."""
        return np.all(self.opinions == opinion, axis=1)

    def correct_fractions(self, opinion: int) -> np.ndarray:
        """Fraction of nodes supporting ``opinion`` per trial (shape ``(R,)``)."""
        return np.count_nonzero(self.opinions == opinion, axis=1) / self.num_nodes

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics over the whole ensemble."""
        fractions = self.opinionated_fractions()
        return {
            "num_trials": self.num_trials,
            "num_nodes": self.num_nodes,
            "num_opinions": self.num_opinions,
            "mean_opinionated_fraction": float(fractions.mean()),
            "min_opinionated_fraction": float(fractions.min()),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnsembleState):
            return NotImplemented
        return self.num_opinions == other.num_opinions and bool(
            np.array_equal(self.opinions, other.opinions)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnsembleState(R={self.num_trials}, n={self.num_nodes}, "
            f"k={self.num_opinions})"
        )


# reprolint: counts-tier
class CountsState:
    """The sufficient statistic of one trial: per-opinion supporter counts.

    On the complete graph node identities are exchangeable, so a population
    is fully described (in distribution) by how many nodes support each
    opinion; the remaining ``num_nodes - sum(counts)`` nodes are undecided.
    All arithmetic is int64 end-to-end so populations beyond ``2**31`` nodes
    cannot silently overflow on platforms whose default int is 32-bit.

    Parameters
    ----------
    counts:
        Integer vector of length ``k``; entry ``i`` is the number of nodes
        supporting opinion ``i + 1``.
    num_nodes:
        Population size ``n`` (must be at least ``sum(counts)``).
    """

    def __init__(self, counts: Sequence[int], num_nodes: int) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        array = np.asarray(counts, dtype=np.int64).copy()
        if array.ndim != 1 or array.size == 0:
            raise ValueError(
                f"counts must be a non-empty vector, got shape {array.shape}"
            )
        if array.min() < 0:
            raise ValueError("opinion counts must be non-negative")
        if int(array.sum()) > self.num_nodes:
            raise ValueError(
                f"opinion counts sum to {int(array.sum())} > num_nodes = "
                f"{self.num_nodes}"
            )
        self.counts = array

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_state(cls, state: PopulationState) -> "CountsState":
        """The sufficient statistic of a full :class:`PopulationState`."""
        return cls(state.opinion_counts(), state.num_nodes)

    @classmethod
    def single_source(
        cls, num_nodes: int, num_opinions: int, source_opinion: int
    ) -> "CountsState":
        """The rumor-spreading initial state: one source, rest undecided."""
        num_opinions = require_positive_int(num_opinions, "num_opinions")
        if not (1 <= source_opinion <= num_opinions):
            raise ValueError(
                f"source_opinion must be in [1, {num_opinions}], got {source_opinion}"
            )
        counts = np.zeros(num_opinions, dtype=np.int64)
        counts[source_opinion - 1] = 1
        return cls(counts, num_nodes)

    # ------------------------------------------------------------------ #
    # Derived quantities (mirroring PopulationState)
    # ------------------------------------------------------------------ #

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return int(self.counts.shape[0])

    def copy(self) -> "CountsState":
        """An independent copy of this state."""
        return CountsState(self.counts.copy(), self.num_nodes)

    def opinion_counts(self) -> np.ndarray:
        """Number of supporters of each opinion (length ``k``, int64)."""
        return self.counts.copy()

    def opinionated_count(self) -> int:
        """Number of opinionated nodes."""
        return int(self.counts.sum())

    def opinionated_fraction(self) -> float:
        """The paper's ``a(t)``: the fraction of opinionated nodes."""
        return self.opinionated_count() / self.num_nodes

    def opinion_distribution(self) -> np.ndarray:
        """The paper's ``c(t)``: per-opinion fraction of **all** nodes."""
        return self.counts / self.num_nodes

    def bias_toward(self, opinion: int) -> float:
        """``min_{i != opinion} (c_opinion - c_i)`` (Definition 1)."""
        if not (1 <= opinion <= self.num_opinions):
            raise ValueError(
                f"opinion must be in [1, {self.num_opinions}], got {opinion}"
            )
        distribution = self.opinion_distribution()
        if self.num_opinions == 1:
            return float(distribution[0])
        rivals = np.delete(distribution, opinion - 1)
        return float(distribution[opinion - 1] - rivals.max())

    def plurality_opinion(self) -> int:
        """The most supported opinion (smallest label wins ties), 0 if none."""
        if self.counts.sum() == 0:
            return 0
        return int(np.argmax(self.counts)) + 1

    def has_consensus_on(self, opinion: int) -> bool:
        """``True`` iff every node supports ``opinion``."""
        if not (1 <= opinion <= self.num_opinions):
            return False
        return int(self.counts[opinion - 1]) == self.num_nodes

    def to_population_state(
        self, random_state: RandomState = None, *, shuffle: bool = True
    ) -> PopulationState:
        """Materialize a full ``n``-node population with these counts.

        Interop helper for the per-node engines and plotting; note this
        allocates an ``n``-sized array, which the counts engines themselves
        never do.
        """
        opinion_counts = {
            index + 1: int(count)
            for index, count in enumerate(self.counts)
            if count > 0
        }
        return PopulationState.from_counts(
            self.num_nodes,
            opinion_counts,
            self.num_opinions,
            random_state,
            shuffle=shuffle,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountsState):
            return NotImplemented
        return self.num_nodes == other.num_nodes and bool(
            np.array_equal(self.counts, other.counts)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountsState(n={self.num_nodes}, k={self.num_opinions}, "
            f"opinionated={self.opinionated_count()})"
        )


# reprolint: counts-tier
class EnsembleCountsState:
    """The sufficient statistics of ``R`` independent trials: an ``(R, k)``
    int64 count matrix.

    Row ``r`` holds trial ``r``'s per-opinion supporter counts; the trial's
    remaining ``num_nodes - counts[r].sum()`` nodes are undecided.  This is
    the state the counts engines evolve: ``O(k)`` memory per trial, with no
    dependence of storage or per-round work on ``n``.

    Parameters
    ----------
    counts:
        Integer matrix of shape ``(num_trials, num_opinions)``.
    num_nodes:
        Population size ``n`` shared by every trial, or an ``(R,)`` integer
        vector giving each trial its own population size (the heterogeneous
        form used by the sweep engine, where rows of one merged ensemble
        belong to different grid points).
    """

    def __init__(self, counts: np.ndarray, num_nodes) -> None:
        if np.ndim(num_nodes) == 0:
            self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        else:
            nodes = np.asarray(num_nodes, dtype=np.int64).copy()
            if nodes.ndim != 1:
                raise ValueError(
                    "per-trial num_nodes must be a 1-d vector, got shape "
                    f"{nodes.shape}"
                )
            if nodes.size == 0 or nodes.min() < 1:
                raise ValueError("per-trial num_nodes must all be positive")
            self.num_nodes = nodes
        array = np.asarray(counts, dtype=np.int64).copy()
        if array.ndim != 2:
            raise ValueError(
                f"ensemble counts must be an (R, k) matrix, got shape {array.shape}"
            )
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise ValueError(
                "the ensemble must contain at least one trial and one opinion"
            )
        if self.has_per_trial_nodes and self.num_nodes.shape != (array.shape[0],):
            raise ValueError(
                f"per-trial num_nodes must have shape ({array.shape[0]},), "
                f"got {self.num_nodes.shape}"
            )
        if array.min() < 0:
            raise ValueError("opinion counts must be non-negative")
        totals = array.sum(axis=1)
        if np.any(totals > self.num_nodes):
            raise ValueError(
                f"opinion counts sum to {int(totals.max())} > num_nodes = "
                f"{self.num_nodes} in at least one trial"
            )
        self.counts = array

    @property
    def has_per_trial_nodes(self) -> bool:
        """``True`` when each trial carries its own population size."""
        return isinstance(self.num_nodes, np.ndarray)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_state(
        cls, state: PopulationState, num_trials: int
    ) -> "EnsembleCountsState":
        """``num_trials`` independent trials all starting from ``state``."""
        num_trials = require_positive_int(num_trials, "num_trials")
        counts = state.opinion_counts().astype(np.int64, copy=False)
        return cls(np.tile(counts, (num_trials, 1)), state.num_nodes)

    @classmethod
    def from_counts_state(
        cls, state: CountsState, num_trials: int
    ) -> "EnsembleCountsState":
        """``num_trials`` independent trials tiled from one counts state."""
        num_trials = require_positive_int(num_trials, "num_trials")
        return cls(np.tile(state.counts, (num_trials, 1)), state.num_nodes)

    @classmethod
    def from_ensemble(cls, ensemble: EnsembleState) -> "EnsembleCountsState":
        """The sufficient statistics of a full ``(R, n)`` ensemble."""
        return cls(ensemble.opinion_counts(), ensemble.num_nodes)

    # ------------------------------------------------------------------ #
    # Shape / conversion
    # ------------------------------------------------------------------ #

    @property
    def num_trials(self) -> int:
        """Number of independent trials ``R``."""
        return int(self.counts.shape[0])

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return int(self.counts.shape[1])

    def copy(self) -> "EnsembleCountsState":
        """An independent copy of this ensemble."""
        return EnsembleCountsState(self.counts.copy(), self.num_nodes)

    def trial_state(self, trial: int) -> CountsState:
        """Trial ``trial`` as a standalone :class:`CountsState`."""
        num_nodes = (
            int(self.num_nodes[trial])
            if self.has_per_trial_nodes
            else self.num_nodes
        )
        return CountsState(self.counts[trial].copy(), num_nodes)

    # ------------------------------------------------------------------ #
    # Derived quantities (one entry per trial, mirroring EnsembleState)
    # ------------------------------------------------------------------ #

    def opinionated_counts(self) -> np.ndarray:
        """Number of opinionated nodes per trial (shape ``(R,)``, int64)."""
        return self.counts.sum(axis=1, dtype=np.int64)

    def undecided_counts(self) -> np.ndarray:
        """Number of undecided nodes per trial (shape ``(R,)``, int64)."""
        if self.has_per_trial_nodes:
            return self.num_nodes - self.opinionated_counts()
        return np.int64(self.num_nodes) - self.opinionated_counts()

    def opinionated_fractions(self) -> np.ndarray:
        """The paper's ``a(t)`` per trial (shape ``(R,)``)."""
        return self.opinionated_counts() / self.num_nodes

    def opinion_counts(self) -> np.ndarray:
        """Supporters of each opinion per trial (shape ``(R, k)``, int64)."""
        return self.counts.copy()

    def opinion_distributions(self) -> np.ndarray:
        """The paper's ``c(t)`` per trial (shape ``(R, k)``)."""
        if self.has_per_trial_nodes:
            return self.counts / self.num_nodes[:, np.newaxis]
        return self.counts / self.num_nodes

    def bias_toward(self, opinion: int) -> np.ndarray:
        """Definition-1 bias toward ``opinion`` per trial (shape ``(R,)``)."""
        if not (1 <= opinion <= self.num_opinions):
            raise ValueError(
                f"opinion must be in [1, {self.num_opinions}], got {opinion}"
            )
        return distribution_biases(self.opinion_distributions(), opinion)

    def plurality_opinions(self) -> np.ndarray:
        """The most supported opinion per trial, 0 for all-undecided trials."""
        winners = self.counts.argmax(axis=1) + 1
        return np.where(
            self.counts.sum(axis=1) > 0, winners, 0
        ).astype(np.int64)

    def pooled_plurality_opinion(self) -> int:
        """The plurality opinion of the counts pooled over all trials."""
        pooled = self.counts.sum(axis=0, dtype=np.int64)
        if pooled.sum() == 0:
            return 0
        return int(pooled.argmax()) + 1

    def consensus_mask(self, opinion: int) -> np.ndarray:
        """Boolean ``(R,)`` mask of trials fully agreed on ``opinion``."""
        if not (1 <= opinion <= self.num_opinions):
            raise ValueError(
                f"opinion must be in [1, {self.num_opinions}], got {opinion}"
            )
        return self.counts[:, opinion - 1] == self.num_nodes

    def correct_fractions(self, opinion: int) -> np.ndarray:
        """Fraction of nodes supporting ``opinion`` per trial (shape ``(R,)``)."""
        if not (1 <= opinion <= self.num_opinions):
            raise ValueError(
                f"opinion must be in [1, {self.num_opinions}], got {opinion}"
            )
        return self.counts[:, opinion - 1] / self.num_nodes

    def to_ensemble_state(
        self, random_state: RandomState = None, *, shuffle: bool = True
    ) -> EnsembleState:
        """Materialize a full ``(R, n)`` ensemble with these counts.

        Interop/debugging helper only — it allocates the ``(R, n)`` matrix
        the counts engines exist to avoid.
        """
        rng = as_generator(random_state)
        rows = [
            self.trial_state(trial)
            .to_population_state(rng, shuffle=shuffle)
            .opinions
            for trial in range(self.num_trials)
        ]
        return EnsembleState(np.stack(rows), self.num_opinions)

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics over the whole ensemble."""
        fractions = self.opinionated_fractions()
        return {
            "num_trials": self.num_trials,
            "num_nodes": self.num_nodes,
            "num_opinions": self.num_opinions,
            "mean_opinionated_fraction": float(fractions.mean()),
            "min_opinionated_fraction": float(fractions.min()),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnsembleCountsState):
            return NotImplemented
        return bool(
            np.array_equal(self.num_nodes, other.num_nodes)
        ) and bool(np.array_equal(self.counts, other.counts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnsembleCountsState(R={self.num_trials}, n={self.num_nodes}, "
            f"k={self.num_opinions})"
        )


# reprolint: counts-tier
def coerce_to_ensemble_counts(
    initial_state: Union[
        PopulationState, EnsembleState, CountsState, EnsembleCountsState
    ],
    num_trials: Optional[int],
) -> EnsembleCountsState:
    """Reduce any supported initial state to a fresh ensemble counts state.

    The shared entry-state coercion of the counts engines
    (:class:`~repro.core.protocol.CountsProtocol`,
    :class:`~repro.dynamics.base.EnsembleCountsDynamics`): ensemble states
    have ``num_trials`` inferred (and validated against the argument when
    given); single-trial states are tiled into the required ``num_trials``
    identical starting points.  Per-node states are reduced to their
    sufficient statistics on entry.
    """
    if isinstance(initial_state, (EnsembleState, EnsembleCountsState)):
        if num_trials is not None and num_trials != initial_state.num_trials:
            raise ValueError(
                f"num_trials = {num_trials} disagrees with the ensemble's "
                f"{initial_state.num_trials} trials"
            )
        if isinstance(initial_state, EnsembleCountsState):
            return initial_state.copy()
        return EnsembleCountsState.from_ensemble(initial_state)
    if num_trials is None:
        raise ValueError(
            "num_trials is required when initial_state is a single "
            "PopulationState or CountsState"
        )
    if isinstance(initial_state, CountsState):
        return EnsembleCountsState.from_counts_state(initial_state, num_trials)
    if isinstance(initial_state, PopulationState):
        return EnsembleCountsState.from_state(initial_state, num_trials)
    raise TypeError(
        "initial_state must be a PopulationState, EnsembleState, "
        "CountsState or EnsembleCountsState, got "
        f"{type(initial_state).__name__}"
    )

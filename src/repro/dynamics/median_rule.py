"""The median rule ("stabilizing consensus with the power of two choices", [15]).

Opinions are interpreted as *ordered* values ``1 < 2 < … < k``.  In each
round every node observes the values of two uniformly random nodes and moves
to the median of the multiset {own value, first observation, second
observation}.  Doerr et al. [15] show this converges quickly to a value
between the 1/3- and 2/3-quantile of the initial values and tolerates
``O(sqrt(n))`` adversarial corruptions per round; under the plurality-
consensus reading used by the paper's related-work section it is a median
(not plurality) computation, which is exactly why it is an interesting
contrast in the baseline comparison.

Undecided nodes adopt the first opinion they observe and do not otherwise
participate in the median computation; observations pass through the noise
matrix like every other baseline.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.state import EnsembleCountsState, EnsembleState, PopulationState
from repro.dynamics.base import (
    EnsembleCountsDynamics,
    EnsembleOpinionDynamics,
    OpinionDynamics,
)
from repro.utils.rng import EnsembleRandomState

__all__ = [
    "MedianRuleDynamics",
    "EnsembleMedianRuleDynamics",
    "EnsembleCountsMedianRuleDynamics",
]


def _median_rule_update(
    current: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """The median-of-three transition, shape-agnostic (``(n,)`` or ``(R, n)``)."""
    # Undecided nodes adopt the first opinion they see.
    undecided = current == 0
    adopted = np.where(first > 0, first, second)
    new_opinions = current.copy()
    new_opinions[undecided] = adopted[undecided]
    # Opinionated nodes with two valid observations take the median of the
    # three values; with one valid observation the median of a pair is
    # defined here as the own value (no move), matching the conservative
    # reading of the rule.
    both_valid = (first > 0) & (second > 0) & (current > 0)
    if np.any(both_valid):
        stacked = np.stack(
            [current[both_valid], first[both_valid], second[both_valid]]
        )
        new_opinions[both_valid] = np.median(stacked, axis=0).astype(np.int64)
    return new_opinions


class MedianRuleDynamics(OpinionDynamics):
    """Move to the median of own value and two noisy observations."""

    name = "median-rule"

    def step(self, state: PopulationState) -> None:
        """One round of the median-of-three update."""
        self._check_state(state)
        first = self.pull.observe_single(state.opinions)
        second = self.pull.observe_single(state.opinions)
        state.opinions[:] = _median_rule_update(state.opinions, first, second)


class EnsembleMedianRuleDynamics(EnsembleOpinionDynamics):
    """The median rule batched over ``R`` independent trials."""

    name = "median-rule"

    def step(
        self, state: EnsembleState, random_state: EnsembleRandomState
    ) -> None:
        """One round of the median-of-three rule over the whole batch."""
        first = self.pull.observe_single(state.opinions, random_state)
        second = self.pull.observe_single(state.opinions, random_state)
        state.opinions[:] = _median_rule_update(state.opinions, first, second)


@lru_cache(maxsize=None)
def _median_transition_tensor(num_opinions: int) -> np.ndarray:
    """One-hot transition tensor of the deterministic median-of-three rule.

    Entry ``(g, f * (k + 1) + s, v)`` is 1 iff a node with current value
    ``g`` (0 = undecided) that observed the ordered pair ``(f, s)`` ends the
    round with value ``v`` — the exact tabulation of
    :func:`_median_rule_update`, which lets the counts engine turn grouped
    pair-observation counts into new value counts with one ``einsum``.
    """
    width = num_opinions + 1
    tensor = np.zeros((width, width * width, width), dtype=np.int64)
    for own in range(width):
        for first in range(width):
            for second in range(width):
                if own == 0:
                    new = first if first > 0 else second
                elif first > 0 and second > 0:
                    new = int(np.median([own, first, second]))
                else:
                    new = own
                tensor[own, first * width + second, new] = 1
    tensor.setflags(write=False)
    return tensor


# reprolint: counts-tier
class EnsembleCountsMedianRuleDynamics(EnsembleCountsDynamics):
    """The median rule on sufficient statistics (counts engine).

    The rule needs the joint of a node's own value and *both* observations,
    so the grouped draw runs over ordered observation pairs — ``O(k^3)``
    work per trial per round, still independent of ``n``.  The
    median-of-three map itself is deterministic, so the pair counts are
    pushed through a precomputed one-hot transition tensor.
    """

    name = "median-rule"

    def step(
        self, state: EnsembleCountsState, random_state: EnsembleRandomState
    ) -> None:
        """One round of the median-of-three rule, exactly in distribution."""
        pairs = self.pull.observe_pair_grouped(state.counts, random_state)
        transition = _median_transition_tensor(state.num_opinions)
        new_values = np.einsum("rgp,gpv->rv", pairs, transition)
        state.counts[:] = new_values[:, 1:]

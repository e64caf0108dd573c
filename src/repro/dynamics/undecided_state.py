"""The undecided-state dynamics [5, 8].

Each node observes the opinion of one uniformly random node per round and
updates as follows:

* an *opinionated* node that observes a different opinion becomes undecided
  (it drops its opinion but remembers nothing about the conflict);
* an *undecided* node that observes an opinion adopts it;
* otherwise (same opinion observed, or nothing observed because the target
  was undecided) the node keeps its state.

This is the classical "undecided state dynamic" population-protocol rule,
transplanted to the synchronous uniform gossip model as in [8].  As with the
other baselines, observations are corrupted by the noise matrix so the
dynamic can be benchmarked under the paper's noise assumption.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import EnsembleCountsState, EnsembleState, PopulationState
from repro.dynamics.base import (
    EnsembleCountsDynamics,
    EnsembleOpinionDynamics,
    OpinionDynamics,
)
from repro.utils.rng import EnsembleRandomState

__all__ = [
    "UndecidedStateDynamics",
    "EnsembleUndecidedStateDynamics",
    "EnsembleCountsUndecidedStateDynamics",
]


def _undecided_state_update(current: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """The undecided-state transition, shape-agnostic (``(n,)`` or ``(R, n)``)."""
    saw_opinion = observed > 0
    # Opinionated nodes observing a *different* opinion become undecided.
    conflict = saw_opinion & (current > 0) & (observed != current)
    # Undecided nodes observing any opinion adopt it.
    adoption = saw_opinion & (current == 0)
    new_opinions = current.copy()
    new_opinions[conflict] = 0
    new_opinions[adoption] = observed[adoption]
    return new_opinions


class UndecidedStateDynamics(OpinionDynamics):
    """One-observation dynamics with an intermediate undecided state."""

    name = "undecided-state"

    def step(self, state: PopulationState) -> None:
        """One round of the undecided-state update rule."""
        self._check_state(state)
        observed = self.pull.observe_single(state.opinions)
        state.opinions[:] = _undecided_state_update(state.opinions, observed)


class EnsembleUndecidedStateDynamics(EnsembleOpinionDynamics):
    """The undecided-state dynamics batched over ``R`` independent trials."""

    name = "undecided-state"

    def step(
        self, state: EnsembleState, random_state: EnsembleRandomState
    ) -> None:
        """One round of the undecided-state rule over the whole batch."""
        observed = self.pull.observe_single(state.opinions, random_state)
        state.opinions[:] = _undecided_state_update(state.opinions, observed)


# reprolint: counts-tier
class EnsembleCountsUndecidedStateDynamics(EnsembleCountsDynamics):
    """The undecided-state dynamics on sufficient statistics (counts engine).

    The prototypical *own-opinion-dependent* rule: a node's reaction to an
    observation depends on whether it matches its current opinion, so the
    update reads the full grouped observation tensor — supporters of ``j``
    after the round are the undecided nodes that observed ``j`` plus the
    current ``j``-supporters that observed ``j`` or nothing; everyone else
    who saw a conflicting opinion drops to undecided.
    """

    name = "undecided-state"

    def step(
        self, state: EnsembleCountsState, random_state: EnsembleRandomState
    ) -> None:
        """One round of the undecided-state rule, exactly in distribution."""
        observed = self.pull.observe_single_grouped(state.counts, random_state)
        num_opinions = state.num_opinions
        diagonal = np.arange(num_opinions)
        adopted = observed[:, 0, 1:]
        kept_nothing = observed[:, 1:, 0]
        kept_same = observed[:, diagonal + 1, diagonal + 1]
        state.counts[:] = adopted + kept_nothing + kept_same

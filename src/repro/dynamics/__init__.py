"""Baseline opinion dynamics from the literature the paper compares against.

The related-work section of the paper situates its protocol among several
elementary dynamics that solve (noise-free) plurality or majority consensus:

* the **3-majority dynamics** [9] and its **h-majority** generalization
  [13, 1]: every node samples the opinion of ``h`` random nodes and adopts
  the most frequent observed opinion;
* the **undecided-state dynamics** [5, 8]: a node observing a conflicting
  opinion first becomes undecided, and an undecided node adopts the next
  opinion it observes;
* the **median rule / power of two choices** [15]: opinions are treated as
  ordered values and every node moves to the median of its own value and two
  sampled values;
* the plain **voter model**: every node copies one random node's opinion;
* **approximate consensus** (midpoint of extremes over ``n - f`` accepted
  values, in the style of Byzantine approximate agreement): every node
  moves to the midpoint of the smallest and largest opinion among the
  values it accepts, for a phase budget derived from the target precision.

These baselines run here on the same noisy uniform communication substrate
(every observation corrupted by the noise matrix), which is what experiment
E12 uses to show where the paper's two-stage protocol wins: the elementary
dynamics are fast without noise but are not designed to withstand a constant
per-message corruption probability.

Every rule comes in three engines: the sequential :class:`OpinionDynamics`
subclasses (the reference implementations), the batched
:class:`EnsembleOpinionDynamics` subclasses that evolve ``R`` independent
trials over an ``(R, n)`` matrix at once, and the counts-based
:class:`EnsembleCountsDynamics` subclasses that evolve only the ``(R, k)``
opinion-count sufficient statistics — ``O(k^2)`` per round independent of
``n``, which is what scales the baselines to millions of nodes.

Engines are built by the unified ``(tier, rule)`` registry of
:func:`repro.sim.engines.build_dynamics` (or, one level up, by
``simulate(Scenario(workload="dynamics", rule=...))``), the one factory
for every tier.
"""

from __future__ import annotations

from repro.dynamics.approximate_consensus import (
    ApproximateConsensusDynamics,
    EnsembleApproximateConsensusDynamics,
    EnsembleCountsApproximateConsensusDynamics,
)
from repro.dynamics.base import (
    DynamicsResult,
    EnsembleCountsDynamics,
    EnsembleDynamicsResult,
    EnsembleOpinionDynamics,
    OpinionDynamics,
)
from repro.dynamics.h_majority import (
    EnsembleCountsHMajorityDynamics,
    EnsembleCountsThreeMajorityDynamics,
    EnsembleHMajorityDynamics,
    EnsembleThreeMajorityDynamics,
    HMajorityDynamics,
    ThreeMajorityDynamics,
)
from repro.dynamics.median_rule import (
    EnsembleCountsMedianRuleDynamics,
    EnsembleMedianRuleDynamics,
    MedianRuleDynamics,
)
from repro.dynamics.undecided_state import (
    EnsembleCountsUndecidedStateDynamics,
    EnsembleUndecidedStateDynamics,
    UndecidedStateDynamics,
)
from repro.dynamics.voter import (
    EnsembleCountsVoterDynamics,
    EnsembleVoterDynamics,
    VoterDynamics,
)

__all__ = [
    "DYNAMICS_RULES",
    "ApproximateConsensusDynamics",
    "DynamicsResult",
    "EnsembleApproximateConsensusDynamics",
    "EnsembleCountsApproximateConsensusDynamics",
    "EnsembleCountsDynamics",
    "EnsembleCountsHMajorityDynamics",
    "EnsembleCountsMedianRuleDynamics",
    "EnsembleCountsThreeMajorityDynamics",
    "EnsembleCountsUndecidedStateDynamics",
    "EnsembleCountsVoterDynamics",
    "EnsembleDynamicsResult",
    "EnsembleHMajorityDynamics",
    "EnsembleMedianRuleDynamics",
    "EnsembleOpinionDynamics",
    "EnsembleThreeMajorityDynamics",
    "EnsembleUndecidedStateDynamics",
    "EnsembleVoterDynamics",
    "HMajorityDynamics",
    "MedianRuleDynamics",
    "OpinionDynamics",
    "ThreeMajorityDynamics",
    "UndecidedStateDynamics",
    "VoterDynamics",
]

#: Rule names accepted by :func:`repro.sim.engines.build_dynamics`.
DYNAMICS_RULES = (
    "voter",
    "3-majority",
    "h-majority",
    "undecided-state",
    "median-rule",
    "approximate-consensus",
)


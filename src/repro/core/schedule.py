"""Phase schedules for the two-stage protocol (Section 3.1).

Stage 1 is split into ``T + 2`` phases:

* phase 0 lasts ``(s / eps^2) * log n`` rounds,
* phases ``1 .. T`` last ``beta / eps^2`` rounds each, with
  ``T = floor( log(n / (2 (s/eps^2) log n)) / log(beta/eps^2 + 1) )``,
* phase ``T + 1`` lasts ``(phi / eps^2) * log n`` rounds,

for constants ``phi > beta > s``.  Stage 2 is split into ``T' + 1`` phases
with ``T' = ceil( log( sqrt(n) / log n ) )``; phases ``0 .. T'-1`` last
``2 * l`` rounds with ``l = ceil(c / eps^2)`` and the final phase lasts
``2 * l'`` rounds with ``l' = Theta(eps^-2 log n)``.

Total running time is ``O(log n / eps^2)`` rounds, which experiment E1
verifies empirically.  All logarithms here are base 2 (the choice only
rescales the constants, not the asymptotics); phase lengths are rounded up
and floored at one round so that small populations still get a well-formed
schedule.  The multiplicative constants default to small values suitable for
laptop-scale simulation and can be overridden.

Every executed phase of either stage, on every engine tier, is reported as
one :class:`PhaseRecord`: the paper measures each phase in the same terms
(the distribution ``c(tau_j)``, its bias toward ``m`` and the opinionated
count — Lemmas 4, 6 and 7 for Stage 1, Lemma 12 for Stage 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.state import distribution_biases
from repro.utils.validation import require_positive, require_positive_int

__all__ = [
    "Stage1Schedule",
    "Stage2Schedule",
    "ProtocolSchedule",
    "PhaseRecord",
    "theoretical_round_complexity",
]

#: Default Stage-1 constants (the paper requires ``phi > beta > s > 0``).
DEFAULT_S = 1.0
DEFAULT_BETA = 2.0
DEFAULT_PHI = 3.0
#: Default Stage-2 constants: ``c`` sets the short-phase sample size ``l`` and
#: ``c_final`` sets the long final phase ``l'``.  The paper only requires the
#: constants to be "large enough"; these defaults are calibrated so that the
#: w.h.p. statements hold at the laptop scales used in the experiments
#: (hundreds to tens of thousands of nodes).
DEFAULT_C = 3.0
DEFAULT_C_FINAL = 3.0


def _log2(value: float) -> float:
    return math.log2(max(value, 1e-300))


def theoretical_round_complexity(num_nodes: int, epsilon: float) -> float:
    """The paper's asymptotic running time ``log(n) / eps^2`` (no constants).

    Experiments fit measured running times against this quantity.
    """
    num_nodes = require_positive_int(num_nodes, "num_nodes")
    epsilon = require_positive(epsilon, "epsilon")
    return _log2(num_nodes) / (epsilon * epsilon)


@dataclass(frozen=True)
class Stage1Schedule:
    """The Stage-1 phase structure.

    Attributes
    ----------
    phase_lengths:
        Rounds per phase; entry 0 is phase 0, the last entry is phase ``T+1``.
    epsilon:
        The noise parameter the schedule was built for.
    constants:
        The ``(s, beta, phi)`` constants used.
    """

    phase_lengths: List[int]
    epsilon: float
    constants: tuple = (DEFAULT_S, DEFAULT_BETA, DEFAULT_PHI)

    @property
    def num_phases(self) -> int:
        """Number of phases ``T + 2``."""
        return len(self.phase_lengths)

    @property
    def num_growth_phases(self) -> int:
        """The paper's ``T`` (number of intermediate growth phases)."""
        return max(0, self.num_phases - 2)

    @property
    def total_rounds(self) -> int:
        """Total number of Stage-1 rounds."""
        return int(sum(self.phase_lengths))

    @classmethod
    def for_population(
        cls,
        num_nodes: int,
        epsilon: float,
        *,
        initial_opinionated: int = 1,
        s: float = DEFAULT_S,
        beta: float = DEFAULT_BETA,
        phi: float = DEFAULT_PHI,
        round_scale: float = 1.0,
    ) -> "Stage1Schedule":
        """Build the Stage-1 schedule for an ``n``-node population.

        Parameters
        ----------
        num_nodes, epsilon:
            Population size and noise parameter.
        initial_opinionated:
            Number of nodes already opinionated at the start of Stage 1
            (1 for rumor spreading; ``|S|`` for plurality consensus, which
            shortens or removes the growth phases).
        s, beta, phi:
            The paper's Stage-1 constants (must satisfy ``phi > beta > s > 0``).
        round_scale:
            Multiplier applied to all phase lengths; values below 1 produce a
            cheaper schedule for quick experiments (at the cost of the w.h.p.
            guarantee), values above 1 strengthen the guarantee.
        """
        num_nodes = require_positive_int(num_nodes, "num_nodes")
        epsilon = require_positive(epsilon, "epsilon")
        initial_opinionated = require_positive_int(
            initial_opinionated, "initial_opinionated"
        )
        round_scale = require_positive(round_scale, "round_scale")
        if not (phi > beta > s > 0):
            raise ValueError(
                f"constants must satisfy phi > beta > s > 0, got "
                f"s={s}, beta={beta}, phi={phi}"
            )
        if initial_opinionated > num_nodes:
            raise ValueError(
                "initial_opinionated cannot exceed num_nodes "
                f"({initial_opinionated} > {num_nodes})"
            )

        log_n = max(_log2(num_nodes), 1.0)
        inv_eps_sq = 1.0 / (epsilon * epsilon)

        def rounds(value: float) -> int:
            return max(1, int(math.ceil(value * round_scale)))

        phase0_length = rounds(s * inv_eps_sq * log_n)
        growth_length = rounds(beta * inv_eps_sq)
        final_length = rounds(phi * inv_eps_sq * log_n)

        # Number of growth phases T: enough for the opinionated set, which
        # multiplies by ~(beta/eps^2 + 1) per phase, to reach Theta(eps^2 n)
        # starting from the ~ (s/eps^2) log n nodes informed in phase 0 (or
        # from initial_opinionated if that is already larger).
        after_phase0 = max(
            float(initial_opinionated), min(s * inv_eps_sq * log_n, float(num_nodes))
        )
        growth_factor = beta * inv_eps_sq + 1.0
        target = num_nodes / (2.0 * s * inv_eps_sq * log_n)
        if after_phase0 >= num_nodes or target <= 1.0:
            num_growth_phases = 0
        else:
            num_growth_phases = int(
                math.floor(_log2(num_nodes / (2.0 * after_phase0))
                           / _log2(growth_factor))
            )
            num_growth_phases = max(0, num_growth_phases)

        phase_lengths = (
            [phase0_length]
            + [growth_length] * num_growth_phases
            + [final_length]
        )
        return cls(
            phase_lengths=phase_lengths,
            epsilon=epsilon,
            constants=(s, beta, phi),
        )


@dataclass(frozen=True)
class Stage2Schedule:
    """The Stage-2 phase structure.

    Attributes
    ----------
    phase_lengths:
        Rounds per phase (each phase lasts ``2 * sample_size`` rounds).
    sample_sizes:
        The per-phase sample size ``L`` (``l`` for the short phases, ``l'``
        for the final long phase); a node only updates its opinion at the end
        of a phase if it received at least ``L`` messages.
    epsilon:
        The noise parameter the schedule was built for.
    """

    phase_lengths: List[int]
    sample_sizes: List[int]
    epsilon: float

    def __post_init__(self) -> None:
        if len(self.phase_lengths) != len(self.sample_sizes):
            raise ValueError(
                "phase_lengths and sample_sizes must have the same length"
            )

    @property
    def num_phases(self) -> int:
        """Number of Stage-2 phases ``T' + 1``."""
        return len(self.phase_lengths)

    @property
    def total_rounds(self) -> int:
        """Total number of Stage-2 rounds."""
        return int(sum(self.phase_lengths))

    @classmethod
    def for_population(
        cls,
        num_nodes: int,
        epsilon: float,
        *,
        c: float = DEFAULT_C,
        c_final: float = DEFAULT_C_FINAL,
        odd_sample_size: bool = True,
        round_scale: float = 1.0,
    ) -> "Stage2Schedule":
        """Build the Stage-2 schedule for an ``n``-node population.

        Parameters
        ----------
        num_nodes, epsilon:
            Population size and noise parameter.
        c, c_final:
            The constants defining the short-phase sample size
            ``l = ceil(c / eps^2)`` and the final-phase sample size
            ``l' = ceil(c_final * log n / eps^2)``.
        odd_sample_size:
            Round sample sizes up to an odd number (the analysis assumes odd
            ``l``; Appendix C shows the assumption is harmless, and the
            parity experiment E10 verifies it).
        round_scale:
            Multiplier on the number of *phases* is never touched, but phase
            lengths/sample sizes are scaled by this factor (values below 1
            weaken the w.h.p. guarantee).
        """
        num_nodes = require_positive_int(num_nodes, "num_nodes")
        epsilon = require_positive(epsilon, "epsilon")
        round_scale = require_positive(round_scale, "round_scale")
        require_positive(c, "c")
        require_positive(c_final, "c_final")

        log_n = max(_log2(num_nodes), 1.0)
        inv_eps_sq = 1.0 / (epsilon * epsilon)

        def as_sample(value: float) -> int:
            size = max(1, int(math.ceil(value * round_scale)))
            if odd_sample_size and size % 2 == 0:
                size += 1
            return size

        short_sample = as_sample(c * inv_eps_sq)
        final_sample = as_sample(c_final * inv_eps_sq * log_n)
        # T' = ceil(log(sqrt(n)/log n)) short phases, plus one extra phase of
        # slack: the per-phase amplification factor is a constant > 1 rather
        # than exactly 2 at small n, and the extra 2*l rounds are negligible
        # next to the final phase.
        num_short_phases = 1 + max(
            1, int(math.ceil(_log2(max(math.sqrt(num_nodes) / log_n, 2.0))))
        )
        sample_sizes = [short_sample] * num_short_phases + [final_sample]
        phase_lengths = [2 * size for size in sample_sizes]
        return cls(
            phase_lengths=phase_lengths,
            sample_sizes=sample_sizes,
            epsilon=epsilon,
        )


@dataclass(frozen=True)
class ProtocolSchedule:
    """The full two-stage schedule."""

    stage1: Stage1Schedule
    stage2: Stage2Schedule

    @property
    def total_rounds(self) -> int:
        """Total number of rounds over both stages."""
        return self.stage1.total_rounds + self.stage2.total_rounds

    @classmethod
    def for_population(
        cls,
        num_nodes: int,
        epsilon: float,
        *,
        initial_opinionated: int = 1,
        round_scale: float = 1.0,
        stage1_constants: Optional[tuple] = None,
        stage2_constants: Optional[tuple] = None,
    ) -> "ProtocolSchedule":
        """Build both stages' schedules with consistent parameters."""
        s, beta, phi = stage1_constants or (DEFAULT_S, DEFAULT_BETA, DEFAULT_PHI)
        c, c_final = stage2_constants or (DEFAULT_C, DEFAULT_C_FINAL)
        stage1 = Stage1Schedule.for_population(
            num_nodes,
            epsilon,
            initial_opinionated=initial_opinionated,
            s=s,
            beta=beta,
            phi=phi,
            round_scale=round_scale,
        )
        stage2 = Stage2Schedule.for_population(
            num_nodes,
            epsilon,
            c=c,
            c_final=c_final,
            round_scale=round_scale,
        )
        return cls(stage1=stage1, stage2=stage2)


@dataclass(frozen=True)
class PhaseRecord:
    """What one phase of either stage did, with a leading trial axis.

    The sequential executors emit one-row records; the batched and counts
    executors one row per trial.

    Attributes
    ----------
    phase_index:
        Phase number within its stage (0-based; the paper's ``j``).
    num_rounds:
        Rounds the phase lasted.
    sample_size:
        Stage 2's sample size ``L``; ``None`` for a Stage-1 phase.
    opinionated_before, opinionated_after:
        ``(R,)`` opinionated-node counts at the start and end of the phase.
    updated_nodes:
        ``(R,)`` nodes that acted at the end of the phase: Stage 1's
        adopters (the paper's ``|S_j|``), Stage 2's re-voters (nodes that
        received at least ``L`` messages).
    opinion_distributions:
        ``(R, k)`` matrix ``c(tau_j)``: per-opinion fraction of all nodes
        after the phase.
    bias:
        ``(R,)`` bias of ``c(tau_j)`` toward the tracked opinion ``m``
        after the phase; ``None`` when no opinion is tracked.
    messages_sent:
        ``(R,)`` messages pushed during the phase.
    """

    phase_index: int
    num_rounds: int
    sample_size: Optional[int]
    opinionated_before: np.ndarray
    opinionated_after: np.ndarray
    updated_nodes: np.ndarray
    opinion_distributions: np.ndarray
    bias: Optional[np.ndarray]
    messages_sent: np.ndarray

    @classmethod
    def after_phase(
        cls,
        phase_index: int,
        num_rounds: int,
        sample_size: Optional[int],
        *,
        counts: np.ndarray,
        num_nodes: Union[int, np.ndarray],
        opinionated_before: Union[int, np.ndarray],
        updated_nodes: Union[int, np.ndarray],
        messages_sent: Union[int, np.ndarray],
        track_opinion: Optional[int],
    ) -> "PhaseRecord":
        """The record of a phase that left ``counts`` opinion supporters.

        ``counts`` is the ``(R, k)`` (or, for one trial, ``(k,)``) opinion
        count matrix after the phase; the per-trial scalars may be plain
        numbers for one trial.  Distribution, bias and opinionated count
        all derive from ``counts``, so no tier rescans its nodes for them.
        """
        counts = np.atleast_2d(counts)
        distributions = counts / num_nodes
        bias = None
        if track_opinion is not None:
            if not 1 <= track_opinion <= counts.shape[1]:
                raise ValueError(
                    f"opinion must be in [1, {counts.shape[1]}], "
                    f"got {track_opinion}"
                )
            bias = distribution_biases(distributions, track_opinion)
        return cls(
            phase_index=phase_index,
            num_rounds=num_rounds,
            sample_size=sample_size,
            opinionated_before=_trial_column(opinionated_before),
            opinionated_after=counts.sum(axis=1, dtype=np.int64),
            updated_nodes=_trial_column(updated_nodes),
            opinion_distributions=distributions,
            bias=bias,
            messages_sent=_trial_column(messages_sent),
        )

    @classmethod
    def concatenate(cls, records: Sequence["PhaseRecord"]) -> "PhaseRecord":
        """One phase's records of several trial batches, stacked in order."""
        first = records[0]
        phase = (first.phase_index, first.num_rounds, first.sample_size)
        if any(
            (record.phase_index, record.num_rounds, record.sample_size) != phase
            for record in records
        ):
            raise ValueError("records of different phases cannot be stacked")
        biases = [record.bias for record in records]
        return cls(
            *phase,
            opinionated_before=np.concatenate(
                [record.opinionated_before for record in records]
            ),
            opinionated_after=np.concatenate(
                [record.opinionated_after for record in records]
            ),
            updated_nodes=np.concatenate(
                [record.updated_nodes for record in records]
            ),
            opinion_distributions=np.concatenate(
                [record.opinion_distributions for record in records]
            ),
            bias=(
                None
                if any(bias is None for bias in biases)
                else np.concatenate(biases)
            ),
            messages_sent=np.concatenate(
                [record.messages_sent for record in records]
            ),
        )


def _trial_column(values: Union[int, np.ndarray]) -> np.ndarray:
    """Per-trial counts as an int64 ``(R,)`` array (a scalar is one trial)."""
    return np.atleast_1d(np.asarray(values, dtype=np.int64))

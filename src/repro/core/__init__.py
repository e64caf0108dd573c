"""The paper's primary contribution: the two-stage noisy gossip protocol.

This subpackage implements the protocol of Section 3.1 and the two problem
wrappers built on top of it:

* :mod:`repro.core.state` — the population state (opinion vector, opinionated
  fraction ``a(t)``, opinion distribution ``c(t)``, bias);
* :mod:`repro.core.schedule` — the exact phase schedules of Stage 1 and
  Stage 2 (phase counts ``T``, ``T'`` and per-phase round counts) and the
  one :class:`~repro.core.schedule.PhaseRecord` every executed phase emits;
* :mod:`repro.core.stage1` — the Stage-1 rule (spread the rumor while
  preserving a bias toward the correct opinion);
* :mod:`repro.core.stage2` — the Stage-2 rule (amplify the bias by repeated
  sample-majority updates);
* :mod:`repro.core.protocol` — the combined two-stage protocol;
* :mod:`repro.core.rumor` / :mod:`repro.core.plurality` — the rumor-spreading
  and plurality-consensus problem set-ups of Theorems 1 and 2;
* :mod:`repro.core.sampling` — the per-node reservoir sampler (footnote 4);
* :mod:`repro.core.memory` — per-node memory accounting in bits.
"""

from repro.core.memory import MemoryUsage, memory_bound_bits, protocol_memory_usage
from repro.core.plurality import PluralityConsensus, PluralityInstance
from repro.core.protocol import CountsProtocol, ProtocolResult, TwoStageProtocol
from repro.core.rumor import RumorSpreading, RumorSpreadingInstance
from repro.core.sampling import ReservoirSampler
from repro.core.schedule import (
    PhaseRecord,
    ProtocolSchedule,
    Stage1Schedule,
    Stage2Schedule,
)
from repro.core.stage1 import CountsStage1Executor, Stage1Executor
from repro.core.stage2 import CountsStage2Executor, Stage2Executor
from repro.core.state import CountsState, EnsembleCountsState, PopulationState

__all__ = [
    "CountsProtocol",
    "CountsStage1Executor",
    "CountsStage2Executor",
    "CountsState",
    "EnsembleCountsState",
    "MemoryUsage",
    "PhaseRecord",
    "PluralityConsensus",
    "PluralityInstance",
    "PopulationState",
    "ProtocolResult",
    "ProtocolSchedule",
    "ReservoirSampler",
    "RumorSpreading",
    "RumorSpreadingInstance",
    "Stage1Executor",
    "Stage1Schedule",
    "Stage2Executor",
    "Stage2Schedule",
    "TwoStageProtocol",
    "memory_bound_bits",
    "protocol_memory_usage",
]

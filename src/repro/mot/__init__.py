"""Multiple observation time fault simulation.

The proposed procedure (state expansion + backward implications) and the
state-expansion-only baseline of reference [4], plus their building
blocks: the frame implication engine, the backward-implication collector,
condition (C), Procedure-2 expansion and Section-3.4 resimulation.
"""

from repro.mot.backward import BackwardCollector, PairInfo, detection_from_info
from repro.mot.baseline import BaselineConfig, BaselineSimulator
from repro.mot.conditions import MotProfile, mot_profile
from repro.mot.expansion import (
    DEFAULT_N_STATES,
    ExpansionOutcome,
    SequenceSet,
    StateSequence,
    expand,
)
from repro.mot.implication import FrameEngine
from repro.mot.resimulate import (
    Resolution,
    SequenceStatus,
    resimulate_sequence,
    resolve_sequences,
)
from repro.mot.analysis import CampaignDiff, diff_campaigns, render_diff
from repro.mot.witness import (
    DetectionWitness,
    WitnessCase,
    build_witness,
    check_witness,
)
from repro.mot.unrestricted import (
    UnrestrictedConfig,
    UnrestrictedSimulator,
    expand_fault_free_references,
)
from repro.mot.simulator import (
    Campaign,
    FaultCounters,
    FaultVerdict,
    MotConfig,
    ProposedSimulator,
)

__all__ = [
    "FrameEngine",
    "MotProfile",
    "mot_profile",
    "BackwardCollector",
    "PairInfo",
    "detection_from_info",
    "SequenceSet",
    "StateSequence",
    "ExpansionOutcome",
    "expand",
    "DEFAULT_N_STATES",
    "SequenceStatus",
    "Resolution",
    "resolve_sequences",
    "resimulate_sequence",
    "MotConfig",
    "FaultCounters",
    "FaultVerdict",
    "Campaign",
    "ProposedSimulator",
    "BaselineConfig",
    "BaselineSimulator",
    "UnrestrictedConfig",
    "UnrestrictedSimulator",
    "expand_fault_free_references",
    "DetectionWitness",
    "WitnessCase",
    "build_witness",
    "check_witness",
    "CampaignDiff",
    "diff_campaigns",
    "render_diff",
]

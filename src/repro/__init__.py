"""repro: multiple-observation-time fault simulation with backward implications.

A from-scratch reproduction of Pomeranz & Reddy, *"Fault Simulation under
the Multiple Observation Time Approach using Backward Implications"*
(DAC 1997), including every substrate the paper depends on: a gate-level
netlist model with ISCAS-89 ``.bench`` I/O, three-valued sequential
simulation, a single stuck-at fault model with collapsing and injection,
a conventional fault simulator, the state-expansion baseline of
reference [4], and the proposed backward-implication procedure.

Typical use (doctest style; library code itself never prints --
results come back as values, enforced by ``tools/repro_lint.py``):

    >>> from repro import s27, collapse_faults, random_patterns
    >>> from repro import ProposedSimulator
    >>> circuit = s27()
    >>> faults = collapse_faults(circuit)
    >>> patterns = random_patterns(circuit.num_inputs, length=32, seed=1)
    >>> campaign = ProposedSimulator(circuit, patterns).run(faults)
    >>> campaign.total_detected <= campaign.total
    True
"""

from repro.analysis import lint_circuit, lint_path
from repro.circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    circuit_stats,
    load_bench,
    parse_bench,
    save_bench,
    write_bench,
)
from repro.errors import (
    BudgetExceeded,
    CampaignInterrupted,
    FaultModelError,
    JournalError,
    ReproError,
)
from repro.circuits import fig4, s27
from repro.faults import Fault, all_faults, collapse_faults, inject_fault
from repro.fsim import run_conventional
from repro.logic import ONE, UNKNOWN, ZERO
from repro.mot import (
    BaselineConfig,
    BaselineSimulator,
    Campaign,
    DetectionWitness,
    FaultVerdict,
    MotConfig,
    ProposedSimulator,
    UnrestrictedConfig,
    UnrestrictedSimulator,
    build_witness,
    check_witness,
)
from repro.patterns import (
    greedy_deterministic_sequence,
    random_patterns,
    weighted_random_patterns,
)
from repro.runner import (
    CampaignHarness,
    CampaignJournal,
    FaultBudget,
    HarnessConfig,
)
from repro.sim import simulate_injected, simulate_sequence
from repro.verify import exhaustive_restricted_mot, exhaustive_unrestricted_mot

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "ReproError",
    "FaultModelError",
    "BudgetExceeded",
    "CampaignInterrupted",
    "JournalError",
    "FaultBudget",
    "CampaignHarness",
    "HarnessConfig",
    "CampaignJournal",
    "parse_bench",
    "load_bench",
    "write_bench",
    "save_bench",
    "circuit_stats",
    "s27",
    "fig4",
    "Fault",
    "all_faults",
    "collapse_faults",
    "inject_fault",
    "run_conventional",
    "ZERO",
    "ONE",
    "UNKNOWN",
    "MotConfig",
    "ProposedSimulator",
    "BaselineConfig",
    "BaselineSimulator",
    "Campaign",
    "FaultVerdict",
    "random_patterns",
    "weighted_random_patterns",
    "greedy_deterministic_sequence",
    "simulate_sequence",
    "simulate_injected",
    "exhaustive_restricted_mot",
    "exhaustive_unrestricted_mot",
    "UnrestrictedConfig",
    "UnrestrictedSimulator",
    "DetectionWitness",
    "build_witness",
    "check_witness",
    "lint_circuit",
    "lint_path",
    "__version__",
]

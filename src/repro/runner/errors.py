"""The error taxonomy, re-exported at its documented home.

The classes live in the leaf module :mod:`repro.errors` so that
``circuit``, ``faults`` and ``mot`` can raise them without importing the
runner package (which itself imports the simulators).  Import from
either place; this module is the runner-facing spelling.
"""

from repro.errors import (
    BudgetExceeded,
    CampaignInterrupted,
    CircuitError,
    DistributedFailed,
    FaultModelError,
    JournalError,
    ReproError,
    TransportError,
)

__all__ = [
    "ReproError",
    "CircuitError",
    "FaultModelError",
    "BudgetExceeded",
    "CampaignInterrupted",
    "JournalError",
    "TransportError",
    "DistributedFailed",
]

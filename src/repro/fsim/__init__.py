"""Conventional (single observation time) fault simulation."""

from repro.fsim.conventional import (
    ConventionalCampaign,
    ConventionalVerdict,
    run_conventional,
    simulate_fault,
)
from repro.fsim.parallel import DEFAULT_BATCH, run_parallel_conventional

__all__ = [
    "ConventionalCampaign",
    "ConventionalVerdict",
    "run_conventional",
    "simulate_fault",
    "run_parallel_conventional",
    "DEFAULT_BATCH",
]

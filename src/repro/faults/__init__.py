"""Single stuck-at fault model: sites, collapsing, and injection."""

from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.faults.collapse import collapse_faults
from repro.faults.injection import CONST_LINE_NAME, InjectedFault, inject_fault

__all__ = [
    "Fault",
    "all_faults",
    "collapse_faults",
    "InjectedFault",
    "inject_fault",
    "CONST_LINE_NAME",
]


"""Structural fault-equivalence collapsing.

Two faults are *equivalent* when every test detecting one detects the
other.  The classic structural rules collapse gate-terminal faults:

* AND:  any input stuck-at-0  ==  output stuck-at-0
* NAND: any input stuck-at-0  ==  output stuck-at-1
* OR:   any input stuck-at-1  ==  output stuck-at-1
* NOR:  any input stuck-at-1  ==  output stuck-at-0
* NOT:  input stuck-at-v      ==  output stuck-at-(not v)
* BUF:  input stuck-at-v      ==  output stuck-at-v

Single-input AND/OR gates behave as buffers and single-input NAND/NOR as
inverters, so both polarities collapse for them.  We do not collapse
across flip-flops (the faults differ in detection *time*, which matters to
a sequential fault simulator) and XOR/XNOR inputs are not equivalent to
the output.

The collapsed list retains one representative per equivalence class,
preferring stem faults so that reports read naturally.

The actual partition is computed (and cached per circuit) by
:mod:`repro.analysis.collapse` over the compiled IR; this module keeps
the historical entry point and returns that partition's representative
list, which is identical fault-for-fault to what the original
per-gate-object collapser produced.
"""

from __future__ import annotations

from typing import List

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault


def collapse_faults(circuit: Circuit) -> List[Fault]:
    """Return a collapsed fault list (one representative per class).

    The list is deterministic: representatives appear in the order the
    uncollapsed universe enumerates them.
    """
    # Imported lazily: repro.analysis.collapse imports repro.faults
    # submodules, so a module-level import here would cycle whichever
    # package initializes first.
    from repro.analysis.collapse import fault_classes

    return fault_classes(circuit).representatives()

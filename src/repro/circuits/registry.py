"""Registry of benchmark circuits and their Table-2 workloads.

Maps every circuit row of the paper's Table 2 to the local circuit (the
exact netlist for s27, a documented structural stand-in otherwise) and
the workload parameters (sequence length, seed, optional fault sampling)
used by the experiment drivers.  ``scale_note`` records how a stand-in
deviates from the paper's circuit so benchmark reports can say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.circuit.netlist import Circuit
from repro.circuits import library, standins


@dataclass(frozen=True)
class BenchmarkEntry:
    """One benchmark circuit plus its experiment workload."""

    name: str
    factory: Callable[[], Circuit]
    #: Random-sequence length for the Table 2 experiment.
    sequence_length: int
    #: Seed for the random sequence.
    seed: int
    #: Optional cap on the number of (evenly sampled) faults simulated.
    fault_sample: Optional[int]
    #: How this circuit relates to the paper's circuit.
    scale_note: str
    #: Include the [4] baseline (the paper marks the largest circuits NA).
    run_baseline: bool = True

    def build(self) -> Circuit:
        return self.factory()


_ENTRIES: List[BenchmarkEntry] = [
    BenchmarkEntry(
        "s27", library.s27, 32, 7, None,
        "exact ISCAS-89 netlist (paper Figure 1), 3 FFs",
    ),
    BenchmarkEntry(
        "s208_like", standins.s208_like, 48, 1, None,
        "structural stand-in: loadable counter + compare, 11 FFs",
    ),
    BenchmarkEntry(
        "s298_like", standins.s298_like, 48, 2, None,
        "structural stand-in: traffic-style FSM, 18 FFs",
    ),
    BenchmarkEntry(
        "s344_like", standins.s344_like, 48, 3, None,
        "structural stand-in: shift-add multiplier control, 18 FFs",
    ),
    BenchmarkEntry(
        "s420_like", standins.s420_like, 48, 4, None,
        "structural stand-in: two chained counter stages, 21 FFs",
    ),
    BenchmarkEntry(
        "s641_like", standins.s641_like, 40, 5, None,
        "structural stand-in: registered 4-function ALU, 23 FFs",
    ),
    BenchmarkEntry(
        "s713_like", standins.s713_like, 40, 6, None,
        "structural stand-in: s641_like + redundant consensus logic, "
        "24 FFs",
    ),
    BenchmarkEntry(
        "s1423_like", standins.s1423_like, 48, 8, 400,
        "scaled stand-in (39 FFs vs 74): four-register mixing datapath",
    ),
    BenchmarkEntry(
        "s5378_like", standins.s5378_like, 48, 9, 400,
        "scaled stand-in (50 FFs vs 179): LFSR/shift/counter control mix",
    ),
    BenchmarkEntry(
        "s15850_like", standins.s15850_like, 48, 10, 300,
        "scaled stand-in (63 FFs vs 597): weakly observable control",
        run_baseline=False,
    ),
    BenchmarkEntry(
        "s35932_like", standins.s35932_like, 32, 11, 300,
        "scaled stand-in (71 FFs vs 1728): replicated shallow slices",
        run_baseline=False,
    ),
    BenchmarkEntry(
        "am2910_like", standins.am2910_like, 48, 12, 400,
        "structural stand-in: 4-bit Am2910-style microprogram sequencer, "
        "38 FFs",
    ),
    BenchmarkEntry(
        "mp1_16_like", standins.mp1_16_like, 40, 13, 400,
        "structural stand-in: minimal accumulator processor, 25 FFs",
    ),
    BenchmarkEntry(
        "mp2_like", standins.mp2_like, 40, 14, 400,
        "structural stand-in: two-register processor, weak observability, "
        "37 FFs",
    ),
]

_BY_NAME: Dict[str, BenchmarkEntry] = {entry.name: entry for entry in _ENTRIES}


def benchmark_entries() -> List[BenchmarkEntry]:
    """All Table-2 circuits in paper order."""
    return list(_ENTRIES)


def get_entry(name: str) -> BenchmarkEntry:
    """Look up a benchmark circuit by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


#: Circuits available by name but not part of the Table 2 sweep.
_EXTRA_FACTORIES: Dict[str, Callable[[], Circuit]] = {
    "fig4": library.fig4,
}


def build_circuit(name: str) -> Circuit:
    """Build a circuit by name: a benchmark entry or an extra (fig4)."""
    if name in _EXTRA_FACTORIES:
        return _EXTRA_FACTORIES[name]()
    return get_entry(name).build()

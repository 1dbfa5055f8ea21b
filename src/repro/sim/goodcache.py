"""The campaign's one good-machine (fault-free) simulation.

Every MOT simulator compares faulty responses with the fault-free
response of the circuit under the test sequence, simulated once from
the all-unspecified state.  A simulator receives that response as
``reference_outputs``, or simulates it itself when none is given.
:func:`~repro.runner.campaign.run_campaign` simulates it once per
campaign, through :meth:`GoodMachineCache.compute`, and hands
``.outputs`` to the simulator it builds; ``--workers N`` forks its
local workers from that parent, so they inherit the simulator and
never simulate the good machine again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.circuit.netlist import Circuit
from repro.obs.metrics import get_metrics
from repro.sim.sequential import simulate_sequence

__all__ = ["GoodMachineCache"]


@dataclass(frozen=True)
class GoodMachineCache:
    """The fault-free output response of one (circuit, patterns) pair:
    ``L`` rows of output values.  Treat as read-only."""

    outputs: List[List[int]]

    @classmethod
    def compute(
        cls,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
    ) -> "GoodMachineCache":
        """Simulate the good machine once, on the compiled kernel."""
        metrics = get_metrics()
        metrics.counter("goodcache.compute")
        with metrics.phase("good_sim"):
            result = simulate_sequence(circuit, patterns, engine="ir")
        return cls(outputs=result.outputs)

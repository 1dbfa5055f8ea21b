"""Shared, immutable good-machine (fault-free) simulation cache.

Every MOT simulator needs the fault-free response of the circuit under
the test sequence -- the *good machine* -- as the reference that faulty
responses are compared against.  Historically each simulator instance
computed its own copy in its constructor, so a campaign that builds
several simulators (the proposed procedure plus its forward fallback,
the ``n_references`` runners of the unrestricted simulator) re-simulated
the good machine once per instance.

:class:`GoodMachineCache` computes the fault-free trajectory **once**
per (circuit, pattern sequence) and is then shared read-only:

* :class:`~repro.mot.simulator.ProposedSimulator`,
  :class:`~repro.mot.baseline.BaselineSimulator` and
  :class:`~repro.mot.unrestricted.UnrestrictedSimulator` accept a
  ``good_cache`` argument and skip their own good-machine simulation
  (the unrestricted simulator's reference expansion is the exception:
  it needs the good machine's frames, which the cache does not keep,
  so it simulates the good machine once more itself);
* :func:`~repro.runner.campaign.run_campaign` computes the cache once
  in the parent process; ``--workers N`` forks its local workers
  (:class:`~repro.runner.transport.LocalTransport`) from that parent,
  so ``N`` workers share one good-machine simulation instead of
  computing ``N``.

The cache is a frozen value object and nothing mutates it after
construction (workers only read).  The good machine is always simulated
on the compiled kernel (:mod:`repro.sim.kernel`), and the cache keeps
only what its readers use: the state trajectory and the output
response.  Per-frame line values are not kept -- the faulty machine's
frames, which backward implication starts from, come from each
surviving fault's own simulation.  :meth:`GoodMachineCache.matches`
guards against accidentally applying a cache to a different circuit or
pattern sequence -- a mismatched cache raises instead of silently
producing wrong verdicts.

:func:`shared_good_cache` adds process-local memoization keyed by a
structural fingerprint of the circuit plus the pattern sequence, so
repeated campaign setups inside one process (experiments, benchmarks,
tests) also hit the cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.obs.metrics import get_metrics
from repro.sim.sequential import SequentialResult, simulate_sequence

__all__ = [
    "GoodMachineCache",
    "circuit_fingerprint",
    "shared_good_cache",
    "clear_shared_good_cache",
]


def circuit_fingerprint(circuit: Circuit) -> str:
    """Stable structural digest of *circuit*.

    Covers everything that determines simulation behavior: line names,
    primary inputs/outputs, flip-flop pairings and every gate.  Two
    circuits with the same fingerprint simulate identically, so a cache
    computed for one is valid for the other.
    """
    structure = {
        "name": circuit.name,
        "lines": circuit.line_names,
        "inputs": circuit.inputs,
        "outputs": circuit.outputs,
        "flops": [[f.ps, f.ns] for f in circuit.flops],
        "gates": [
            [g.gate_type.name, g.output, list(g.inputs)]
            for g in circuit.gates
        ],
    }
    encoded = json.dumps(structure, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _pattern_key(patterns: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in patterns)


@dataclass(frozen=True)
class GoodMachineCache:
    """Precomputed fault-free trajectory of one (circuit, patterns) pair.

    Attributes
    ----------
    circuit_name / fingerprint:
        Identity of the circuit the cache was computed for.
    pattern_key:
        The pattern sequence, as nested tuples.
    states / outputs:
        The fault-free state trajectory (``L + 1`` rows) and output
        response (``L`` rows), as plain value lists.  Treat as
        read-only.
    """

    circuit_name: str
    fingerprint: str
    pattern_key: Tuple[Tuple[int, ...], ...]
    states: List[List[int]] = field(repr=False)
    outputs: List[List[int]] = field(repr=False)

    @classmethod
    def compute(
        cls,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
    ) -> "GoodMachineCache":
        """Simulate the good machine once, on the compiled kernel, and
        freeze the trajectory."""
        metrics = get_metrics()
        metrics.counter("goodcache.compute")
        with metrics.phase("good_sim"):
            result = simulate_sequence(circuit, patterns, engine="ir")
        return cls(
            circuit_name=circuit.name,
            fingerprint=circuit_fingerprint(circuit),
            pattern_key=_pattern_key(patterns),
            states=result.states,
            outputs=result.outputs,
        )

    # ------------------------------------------------------------------
    @property
    def result(self) -> SequentialResult:
        """The trajectory as a :class:`SequentialResult` (no frames)."""
        return SequentialResult(states=self.states, outputs=self.outputs)

    @property
    def length(self) -> int:
        return len(self.pattern_key)

    # ------------------------------------------------------------------
    def matches(
        self, circuit: Circuit, patterns: Sequence[Sequence[int]]
    ) -> bool:
        """True when the cache was computed for exactly this workload."""
        return (
            self.pattern_key == _pattern_key(patterns)
            and self.fingerprint == circuit_fingerprint(circuit)
        )

    def require_match(
        self, circuit: Circuit, patterns: Sequence[Sequence[int]]
    ) -> "GoodMachineCache":
        """Return self, or raise when the cache is for another workload."""
        if not self.matches(circuit, patterns):
            raise ValueError(
                f"good-machine cache was computed for "
                f"{self.circuit_name!r} ({self.length} patterns) and does "
                f"not match circuit {circuit.name!r} with "
                f"{len(list(patterns))} patterns"
            )
        return self


# ----------------------------------------------------------------------
# Process-local memoization
# ----------------------------------------------------------------------
_SHARED: Dict[Tuple[str, Tuple[Tuple[int, ...], ...]], GoodMachineCache] = {}
_SHARED_LIMIT = 32


def shared_good_cache(
    circuit: Circuit, patterns: Sequence[Sequence[int]]
) -> GoodMachineCache:
    """Memoized :meth:`GoodMachineCache.compute`.

    Keyed by (circuit fingerprint, pattern sequence); bounded to
    ``_SHARED_LIMIT`` entries with whole-generation eviction (the store
    is a convenience for repeated setups, not a hot path).
    """
    key = (circuit_fingerprint(circuit), _pattern_key(patterns))
    cached = _SHARED.get(key)
    metrics = get_metrics()
    if cached is None:
        metrics.counter("goodcache.memo.miss")
        if len(_SHARED) >= _SHARED_LIMIT:
            _SHARED.clear()
        cached = GoodMachineCache.compute(circuit, patterns)
        _SHARED[key] = cached
    else:
        metrics.counter("goodcache.memo.hit")
    return cached


def clear_shared_good_cache() -> None:
    """Drop every memoized cache (tests and long-lived services)."""
    _SHARED.clear()

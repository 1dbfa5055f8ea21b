"""Shared, immutable good-machine (fault-free) simulation cache.

Every MOT simulator needs the fault-free response of the circuit under
the test sequence -- the *good machine* -- as the reference that faulty
responses are compared against.  Historically each simulator instance
computed its own copy in its constructor, so a campaign that builds
several simulators (the proposed procedure plus its forward fallback,
the ``n_references`` runners of the unrestricted simulator) re-simulated
the good machine once per instance.

:class:`GoodMachineCache` computes the fault-free trajectory **once**
per (circuit, pattern sequence) -- with per-frame line values kept, so
backward implications could start from them too -- and is then shared
read-only:

* :class:`~repro.mot.simulator.ProposedSimulator`,
  :class:`~repro.mot.baseline.BaselineSimulator` and
  :class:`~repro.mot.unrestricted.UnrestrictedSimulator` accept a
  ``good_cache`` argument and skip their own good-machine simulation;
* :func:`~repro.mot.resimulate.resimulate_sequence` accepts a cache in
  place of raw ``reference_outputs``;
* :func:`~repro.runner.campaign.run_campaign` computes the cache once
  in the parent process; ``--workers N`` forks its local workers
  (:class:`~repro.runner.transport.LocalTransport`) from that parent,
  so ``N`` workers share one good-machine simulation instead of
  computing ``N``.

The cache is a frozen value object and nothing mutates it after
construction (workers only read).  Since PR 7 the per-frame line values
are stored as **packed two-plane masks** straight out of the compiled
kernel (:mod:`repro.sim.kernel`): ``line_one[line]`` has bit ``u`` set
when *line* is 1 at time unit *u* (``line_zero`` likewise; neither bit
set means X).  Two arbitrary-precision integers per line replace ``L``
lists of ``num_lines`` values each, which shrinks the cache by roughly
the sequence length; the familiar ``frames`` list shape is decoded
lazily on first access.  :meth:`GoodMachineCache.matches`
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.obs.metrics import get_metrics
from repro.sim.sequential import SequentialResult, simulate_sequence

#: Engine used by :meth:`GoodMachineCache.compute` unless overridden.
#: The compiled kernel and the interpreter are bit-identical (enforced
#: by ``tests/sim/test_ir_differential.py``); "ir" is simply faster.
DEFAULT_ENGINE = "ir"

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


def _pack_frames(
    frames: Sequence[Sequence[int]], num_lines: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Pack per-frame line values into per-line (one, zero) masks.

    Bit *u* of ``one[line]`` is set when *line* is 1 at time unit *u*
    (``zero`` likewise; neither bit set encodes X) -- the transpose of
    the kernel's per-frame planes, packed across the whole sequence.
    """
    ones = [0] * num_lines
    zeros = [0] * num_lines
    for u, row in enumerate(frames):
        bit = 1 << u
        for line, value in enumerate(row):
            if value == ONE:
                ones[line] |= bit
            elif value == ZERO:
                zeros[line] |= bit
    return tuple(ones), tuple(zeros)


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
    line_one / line_zero:
        Packed two-plane encoding of every per-frame line value: bit
        *u* of ``line_one[line]`` set means *line* is 1 at time unit
        *u* (``line_zero`` for 0; neither bit means X).  This is the
        shape the :mod:`repro.sim.kernel` evaluator produces and what
        ships across process boundaries; :attr:`frames` decodes it back
        into the interpreter's list-of-rows shape on first access.
    """

    circuit_name: str
    fingerprint: str
    pattern_key: Tuple[Tuple[int, ...], ...]
    states: List[List[int]] = field(repr=False)
    outputs: List[List[int]] = field(repr=False)
    line_one: Tuple[int, ...] = field(repr=False)
    line_zero: Tuple[int, ...] = field(repr=False)

    @classmethod
    def compute(
        cls,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
        engine: str = DEFAULT_ENGINE,
    ) -> "GoodMachineCache":
        """Simulate the good machine once and freeze the trajectory.

        *engine* selects the simulation backend (``"ir"`` -- the
        compiled two-plane kernel, the default -- or ``"interp"``);
        both produce bit-identical trajectories.
        """
        metrics = get_metrics()
        metrics.counter("goodcache.compute")
        with metrics.phase("good_sim"):
            result = simulate_sequence(
                circuit, patterns, keep_frames=True, engine=engine
            )
        frames = result.frames if result.frames is not None else []
        line_one, line_zero = _pack_frames(frames, circuit.num_lines)
        return cls(
            circuit_name=circuit.name,
            fingerprint=circuit_fingerprint(circuit),
            pattern_key=_pattern_key(patterns),
            states=result.states,
            outputs=result.outputs,
            line_one=line_one,
            line_zero=line_zero,
        )

    # ------------------------------------------------------------------
    @property
    def frames(self) -> Optional[List[List[int]]]:
        """Per-frame line values, decoded lazily from the packed planes.

        The decoded list is memoized on the instance (and dropped when
        pickling -- workers re-decode on demand), so repeated access
        costs one decode per process, not one per call.
        """
        memo: Optional[List[List[int]]] = self.__dict__.get("_frames_memo")
        if memo is None:
            num_lines = len(self.line_one)
            memo = []
            for u in range(self.length):
                bit = 1 << u
                memo.append(
                    [
                        ONE if self.line_one[line] & bit
                        else (ZERO if self.line_zero[line] & bit else UNKNOWN)
                        for line in range(num_lines)
                    ]
                )
            object.__setattr__(self, "_frames_memo", memo)
        return memo

    @property
    def result(self) -> SequentialResult:
        """The trajectory as a :class:`SequentialResult` (lazily built)."""
        memo: Optional[SequentialResult] = self.__dict__.get("_result_memo")
        if memo is None:
            memo = SequentialResult(
                states=self.states, outputs=self.outputs, frames=self.frames
            )
            object.__setattr__(self, "_result_memo", memo)
        return memo

    def frame_planes(self, u: int) -> Tuple[List[int], List[int]]:
        """Width-1 (one, zero) planes of time unit *u*, per line.

        The shape :func:`repro.sim.kernel.eval_pass` consumes directly:
        plane-aware callers seed the kernel from the good machine
        without decoding values first.
        """
        if not 0 <= u < self.length:
            raise IndexError(f"time unit {u} outside 0..{self.length - 1}")
        bit = 1 << u
        ones = [1 if mask & bit else 0 for mask in self.line_one]
        zeros = [1 if mask & bit else 0 for mask in self.line_zero]
        return ones, zeros

    @property
    def length(self) -> int:
        return len(self.pattern_key)

    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle only the packed fields, never the decoded memos."""
        return {
            "circuit_name": self.circuit_name,
            "fingerprint": self.fingerprint,
            "pattern_key": self.pattern_key,
            "states": self.states,
            "outputs": self.outputs,
            "line_one": self.line_one,
            "line_zero": self.line_zero,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

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

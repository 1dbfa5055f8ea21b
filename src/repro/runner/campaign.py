"""Programmatic campaign entrypoint shared by the CLI and the service.

:func:`run_campaign` is the single place that turns a declarative
:class:`CampaignSpec` -- workload, simulator, execution knobs -- into a
finished campaign, on one of exactly two executors:

* ``workers > 1`` or ``hosts`` -> the lease dispatcher over worker
  processes (``workers`` forked local workers, or the named hosts over
  the spec's transport), supervised: when every worker is lost, the
  residue finishes serially unless ``no_degrade``;
* otherwise -> the serial :class:`~repro.runner.harness.CampaignHarness`.

The CLI ``mot``/``fsim`` subcommands and the job-server executor
(:mod:`repro.service`) both build specs and call this function, so a
job submitted over HTTP runs byte-identically to the same campaign run
in the foreground.  A caller-supplied ``cancel_event``
(:class:`threading.Event`) rides the cooperative-cancellation path:
setting it makes whichever runner is active flush its journal and raise
:class:`~repro.errors.CampaignInterrupted`, exactly like a Ctrl-C.

Specs serialize to plain JSON (:meth:`CampaignSpec.to_payload` /
:meth:`CampaignSpec.from_payload`) so they can travel over the service
API and be journaled with the job queue; unknown payload keys are
dropped on the way in, which lets older servers accept newer clients.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple, get_args, get_type_hints

from repro.circuit.bench import load_bench, parse_bench
from repro.circuit.netlist import Circuit
from repro.circuits.registry import build_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.patterns.random_gen import random_patterns
from repro.runner.budget import FaultBudget
from repro.runner.harness import CampaignHarness, HarnessConfig
from repro.runner.supervisor import SupervisedCampaignRunner
from repro.sim.goodcache import GoodMachineCache

__all__ = [
    "SIMULATOR_KINDS",
    "COLLAPSE_MODES",
    "IMPLICATION_MODES",
    "CampaignSpec",
    "CampaignResult",
    "SpecError",
    "run_campaign",
]

log = logging.getLogger("repro.runner.campaign")

#: Simulator selection accepted by :attr:`CampaignSpec.kind`.
SIMULATOR_KINDS = ("mot", "baseline", "unrestricted", "fsim")

#: Fault-universe handling accepted by :attr:`CampaignSpec.collapse`:
#: ``"structural"`` simulates one representative per equivalence class
#: and reports only those (the historical default), ``"classes"`` also
#: expands every representative's verdict to its whole class afterwards
#: (provenance in ``expanded_from``), ``"none"`` simulates the full
#: uncollapsed universe.
COLLAPSE_MODES = ("structural", "classes", "none")

#: Backward-implication schedules accepted by
#: :attr:`CampaignSpec.implication_mode` (see
#: :class:`repro.mot.implication.PlaneEngine`).
IMPLICATION_MODES = ("fixpoint", "two_pass")


class SpecError(ValueError):
    """A :class:`CampaignSpec` failed validation.

    Subclasses :class:`ValueError` so callers that predate the service
    keep working; the HTTP API maps it to a 400 response.
    """


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one fault-simulation campaign.

    Field groups and defaults mirror the ``repro mot`` / ``repro fsim``
    command lines exactly -- a spec built from parsed CLI arguments and
    one built from the equivalent JSON job payload select the same
    runner with the same knobs.

    Workload: exactly one of ``circuit`` (registry name),
    ``bench_path`` (``.bench`` file) or ``bench_text`` (inline netlist,
    the upload path of the service) must be set.

    Simulator: ``kind`` picks the simulator; the remaining knobs apply
    where the CLI applies them (``n_states`` to the restricted MOT
    core, ``n_references`` to the unrestricted generalization,
    ``implication_mode``/``backward_depth`` to the proposed procedure
    only).  ``engine`` has no CLI flag and accepts
    only ``"ir"``: every campaign simulates on the compiled kernel, and
    the field stays so that payloads naming it keep validating.

    Execution: the executor knobs of the ``mot`` subcommand.
    ``workers`` and ``hosts`` are mutually exclusive ways to ask for
    worker processes, and neither applies to ``fsim`` campaigns.
    ``fail_fast`` applies to serial runs; under workers a raising fault
    ends as a quarantined ``errored`` verdict.  ``progress_path`` arms
    the serial harness's progress beacon.
    """

    # -- workload ------------------------------------------------------
    circuit: Optional[str] = None
    bench_path: Optional[str] = None
    bench_text: Optional[str] = None
    length: int = 48
    seed: int = 0
    uncollapsed: bool = False
    collapse: str = "structural"

    # -- simulator -----------------------------------------------------
    kind: str = "mot"
    engine: str = "ir"
    n_states: int = 64
    n_references: int = 8
    implication_mode: str = "fixpoint"
    backward_depth: int = 1

    # -- execution -----------------------------------------------------
    workers: int = 1
    hosts: Tuple[str, ...] = ()
    transport: str = "local"
    command_template: Optional[str] = None
    chunk_size: int = 4
    lease_timeout: float = 60.0
    host_blacklist_after: int = 2
    budget_ms: Optional[float] = None
    budget_events: Optional[int] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 25
    resume: bool = False
    fail_fast: bool = False
    stall_timeout: Optional[float] = None
    no_degrade: bool = False
    progress_path: Optional[str] = None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SpecError` on any inconsistent combination."""
        self._check_types()
        sources = [
            s for s in (self.circuit, self.bench_path, self.bench_text)
            if s
        ]
        if len(sources) != 1:
            raise SpecError(
                "exactly one of circuit, bench_path or bench_text "
                f"must be set (got {len(sources)})"
            )
        if self.kind not in SIMULATOR_KINDS:
            raise SpecError(
                f"unknown simulator kind {self.kind!r} "
                f"(expected one of {SIMULATOR_KINDS})"
            )
        if self.engine != "ir":
            raise SpecError(
                f"engine {self.engine!r} is not available: the engine "
                "selector was removed and only 'ir' is accepted"
            )
        if self.length < 1:
            raise SpecError(f"length must be >= 1, got {self.length}")
        if self.n_states < 1:
            raise SpecError(f"n_states must be >= 1, got {self.n_states}")
        if self.n_references < 1:
            raise SpecError(
                f"n_references must be >= 1, got {self.n_references}"
            )
        if self.implication_mode not in IMPLICATION_MODES:
            raise SpecError(
                f"unknown implication mode {self.implication_mode!r} "
                f"(expected one of {IMPLICATION_MODES})"
            )
        if self.backward_depth < 1:
            raise SpecError(
                f"backward_depth must be >= 1, got {self.backward_depth}"
            )
        if self.workers < 1:
            raise SpecError(f"workers must be >= 1, got {self.workers}")
        if self.workers > 1 and self.hosts:
            raise SpecError(
                "workers and hosts are exclusive: --workers N launches N "
                "local workers, --hosts names them"
            )
        if self.transport not in ("local", "command"):
            raise SpecError(
                f"unknown transport {self.transport!r} "
                "(expected 'local' or 'command')"
            )
        if self.transport == "command" and not self.command_template:
            raise SpecError("transport 'command' requires command_template")
        if self.resume and not self.checkpoint_path:
            raise SpecError("resume requires checkpoint_path")
        if self.chunk_size < 1:
            raise SpecError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.checkpoint_every < 1:
            raise SpecError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        for name in ("lease_timeout", "stall_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SpecError(f"{name} must be positive, got {value}")
        if self.kind == "fsim" and self.hosts:
            raise SpecError("fsim campaigns do not support distributed hosts")
        if self.kind == "fsim" and self.workers > 1:
            raise SpecError(
                "fsim campaigns run in one process; workers applies to "
                "MOT-family campaigns only"
            )
        if self.collapse not in COLLAPSE_MODES:
            raise SpecError(
                f"unknown collapse mode {self.collapse!r} "
                f"(expected one of {COLLAPSE_MODES})"
            )
        if self.uncollapsed and self.collapse == "classes":
            raise SpecError(
                "uncollapsed conflicts with collapse='classes' "
                "(there are no classes to expand over a full universe)"
            )
        if self.kind == "fsim" and self.collapse == "classes":
            raise SpecError(
                "collapse='classes' requires a MOT-family campaign "
                "(fsim verdicts carry no expansion provenance)"
            )

    def _check_types(self) -> None:
        """Every field must hold its annotated type, or ``None`` where
        the annotation is ``Optional``; hosts are non-empty strings."""
        for name, hint in _FIELD_TYPES.items():
            value = getattr(self, name)
            if name == "hosts":
                if not isinstance(value, tuple) or not all(
                    isinstance(h, str) and h.strip() for h in value
                ):
                    raise SpecError(
                        f"hosts must be non-empty strings, got {value!r}"
                    )
                continue
            args = get_args(hint)  # (T, NoneType) for Optional[T]
            if value is None and type(None) in args:
                continue
            expected = args[0] if args else hint
            if not _has_type(value, expected):
                raise SpecError(
                    f"{name} must be {_TYPE_NAMES[expected]}, got "
                    f"{type(value).__name__} {value!r}"
                )

    def effective_collapse(self) -> str:
        """The collapse mode after the legacy ``uncollapsed`` flag."""
        return "none" if self.uncollapsed else self.collapse

    # ------------------------------------------------------------------
    def build_circuit(self) -> Circuit:
        """Materialize the workload circuit from whichever source is set."""
        if self.circuit:
            try:
                return build_circuit(self.circuit)
            except KeyError as exc:
                raise SpecError(str(exc.args[0]) if exc.args else str(exc))
        if self.bench_path:
            return load_bench(self.bench_path)
        assert self.bench_text is not None
        return parse_bench(self.bench_text, name="uploaded")

    def budget(self) -> Optional[FaultBudget]:
        if self.budget_ms is None and self.budget_events is None:
            return None
        return FaultBudget(
            wall_clock_ms=self.budget_ms, max_events=self.budget_events
        )

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """Plain-JSON form (``hosts`` becomes a list)."""
        payload = asdict(self)
        payload["hosts"] = list(self.hosts)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_payload` output.

        Unknown keys are dropped (forward compatibility); known keys
        are type-checked by :meth:`validate`, which is called here so a
        bad payload fails at the API boundary, not mid-campaign.
        """
        if not isinstance(payload, dict):
            raise SpecError(
                f"spec payload must be an object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        hosts = kwargs.get("hosts")
        if isinstance(hosts, str):
            kwargs["hosts"] = tuple(h for h in hosts.split(",") if h.strip())
        elif isinstance(hosts, list):
            kwargs["hosts"] = tuple(hosts)
        try:
            spec = cls(**kwargs)
        except TypeError as exc:
            raise SpecError(f"bad spec payload: {exc}") from None
        spec.validate()
        return spec


#: Resolved annotation of every spec field, for :meth:`CampaignSpec.validate`.
_FIELD_TYPES = get_type_hints(CampaignSpec)

_TYPE_NAMES = {bool: "a bool", int: "an integer", float: "a number",
               str: "a string"}


def _has_type(value: Any, expected: type) -> bool:
    """``isinstance``, except that a bool is never a count or a number
    and an int is a fine float."""
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


@dataclass
class CampaignResult:
    """What :func:`run_campaign` produced, ready for rendering.

    ``campaign`` is a :class:`repro.mot.simulator.Campaign` for the MOT
    kinds and a :class:`repro.fsim.conventional.ConventionalCampaign`
    for ``kind="fsim"``.  ``stats`` is the runner's stats object
    (:class:`~repro.runner.harness.HarnessStats` or
    :class:`~repro.runner.supervisor.SupervisorStats`; ``None`` for
    fsim).  ``supervised`` marks results that carry a
    :class:`~repro.runner.supervisor.SupervisorStats` suitable for
    :func:`repro.reporting.campaign.render_supervision_report`.
    """

    campaign: Any
    kind: str
    label: str
    circuit: Circuit
    faults: List[Fault] = field(repr=False)
    stats: Any = None
    supervised: bool = False
    #: The :class:`repro.analysis.collapse.CollapsePartition` behind a
    #: ``collapse="classes"`` campaign (``None`` otherwise).  With a
    #: partition present, ``campaign``/``faults`` hold the expanded
    #: universe and ``simulated`` the representative count.
    partition: Any = field(default=None, repr=False)
    simulated: Optional[int] = None

    @property
    def errored(self) -> int:
        return getattr(self.campaign, "errored", 0)


# ----------------------------------------------------------------------
def _build_simulator(
    spec: CampaignSpec,
    circuit: Circuit,
    patterns: List[List[int]],
    good_outputs: List[List[int]],
) -> Tuple[Any, str]:
    """The simulator + human label for one MOT-family spec, comparing
    with the good machine's response *good_outputs*."""
    from repro.mot.baseline import BaselineConfig, BaselineSimulator
    from repro.mot.simulator import MotConfig, ProposedSimulator

    if spec.kind == "unrestricted":
        from repro.mot.unrestricted import (
            UnrestrictedConfig,
            UnrestrictedSimulator,
        )

        simulator: Any = UnrestrictedSimulator(
            circuit,
            patterns,
            UnrestrictedConfig(
                n_references=spec.n_references,
                restricted=MotConfig(n_states=spec.n_states),
            ),
            reference_outputs=good_outputs,
        )
        label = f"unrestricted MOT ({simulator.n_references} references)"
    elif spec.kind == "baseline":
        simulator = BaselineSimulator(
            circuit, patterns,
            BaselineConfig(n_states=spec.n_states),
            reference_outputs=good_outputs,
        )
        label = "[4] baseline"
    else:
        simulator = ProposedSimulator(
            circuit,
            patterns,
            MotConfig(
                n_states=spec.n_states,
                implication_mode=spec.implication_mode,
                backward_depth=spec.backward_depth,
            ),
            reference_outputs=good_outputs,
        )
        label = "proposed procedure"
    return simulator, label


def _run_fsim(
    spec: CampaignSpec, circuit: Circuit, faults: List[Fault],
    patterns: List[List[int]],
) -> CampaignResult:
    from repro.fsim.parallel import run_parallel_conventional

    return CampaignResult(
        campaign=run_parallel_conventional(circuit, faults, patterns),
        kind="fsim",
        label="conventional (kernel fault batches)",
        circuit=circuit,
        faults=faults,
    )


def _expand_campaign(campaign: Any, partition: Any, circuit: Circuit) -> Any:
    """Expand representative verdicts to their whole equivalence class.

    Returns a new :class:`~repro.mot.simulator.Campaign` over the full
    uncollapsed universe, in universe enumeration order.  Every
    non-representative member inherits its representative's verdict
    with ``expanded_from`` naming the representative -- sound because
    structurally equivalent faults produce identical faulty functions
    on every line, hence identical detection outcomes (see
    ALGORITHMS.md section 18; dominance is deliberately *not* expanded
    over).  Representatives that never received a verdict (interrupted
    run) expand to nothing, mirroring their absence.
    """
    from dataclasses import replace

    from repro.mot.simulator import Campaign

    by_key = {
        (v.fault.line, v.fault.stuck_at, v.fault.pin): v
        for v in campaign.verdicts
    }
    expanded = []
    for fault in partition.universe:
        representative = partition.class_of(fault).representative
        source = by_key.get(
            (
                representative.line,
                representative.stuck_at,
                representative.pin,
            )
        )
        if source is None:
            continue
        if fault == representative:
            expanded.append(source)
        else:
            expanded.append(
                replace(
                    source,
                    fault=fault,
                    expanded_from=representative.describe(circuit),
                )
            )
    return Campaign(
        circuit_name=campaign.circuit_name, verdicts=expanded
    )


def _journal_expansions(
    path: str, campaign: Any, partition: Any
) -> None:
    """Append one ``expansion`` record per inherited verdict to the
    campaign journal, so journal consumers can reconstruct the expanded
    universe without re-running the collapse analysis."""
    from repro.runner.journal import CampaignJournal, expansion_to_record

    journal = CampaignJournal(path)
    for universe_index, verdict in enumerate(campaign.verdicts):
        if not verdict.expanded_from:
            continue
        journal.append(
            expansion_to_record(
                universe_index,
                verdict,
                partition.class_of(verdict.fault).index,
            )
        )
    journal.flush()


def run_campaign(
    spec: CampaignSpec,
    cancel_event: Optional[threading.Event] = None,
) -> CampaignResult:
    """Run one campaign exactly as the equivalent CLI invocation would.

    Raises whatever the selected runner raises
    (:class:`~repro.errors.CampaignInterrupted` on Ctrl-C or a set
    ``cancel_event``, :class:`~repro.errors.DistributedFailed` when
    every worker is lost under ``no_degrade``) -- callers own the
    policy, as the CLI's ``main`` does.
    """
    spec.validate()
    circuit = spec.build_circuit()
    mode = spec.effective_collapse()
    partition = None
    if mode == "none":
        faults = all_faults(circuit)
    elif mode == "classes":
        from repro.analysis.collapse import fault_classes

        partition = fault_classes(circuit)
        faults = partition.representatives()
        log.info(
            "%s: collapsed %d faults into %d classes (%.1f%% pruned)",
            circuit.name, partition.universe_size, partition.num_classes,
            partition.reduction_percent,
        )
    else:
        faults = collapse_faults(circuit)
    patterns = random_patterns(circuit.num_inputs, spec.length, spec.seed)
    log.debug(
        "%s: %d faults, %d patterns (seed %d)",
        circuit.name, len(faults), spec.length, spec.seed,
    )
    if spec.kind == "fsim":
        return _run_fsim(spec, circuit, faults, patterns)

    # One good-machine simulation for the whole campaign -- shared by
    # the simulator, its forward fallback, and every worker process.
    simulator, label = _build_simulator(
        spec, circuit, patterns,
        GoodMachineCache.compute(circuit, patterns).outputs,
    )
    budget = spec.budget()
    supervised = False

    if spec.hosts or spec.workers > 1:
        from repro.analysis.testability import hardest_first
        from repro.runner.dispatch import DispatchConfig
        from repro.runner.transport import make_transport

        hosts = list(spec.hosts) or [
            f"worker{k}" for k in range(spec.workers)
        ]
        supervised = True
        runner: Any = SupervisedCampaignRunner(
            simulator,
            hosts,
            make_transport(spec.transport, spec.command_template),
            DispatchConfig(
                chunk_size=spec.chunk_size,
                lease_timeout=spec.lease_timeout,
                stall_timeout=spec.stall_timeout,
                host_blacklist_after=spec.host_blacklist_after,
                checkpoint_path=spec.checkpoint_path,
                checkpoint_every=spec.checkpoint_every,
                resume=spec.resume,
                budget=budget,
                cancel_event=cancel_event,
                # Lease hard faults first: stragglers surface while
                # cheap tail work remains for the lease book to
                # rebalance.  Ordering is wall-clock only -- verdicts
                # stay keyed by fault index.
                dispatch_order=tuple(hardest_first(circuit, faults)),
            ),
            allow_degraded=not spec.no_degrade,
        )
        if spec.hosts:
            label += (
                f", {len(hosts)} hosts over {spec.transport} transport"
                " (supervised)"
            )
        else:
            label += f", {spec.workers} workers (supervised)"
    else:
        runner = CampaignHarness(
            simulator,
            HarnessConfig(
                budget=budget,
                checkpoint_path=spec.checkpoint_path,
                checkpoint_every=spec.checkpoint_every,
                resume=spec.resume,
                fail_fast=spec.fail_fast,
                progress_path=spec.progress_path,
                cancel_event=cancel_event,
            ),
        )
    campaign = runner.run(faults)
    simulated = None
    if partition is not None:
        simulated = len(campaign.verdicts)
        campaign = _expand_campaign(campaign, partition, circuit)
        label += (
            f", expanded {simulated} class representatives to "
            f"{len(campaign.verdicts)} faults"
        )
        if spec.checkpoint_path:
            _journal_expansions(spec.checkpoint_path, campaign, partition)
        faults = list(partition.universe)
    return CampaignResult(
        campaign=campaign,
        kind=spec.kind,
        label=label,
        circuit=circuit,
        faults=faults,
        stats=runner.stats,
        supervised=supervised,
        partition=partition,
        simulated=simulated,
    )

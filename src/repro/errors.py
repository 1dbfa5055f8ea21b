"""Shared error taxonomy.

Every exception the package raises deliberately derives from
:class:`ReproError`, so callers (the CLI, the campaign harness, test
drivers) can distinguish *our* diagnostics from genuine bugs with one
``except`` clause:

``ReproError``
    Root of the taxonomy.  Catching it means "anything this package
    reports as a user-facing problem".

``CircuitError``
    Structurally invalid netlists and parse errors (``.bench`` /
    ``.isc`` syntax, undriven lines, duplicate drivers, combinational
    cycles).  Re-exported from :mod:`repro.circuit.netlist` for
    backward compatibility.

``FaultModelError``
    Invalid fault specifications (stuck value outside {0, 1}, unknown
    pin kinds, empty injection lists).  Also derives from
    :class:`ValueError` so pre-taxonomy callers that caught
    ``ValueError`` keep working.

``BudgetExceeded``
    A per-fault work or wall-clock budget ran out
    (:mod:`repro.runner.budget`).  The simulators convert it into an
    explicit ``aborted``/``budget`` verdict; it only escapes when a
    caller meters work outside a simulator.

``CampaignInterrupted``
    A campaign stopped early on SIGINT / KeyboardInterrupt after
    flushing its checkpoint journal (:mod:`repro.runner.harness`).

``JournalError``
    A checkpoint journal could not be read, or its manifest does not
    match the run being resumed (:mod:`repro.runner.journal`).

``ChaosError``
    An invalid chaos scenario -- unknown injection site or action,
    malformed scenario file (:mod:`repro.chaos`).

``ServiceError``
    A job-server problem that is the caller's to handle: unknown job
    ids, invalid submissions, a corrupt or foreign service directory
    (:mod:`repro.service`).

``TransportError``
    A distributed-campaign worker could not be launched, or violated
    the newline-JSON worker protocol (:mod:`repro.runner.transport`).

``DistributedFailed``
    A multi-process campaign ran out of usable workers (every host or
    local worker dead or blacklisted) with faults still unsimulated
    (:mod:`repro.runner.dispatch`).  Journaled verdicts were flushed
    first, so the run can be completed with ``--resume`` -- or
    automatically by the supervisor, which finishes it serially unless
    ``--no-degrade`` is given.

A worker that dies on a fault is not an exception at all: the
dispatcher isolates the fault as an ``errored``/``poison`` verdict.

This module is intentionally a leaf (stdlib imports only): ``circuit``,
``faults``, ``mot`` and ``runner`` all import from it without cycles.
"""

from __future__ import annotations

#: The closed set of per-fault verdict statuses.  Every
#: ``FaultVerdict.status`` the package constructs -- and every status
#: string literal in library code -- must come from this tuple; the
#: custom AST lint (``tools/repro_lint.py``, rule ``RL002``) enforces
#: it so a typo'd status can never leak into reports or journals.
VERDICT_STATUSES = (
    "conv",        # detected by conventional simulation
    "mot",         # detected by the MOT procedure
    "dropped",     # failed the necessary condition (C)
    "undetected",  # survived the full procedure
    "aborted",     # the per-fault budget ran out
    "errored",     # the simulation raised and was quarantined
)


class ReproError(Exception):
    """Base class for every deliberate error raised by this package."""


class CircuitError(ReproError):
    """Raised for structurally invalid netlists (undriven lines, cycles,
    double drivers) and netlist parse errors."""


class FaultModelError(ReproError, ValueError):
    """Raised for invalid fault specifications.

    Derives from :class:`ValueError` as well: fault validation predates
    the taxonomy and existing callers catch ``ValueError``.
    """


class BudgetExceeded(ReproError):
    """Raised when a per-fault work or wall-clock budget runs out.

    Attributes
    ----------
    reason:
        ``"events"`` or ``"wall_clock"``.
    spent_events / elapsed_ms:
        Work performed before the budget tripped.
    """

    def __init__(self, reason: str, spent_events: int, elapsed_ms: float) -> None:
        self.reason = reason
        self.spent_events = spent_events
        self.elapsed_ms = elapsed_ms
        super().__init__(
            f"fault budget exceeded ({reason}): {spent_events} events, "
            f"{elapsed_ms:.1f} ms elapsed"
        )


class CampaignInterrupted(ReproError):
    """Raised when a campaign is interrupted (SIGINT) at a fault boundary.

    Attributes
    ----------
    completed:
        Number of verdicts recorded before the interruption.
    journal_path:
        Checkpoint journal holding them (``None`` when checkpointing was
        off -- the partial results are lost, as before the harness).
    """

    def __init__(self, completed: int, journal_path: "str | None" = None) -> None:
        self.completed = completed
        self.journal_path = journal_path
        where = f"; journal: {journal_path}" if journal_path else ""
        super().__init__(
            f"campaign interrupted after {completed} verdicts{where}"
        )


class JournalError(ReproError):
    """Raised for unreadable or mismatched checkpoint journals."""


class ChaosError(ReproError):
    """Raised for invalid chaos scenarios (unknown sites or actions,
    malformed scenario files) by :mod:`repro.chaos`.  Injected faults
    themselves never raise this -- they surface through the seam they
    shake (transport errors, journal salvage, worker death)."""


class ServiceError(ReproError):
    """Raised by the job server (:mod:`repro.service`) for caller-side
    problems: unknown job ids, invalid submissions, cancels that lost
    their race with completion, corrupt service directories.  The HTTP
    API maps it to 4xx responses; library callers catch it like any
    other :class:`ReproError`."""


class TransportError(ReproError):
    """Raised when a campaign worker cannot be launched or breaks the
    worker protocol.

    Attributes
    ----------
    host:
        Host label the worker was assigned to (``""`` when unknown).
    detail:
        What went wrong (spawn failure, handshake timeout, protocol
        violation).
    """

    def __init__(self, host: str, detail: str) -> None:
        self.host = host
        self.detail = detail
        where = f" on host {host!r}" if host else ""
        super().__init__(f"worker transport failure{where}: {detail}")


class DistributedFailed(ReproError):
    """Raised when a multi-process campaign runs out of usable workers.

    Every verdict received before the failure was durably journaled, so
    a checkpointed run can be completed with ``--resume`` -- or
    automatically by the supervisor, which catches this error and
    finishes the campaign serially.

    Attributes
    ----------
    completed:
        Verdicts durably journaled before the failure.
    remaining:
        Faults still missing a verdict.
    journal_path:
        Checkpoint journal holding the completed verdicts (``None``
        when checkpointing was off -- the partial results are lost).
    blacklisted:
        Host labels excluded after repeated failures.
    """

    def __init__(
        self,
        completed: int,
        remaining: int,
        journal_path: "str | None" = None,
        blacklisted: "list[str] | None" = None,
    ) -> None:
        self.completed = completed
        self.remaining = remaining
        self.journal_path = journal_path
        self.blacklisted = list(blacklisted or [])
        where = f"; journal: {journal_path}" if journal_path else ""
        banned = (
            f" (blacklisted hosts: {', '.join(self.blacklisted)})"
            if self.blacklisted
            else ""
        )
        super().__init__(
            f"distributed campaign out of usable hosts{banned}: "
            f"{completed} verdicts recovered, {remaining} faults "
            f"unsimulated{where}"
        )

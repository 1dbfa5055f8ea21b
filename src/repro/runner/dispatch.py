"""Lease-based chunk dispatcher: the one multi-process campaign executor.

Procedure 1 decides each fault from the circuit, the patterns and the
one fault-free response, so a campaign's only parallelism is handing
faults to workers.  ``--workers N`` runs N forked local workers
(:class:`~repro.runner.transport.LocalTransport`, which reuse the
parent's simulator and its good-machine simulation); ``--hosts`` runs
named hosts over any transport.  Either way the assignment is made of
**dynamic chunk leases**, never decided up front, because workers can
die or straggle:

* The fault list becomes a queue of small chunks.  Workers *pull*: an
  idle worker is granted a lease -- a chunk plus a deadline -- and
  streams back one verdict per fault.
* Progress extends the lease deadline; a lease that stops progressing
  **expires**, its unfinished faults return to the queue for any other
  worker, and the silent host is quarantined from new grants until it
  reports back (it may be slow, not dead -- its late verdicts are still
  accepted).
* When the queue is empty but leases are still outstanding, idle
  workers **steal**: the dispatcher compares a lease's silence against
  the observed per-fault latency (the same signal the
  ``campaign.fault_ms`` histogram tracks) and speculatively re-leases a
  straggler's unfinished faults to an idle host.
* Replay is **idempotent by construction**: every verdict carries its
  global fault index, the first verdict journaled per index wins, and
  later duplicates -- from expiry reassignment or stealing -- are
  counted (``dispatch.duplicates``) and dropped.  Double execution can
  never double-count.
* A lost host (transport EOF, protocol violation) is just a bigger
  version of the same event: its leases are revoked and requeued, the
  host is relaunched, and after ``host_blacklist_after`` failures it is
  blacklisted.  When every host is blacklisted,
  :class:`~repro.errors.DistributedFailed` reports what the journal
  already holds -- ``--resume`` continues from there, and the
  supervisor (:mod:`repro.runner.supervisor`) finishes serially.
* **Poison isolation** lives in the :class:`LeaseBook`: a worker that
  dies while it owes a chunk -- or, with ``stall_timeout`` set, stays
  silent that long while it owes one, even after the lease expired, and
  is killed -- implicates the first fault of its chunks it had not
  reported.  That suspect is re-leased *alone*, to a host whose worker
  did not die with it whenever such a host can take work.  A worker
  lost on that solo lease confirms the fault as poison: it gets an
  ``errored``/``poison`` verdict and is never run again, and the solo
  death is not held against the host.

The journal (:mod:`repro.runner.journal`) is the durable half of the
design: verdicts are checksummed and flushed every
``checkpoint_every``, lease grants/expiries/steals and host events are
journaled as coordination records next to the verdicts they explain,
and a resumed run seeds the deduplication set from whatever the
(salvaged) journal holds.
"""

from __future__ import annotations

import logging
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Collection,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.chaos.runtime import chaos_clock_tick, chaos_now, wrap_handle
from repro.errors import (
    CampaignInterrupted,
    DistributedFailed,
    TransportError,
)
from repro.faults.model import Fault
from repro.mot.simulator import Campaign, FaultVerdict
from repro.obs.metrics import MetricsSnapshot, get_metrics
from repro.runner.budget import FaultBudget
from repro.runner.harness import prefilter_pending, simulator_manifest
from repro.runner.retry import RetryPolicy
from repro.runner.journal import (
    CampaignJournal,
    fault_to_payload,
    host_to_record,
    lease_to_record,
    verdict_from_record,
    verdict_to_record,
)
from repro.runner.transport import (
    PROTOCOL_VERSION,
    Transport,
    WorkerHandle,
    WorkloadSpec,
    wait_for_output,
)

__all__ = [
    "POISON_HOW",
    "DispatchConfig",
    "DispatchStats",
    "Lease",
    "LeaseBook",
    "DistributedCampaignRunner",
]

#: ``how`` tag of the verdict a confirmed poison fault receives.
POISON_HOW = "poison"

#: Work stealing threshold: with the queue empty, a lease silent for
#: longer than this many times the observed median per-fault latency is
#: speculatively re-leased to an idle host.
STRAGGLER_FACTOR = 4.0

#: Seconds to wait for a worker's ``bye`` (with its metrics snapshot) at
#: the end of the campaign.
SHUTDOWN_TIMEOUT = 10.0

#: Longest idle wait (seconds) between event-loop passes: the loop wakes
#: as soon as any worker has output, and at least this often to check
#: deadlines and the cancel event.
POLL_INTERVAL = 0.02

log = logging.getLogger("repro.runner.dispatch")


class _CancelRequested(Exception):
    """Internal: the parent's ``cancel_event`` fired mid-dispatch."""


@dataclass(frozen=True)
class DispatchConfig:
    """Behavior knobs of :class:`DistributedCampaignRunner`.

    Attributes
    ----------
    chunk_size:
        Faults per lease.  Small chunks bound the reassignment cost of
        a lost host to ``chunk_size`` re-simulations per lease.
    lease_timeout:
        Seconds a lease may go without progress (grant or verdict)
        before it expires and its unfinished faults are requeued.
    min_latency_samples:
        Verdicts observed before the latency estimate is trusted for
        stealing (expiry does not wait for samples).
    start_timeout:
        Seconds a launched worker has to complete the init/ready
        handshake before it counts as a host failure.
    stall_timeout:
        Seconds a worker that owes a chunk may stay silent (no verdict,
        no ``chunk_done``) before it is presumed hung inside one fault
        and killed, whether or not its lease has expired meanwhile; its
        in-flight fault becomes a suspect.  ``None`` (default) relies on
        ``lease_timeout`` alone, which requeues a silent lease but
        leaves the worker running.
    host_blacklist_after:
        Host failures (crash, handshake timeout, protocol violation)
        tolerated before the host is blacklisted for the campaign.
    checkpoint_path / checkpoint_every / resume:
        Campaign journal location and flush cadence, exactly as in
        :class:`~repro.runner.harness.HarnessConfig`.  ``None`` runs
        without a journal (deduplication is then in-memory only).
    budget:
        Per-fault :class:`~repro.runner.budget.FaultBudget`, shipped to
        every worker in the ``init`` message.
    cancel_event:
        Optional :class:`threading.Event` polled once per event-loop
        pass.  When set, the dispatcher flushes the journal, tears the
        hosts down, and raises
        :class:`~repro.errors.CampaignInterrupted` -- the same
        cooperative path a Ctrl-C takes.
    dispatch_order:
        Optional permutation of the fault-list indices giving the
        order leases are cut from the pending queue (typically
        hardest-first from
        :func:`repro.analysis.testability.hardest_first`, so expensive
        faults dispatch early and stragglers surface while cheap tail
        work remains to rebalance).  Results are keyed by fault index
        throughout, so the order changes wall-clock balance only,
        never the campaign's verdicts.  ``None`` keeps fault-list
        order.
    """

    chunk_size: int = 4
    lease_timeout: float = 60.0
    min_latency_samples: int = 3
    start_timeout: float = 60.0
    stall_timeout: Optional[float] = None
    host_blacklist_after: int = 2
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 25
    resume: bool = False
    budget: Optional[FaultBudget] = None
    cancel_event: Optional[threading.Event] = None
    dispatch_order: Optional[Tuple[int, ...]] = None


@dataclass
class DispatchStats:
    """What the dispatcher did beyond the verdicts themselves."""

    hosts: int = 0
    leases_granted: int = 0
    leases_expired: int = 0
    leases_stolen: int = 0
    duplicates: int = 0
    relaunches: int = 0
    stalls: int = 0
    reused: int = 0
    simulated: int = 0
    errored: int = 0
    aborted: int = 0
    host_failures: Dict[str, int] = field(default_factory=dict)
    blacklisted: List[str] = field(default_factory=list)
    #: Fault indices confirmed poison (in confirmation order).
    poisoned: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Lease bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Lease:
    """One granted chunk: indices, owner, and a progress deadline."""

    id: int
    host: str
    indices: List[int]
    granted_at: float
    deadline: float
    speculative: bool = False
    stolen_from: Optional[int] = None
    last_progress: float = 0.0
    stolen: bool = False  # a speculative copy of this lease exists
    solo: bool = False  # one suspect fault, re-run alone
    #: Indices the lease's own worker has reported (see
    #: :meth:`LeaseBook.in_flight`).
    reported: Set[int] = field(default_factory=set)

    def unfinished(self, done: Dict[int, Any]) -> List[int]:
        return [i for i in self.indices if i not in done]


class LeaseBook:
    """The dispatcher's source of truth for who owns which fault.

    Tracks disjoint-by-construction views of the fault index space: a
    pending queue, a queue of ``suspects`` (faults implicated in a
    worker death, each re-leased alone), active leases (an index may be
    covered by several when stealing duplicated it), and the ``done``
    map of first-arrived verdicts.  :meth:`complete` is the idempotency
    point: the first verdict per index wins, every later one is a
    counted duplicate -- which is the entire correctness argument for
    replaying chunks at will.  ``owed`` keeps, per host, the chunks its
    worker has not yet finished -- past lease expiry, so a hung worker
    can still be blamed for its fault -- and ``implicated`` lists, per
    fault, the hosts whose workers died with it in flight.
    """

    def __init__(self, indices: Sequence[int], chunk_size: int,
                 lease_timeout: float) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.pending: Deque[int] = deque(indices)
        self.chunk_size = chunk_size
        self.lease_timeout = lease_timeout
        self.leases: Dict[int, Lease] = {}
        self.done: Dict[int, FaultVerdict] = {}
        self.suspects: Deque[int] = deque()
        self.implicated: Dict[int, List[str]] = {}
        self.owed: Dict[str, List[Lease]] = {}
        self.duplicates = 0
        self._next_id = 1

    # ------------------------------------------------------------ state
    @property
    def exhausted(self) -> bool:
        """True when no work is pending, suspected or in flight."""
        return (
            not self.pending
            and all(index in self.done for index in self.suspects)
            and not any(
                lease.unfinished(self.done) for lease in self.leases.values()
            )
        )

    def remaining(self) -> int:
        """Fault indices without a verdict yet (queued or leased)."""
        outstanding = set(self.pending) | set(self.suspects)
        for lease in self.leases.values():
            outstanding.update(lease.unfinished(self.done))
        return len(outstanding - set(self.done))

    def uncleared(self) -> List[int]:
        """Implicated faults no worker has produced a verdict for."""
        return sorted(i for i in self.implicated if i not in self.done)

    def owes(self, host: str) -> bool:
        """True while *host*'s worker holds a chunk it has not finished."""
        return bool(self.owed.get(host))

    def in_flight(self, host: str) -> Optional[Tuple[Lease, int]]:
        """The chunk and fault *host*'s worker is running: the first
        index of its owed chunks it has not reported.  A worker runs
        its chunks, and the faults of each, in the order granted."""
        for lease in self.owed.get(host, ()):
            for index in lease.indices:
                if index not in lease.reported:
                    return lease, index
        return None

    # ------------------------------------------------------------ grant
    def grant(self, host: str, now: float,
              usable: Collection[str] = ()) -> Optional[Lease]:
        """Lease work to *host*: a suspect alone, else the next chunk.

        A suspect skips a *host* whose worker already died with it in
        flight while any of the *usable* hosts (those able to take work)
        is one that did not: the solo run must tell a poison fault from
        a flaky host.
        """
        for index in list(self.suspects):
            if index in self.done:
                self.suspects.remove(index)
                continue
            blamed = self.implicated.get(index, [])
            if host in blamed and any(
                other not in blamed for other in usable
            ):
                continue
            self.suspects.remove(index)
            return self._lease(host, [index], now, solo=True)
        indices: List[int] = []
        while self.pending and len(indices) < self.chunk_size:
            index = self.pending.popleft()
            if index not in self.done and index not in indices:
                indices.append(index)
        if not indices:
            return None
        return self._lease(host, indices, now)

    def _lease(self, host: str, indices: List[int], now: float,
               solo: bool = False) -> Lease:
        lease = Lease(
            id=self._next_id,
            host=host,
            indices=indices,
            granted_at=now,
            deadline=now + self.lease_timeout,
            last_progress=now,
            solo=solo,
        )
        self._next_id += 1
        self.leases[lease.id] = lease
        self.owed.setdefault(host, []).append(lease)
        return lease

    def steal(self, host: str, now: float,
              silence_threshold: float) -> Optional[Lease]:
        """Speculatively re-lease a straggler's unfinished faults.

        Picks the lease (of another host, not already duplicated, not a
        suspect's solo run) that has been silent the longest beyond
        *silence_threshold* seconds.  The original lease keeps running
        -- whichever copy reports a fault first wins at :meth:`complete`.
        The copy leaves out implicated faults: those only ever run alone.
        """
        best: Optional[Lease] = None
        for lease in self.leases.values():
            if (lease.host == host or lease.speculative or lease.stolen
                    or lease.solo):
                continue
            if not self._stealable(lease):
                continue
            if now - lease.last_progress < silence_threshold:
                continue
            if best is None or lease.last_progress < best.last_progress:
                best = lease
        if best is None:
            return None
        best.stolen = True
        copy = Lease(
            id=self._next_id,
            host=host,
            indices=self._stealable(best),
            granted_at=now,
            deadline=now + self.lease_timeout,
            speculative=True,
            stolen_from=best.id,
            last_progress=now,
        )
        self._next_id += 1
        self.leases[copy.id] = copy
        self.owed.setdefault(host, []).append(copy)
        return copy

    def _stealable(self, lease: Lease) -> List[int]:
        return [
            index for index in lease.unfinished(self.done)
            if index not in self.implicated
        ]

    # --------------------------------------------------------- progress
    def complete(self, index: int, verdict: FaultVerdict, now: float,
                 host: Optional[str] = None) -> bool:
        """Record one verdict, reported by *host*'s worker when given;
        True when it is the first for *index*."""
        if host is not None:
            for lease in self.owed.get(host, ()):
                if index in lease.indices and index not in lease.reported:
                    lease.reported.add(index)
                    break
        for lease in self.leases.values():
            if index in lease.indices:
                lease.last_progress = now
                lease.deadline = now + self.lease_timeout
        if index in self.done:
            self.duplicates += 1
            return False
        self.done[index] = verdict
        return True

    def release(self, lease_id: int) -> Optional[Lease]:
        """Drop a finished lease (``chunk_done``); idempotent.

        A released lease may still hold unfinished indices: the worker
        said ``chunk_done`` but some verdict frames never arrived
        (dropped by the transport, or the worker died mid-write after
        queueing its summary).  Those indices are requeued -- releasing
        must never strand a fault, only :meth:`complete` retires one.
        The worker runs its chunks in the order granted, so every chunk
        its host was granted before this one is settled too: the worker
        finished it or never received it.
        """
        lease = self.leases.pop(lease_id, None)
        if lease is not None:
            self._requeue(lease)
        for owed in self.owed.values():
            ids = [entry.id for entry in owed]
            if lease_id in ids:
                cut = ids.index(lease_id)
                for earlier in owed[:cut]:
                    if self.leases.pop(earlier.id, None) is not None:
                        self._requeue(earlier)
                del owed[:cut + 1]
                break
        return lease

    def withdraw(self, lease_id: int) -> None:
        """Take back a lease that never reached its worker (the send
        failed): its faults are requeued and nobody owes them."""
        lease = self.leases.pop(lease_id, None)
        if lease is not None:
            self._requeue(lease)
            owed = self.owed.get(lease.host, [])
            if lease in owed:
                owed.remove(lease)

    # ---------------------------------------------------------- failure
    def expire(self, now: float) -> List[Lease]:
        """Remove leases past their deadline, requeueing the remainder."""
        expired = [
            lease for lease in self.leases.values() if lease.deadline < now
        ]
        for lease in expired:
            del self.leases[lease.id]
            self._requeue(lease)
        return expired

    def implicate(self, host: str) -> Optional[int]:
        """*host*'s worker was lost: name the fault it had in flight.

        That fault (:meth:`in_flight`, found even when its lease has
        expired) becomes a suspect that :meth:`grant` re-leases alone,
        ahead of all other work; one another worker already decided is
        left alone.  Call before :meth:`revoke_host`.  Returns the fault
        when the worker was lost on its *solo* lease -- confirmed
        poison, for the caller to settle -- else ``None``.
        """
        found = self.in_flight(host)
        if found is None or found[1] in self.done:
            return None
        lease, suspect = found
        self.implicated.setdefault(suspect, []).append(host)
        if lease.solo:
            return suspect
        if suspect in self.pending:
            self.pending.remove(suspect)
        solo_running = any(
            other.solo and suspect in other.indices
            for other in self.leases.values()
        )
        if suspect not in self.suspects and not solo_running:
            self.suspects.append(suspect)
        return None

    def revoke_host(self, host: str) -> List[Lease]:
        """Remove every lease owned by *host*, requeueing the remainder,
        and forget the chunks its worker owed."""
        revoked = [
            lease for lease in self.leases.values() if lease.host == host
        ]
        for lease in revoked:
            del self.leases[lease.id]
            self._requeue(lease)
        self.owed.pop(host, None)
        return revoked

    def _requeue(self, lease: Lease) -> None:
        """Queue *lease*'s unfinished faults again -- a solo lease's
        fault stays a suspect -- unless other work already covers them."""
        live = {
            index
            for other in self.leases.values()
            for index in other.unfinished(self.done)
        }
        queue = self.suspects if lease.solo else self.pending
        for index in lease.unfinished(self.done):
            if (index not in live and index not in self.pending
                    and index not in self.suspects):
                queue.appendleft(index)


# ----------------------------------------------------------------------
# Host bookkeeping
# ----------------------------------------------------------------------
class _Host:
    """One (pseudo-)host: its live worker handle and lifecycle state."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.handle: Optional[WorkerHandle] = None
        self.state = "down"  # down|starting|ready|busy|quarantined|blacklisted
        self.lease_id: Optional[int] = None
        self.started_at = 0.0
        self.failures = 0
        self.handshake_retries = 0  # within the current handshake cycle
        self.relaunch_at = 0.0  # earliest monotonic time to relaunch
        #: Last message, or the grant that ended an idle spell: a worker
        #: owing a chunk and silent since then for ``stall_timeout`` is
        #: presumed hung.
        self.last_heard = 0.0

    @property
    def usable(self) -> bool:
        return self.state != "blacklisted"

    @property
    def live(self) -> bool:
        return self.state in ("starting", "ready", "busy", "quarantined")


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class DistributedCampaignRunner:
    """Run a campaign over leased chunks on transport-launched workers.

    Same ``run(faults) -> Campaign`` contract and journal format as the
    serial :class:`~repro.runner.harness.CampaignHarness`: a journal
    written by either resumes under the other, with any worker count.
    """

    #: A handshake that misses its deadline gets exactly one backoff
    #: retry (a fresh launch after a short pause) before it counts as a
    #: host strike -- slow container cold-starts should not burn one of
    #: the ``host_blacklist_after`` strikes.
    HANDSHAKE_RETRY = RetryPolicy(
        max_retries=1, backoff_base=0.2, backoff_factor=2.0,
        backoff_cap=2.0,
    )

    def __init__(
        self,
        simulator: Any,
        hosts: Sequence[str],
        transport: Transport,
        config: Optional[DispatchConfig] = None,
    ) -> None:
        if not hosts:
            raise ValueError("at least one host is required")
        deduped = list(dict.fromkeys(hosts))
        if len(deduped) != len(hosts):
            raise ValueError(f"duplicate host names in {list(hosts)!r}")
        self.simulator = simulator
        self.hosts = [_Host(name) for name in deduped]
        self.transport = transport
        self.config = config or DispatchConfig()
        if self.config.resume and not self.config.checkpoint_path:
            raise ValueError("resume requires a checkpoint path")
        self.stats = DispatchStats(hosts=len(self.hosts))
        self._workload: Optional[WorkloadSpec] = None
        self._journal: Optional[CampaignJournal] = None
        self.book: Optional[LeaseBook] = None
        self._faults: List[Fault] = []
        self._latencies: List[float] = []  # per-fault wall ms, parent-side
        self._seq = 0

    # ------------------------------------------------------------- run
    def run(self, faults: Sequence[Fault]) -> Campaign:
        fault_list = list(faults)
        if self.transport.ships_workload:
            self._workload = WorkloadSpec.from_simulator(self.simulator)
        journal, reused = self._open_journal(fault_list)
        self._journal = journal
        self.stats.reused = len(reused)

        order = self.config.dispatch_order
        if order is not None:
            if sorted(order) != list(range(len(fault_list))):
                raise ValueError(
                    "dispatch_order must be a permutation of the "
                    f"{len(fault_list)} fault-list indices"
                )
            pending = [i for i in order if i not in reused]
        else:
            pending = [i for i in range(len(fault_list)) if i not in reused]
        book = LeaseBook(
            pending,
            self.config.chunk_size,
            self.config.lease_timeout,
        )
        book.done.update(reused)
        self.book = book
        self._faults = fault_list

        try:
            # Before any worker is launched, so forked workers inherit
            # the prefiltered table.
            prefilter_pending(self.simulator, [fault_list[i] for i in pending])
            self._event_loop(book)
        except (KeyboardInterrupt, _CancelRequested):
            self._flush()
            self._shutdown_all(graceful=False)
            raise CampaignInterrupted(
                completed=len(book.done),
                journal_path=self.config.checkpoint_path,
            ) from None
        self._shutdown_all(graceful=True)
        self._flush()

        missing = [i for i in range(len(fault_list)) if i not in book.done]
        if missing:  # pragma: no cover - defensive; loop exits on failure
            raise DistributedFailed(
                completed=len(book.done),
                remaining=len(missing),
                journal_path=self.config.checkpoint_path,
                blacklisted=self.stats.blacklisted,
            )
        self.stats.duplicates = book.duplicates
        campaign = Campaign(
            circuit_name=self.simulator.circuit.name,
            verdicts=[book.done[i] for i in range(len(fault_list))],
        )
        self.stats.simulated = len(book.done) - self.stats.reused
        self.stats.errored = campaign.errored
        self.stats.aborted = campaign.aborted_budget
        return campaign

    # ------------------------------------------------------ event loop
    def _event_loop(self, book: LeaseBook) -> None:
        cancel = self.config.cancel_event
        while not book.exhausted:
            if cancel is not None and cancel.is_set():
                raise _CancelRequested()
            # Messages first: a verdict already waiting in a pipe is
            # neither a stall nor a missed deadline.
            progressed = self._drain_messages(book)
            if book.exhausted:
                break
            now = chaos_now()
            self._launch_down_hosts(now)
            self._check_handshakes(now)
            self._check_stalls(book, now)
            self._expire_leases(book, now)
            self._grant_work(book, now)
            if self._no_usable_hosts():
                self._flush()
                raise DistributedFailed(
                    completed=len(book.done),
                    remaining=book.remaining(),
                    journal_path=self.config.checkpoint_path,
                    blacklisted=list(self.stats.blacklisted),
                )
            if not progressed:
                wait_for_output(
                    [host.handle for host in self.hosts
                     if host.live and host.handle is not None],
                    POLL_INTERVAL,
                )

    # ------------------------------------------------- host lifecycle
    def _launch_down_hosts(self, now: float) -> None:
        for host in self.hosts:
            if host.state != "down" or now < host.relaunch_at:
                continue
            try:
                host.handle = wrap_handle(
                    self.transport.launch(host.name, self.simulator)
                )
                host.handle.send({
                    "type": "init",
                    "protocol": PROTOCOL_VERSION,
                    "workload": (
                        self._workload.to_payload()
                        if self._workload is not None else None
                    ),
                    "budget": self._budget_payload(),
                    "metrics": get_metrics().enabled,
                })
            except TransportError as exc:
                log.warning("host %s: launch failed: %s", host.name,
                            exc.detail)
                self._host_failure(host, f"launch failed: {exc.detail}")
                continue
            host.state = "starting"
            host.started_at = now
            self._coordinate(host_to_record(
                "launched", self._next_seq(), host=host.name,
            ))

    def _check_handshakes(self, now: float) -> None:
        deadline = min(self.config.start_timeout,
                       self.transport.handshake_timeout)
        for host in self.hosts:
            if host.state != "starting":
                continue
            if now - host.started_at <= deadline:
                continue
            if self.HANDSHAKE_RETRY.allows(host.handshake_retries):
                host.handshake_retries += 1
                backoff = self.HANDSHAKE_RETRY.backoff(host.handshake_retries)
                log.warning(
                    "host %s: no ready within %.1fs; retrying handshake "
                    "in %.1fs (%d/%d)", host.name, deadline, backoff,
                    host.handshake_retries, self.HANDSHAKE_RETRY.max_retries,
                )
                if host.handle is not None:
                    host.handle.close()
                    host.handle = None
                host.state = "down"
                host.relaunch_at = now + backoff
                self.stats.relaunches += 1
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.counter("dispatch.handshake.retries")
                self._coordinate(host_to_record(
                    "handshake_retry", self._next_seq(), host=host.name,
                    retries=host.handshake_retries,
                ))
                continue
            log.warning("host %s: no ready within %.1fs", host.name,
                        deadline)
            host.handshake_retries = 0
            self._host_failure(host, "handshake timeout")

    def _host_failure(self, host: _Host, detail: str) -> None:
        """One lost worker: implicate, revoke, then strike the host.

        The fault the worker had in flight becomes a suspect.  A worker
        lost on a suspect's solo lease confirms that fault as poison,
        and the fault -- not the host -- takes the blame: no strike.
        """
        if host.handle is not None:
            host.handle.close(timeout=0.0)
            host.handle = None
        poison: Optional[int] = None
        book = self.book
        if book is not None:
            poison = book.implicate(host.name)
            for lease in book.revoke_host(host.name):
                self._coordinate(lease_to_record(
                    "revoked", self._next_seq(), lease=lease.id,
                    host=host.name, indices=lease.unfinished(book.done),
                ))
        host.lease_id = None
        metrics = get_metrics()
        if book is not None and poison is not None:
            self._settle_poison(book, poison, host, detail)
        else:
            host.failures += 1
            self.stats.host_failures[host.name] = host.failures
            if metrics.enabled:
                metrics.counter("host.failures")
        self._coordinate(host_to_record(
            "lost", self._next_seq(), host=host.name, detail=detail,
            failures=host.failures,
        ))
        if host.failures >= self.config.host_blacklist_after:
            host.state = "blacklisted"
            self.stats.blacklisted.append(host.name)
            if metrics.enabled:
                metrics.counter("host.blacklisted")
            self._coordinate(host_to_record(
                "blacklisted", self._next_seq(), host=host.name,
            ))
            log.warning("host %s blacklisted after %d failures",
                        host.name, host.failures)
        else:
            host.state = "down"  # relaunched on the next loop pass
            self.stats.relaunches += 1

    def _settle_poison(self, book: LeaseBook, index: int, host: _Host,
                       detail: str) -> None:
        """Record the ``errored``/``poison`` verdict of a confirmed
        worker-killing fault; it is never leased again."""
        deaths = len(book.implicated[index])
        log.warning("fault index %d killed %d workers (last on host %s); "
                    "isolated as poison", index, deaths, host.name)
        verdict = FaultVerdict(
            self._faults[index],
            "errored",
            how=POISON_HOW,
            detail=(
                f"fault kills its worker process ({detail}); implicated "
                f"in {deaths} worker death(s), the last on a solo re-run; "
                f"never run again"
            ),
        )
        self.stats.poisoned.append(index)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("dispatch.poisoned")
        self._accept(book, index, verdict, chaos_now())

    def _check_stalls(self, book: LeaseBook, now: float) -> None:
        """Kill workers silent for longer than ``stall_timeout`` while
        they owe a chunk -- busy, or quarantined after the lease
        expired."""
        timeout = self.config.stall_timeout
        if timeout is None:
            return
        for host in self.hosts:
            if not host.live or not book.owes(host.name):
                continue
            if now - host.last_heard <= timeout:
                continue
            self.stats.stalls += 1
            log.warning("host %s: silent for %.1fs on its lease; killing "
                        "the worker", host.name, now - host.last_heard)
            self._host_failure(
                host, f"silent for over {timeout:g} s on its lease"
            )

    def _no_usable_hosts(self) -> bool:
        return not any(host.usable for host in self.hosts)

    # ---------------------------------------------------------- leases
    def _expire_leases(self, book: LeaseBook, now: float) -> None:
        for lease in book.expire(now):
            self.stats.leases_expired += 1
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("dispatch.lease.expired")
            self._coordinate(lease_to_record(
                "expired", self._next_seq(), lease=lease.id,
                host=lease.host, indices=lease.unfinished(book.done),
            ))
            log.warning(
                "lease %d on host %s expired (%.1fs silent); requeued",
                lease.id, lease.host, now - lease.last_progress,
            )
            owner = self._host_by_name(lease.host)
            if owner is not None and owner.lease_id == lease.id:
                # Maybe slow, not dead: no new grants until it reports.
                owner.state = "quarantined" if owner.live else owner.state
                owner.lease_id = None

    def _grant_work(self, book: LeaseBook, now: float) -> None:
        usable = [
            host.name for host in self.hosts
            if host.usable and host.state != "quarantined"
        ]
        ready = [host for host in self.hosts if host.state == "ready"]
        self._grant_to(ready, book, now, usable)
        if book.pending and not any(
            host.state == "ready" for host in self.hosts
        ):
            # Starvation guard: a lost chunk frame leaves its worker
            # waiting forever and its host quarantined after the lease
            # expires.  With work still pending and no ready host,
            # lease to quarantined-but-idle hosts anyway -- first-write
            # -wins dedup makes double execution safe, and a host that
            # is actually dead fails the send and takes the normal
            # host-failure path.  One such chunk at most is stacked on
            # a silent worker, so a hung one cannot fill its pipe.
            starved = [
                host for host in self.hosts
                if host.state == "quarantined"
                and len(book.owed.get(host.name, ())) < 2
            ]
            self._grant_to(starved, book, now, usable)

    def _grant_to(self, hosts: Sequence[_Host], book: LeaseBook,
                  now: float, usable: Sequence[str]) -> None:
        for host in hosts:
            if host.lease_id is not None:
                continue
            idle = not book.owes(host.name)
            lease = book.grant(host.name, now, usable)
            event = "granted"
            if lease is None:
                threshold = self._steal_threshold()
                if threshold is not None:
                    lease = book.steal(host.name, now, threshold)
                    event = "stolen"
            if lease is None:
                continue
            try:
                host.handle.send({
                    "type": "chunk",
                    "lease": lease.id,
                    "indices": lease.indices,
                    "faults": [
                        fault_to_payload(self._faults[i])
                        for i in lease.indices
                    ],
                })
            except TransportError as exc:
                book.withdraw(lease.id)
                self._host_failure(host, f"send failed: {exc.detail}")
                continue
            host.state = "busy"
            host.lease_id = lease.id
            if idle:  # never restart the clock of a worker gone silent
                host.last_heard = now
            metrics = get_metrics()
            if event == "stolen":
                self.stats.leases_stolen += 1
                if metrics.enabled:
                    metrics.counter("dispatch.lease.stolen")
            else:
                self.stats.leases_granted += 1
                if metrics.enabled:
                    metrics.counter("dispatch.lease.granted")
            self._coordinate(lease_to_record(
                event, self._next_seq(), lease=lease.id, host=host.name,
                indices=lease.indices, stolen_from=lease.stolen_from,
                solo=lease.solo,
            ))

    def _steal_threshold(self) -> Optional[float]:
        """Silence (seconds) beyond which a lease counts as a straggler."""
        if len(self._latencies) < self.config.min_latency_samples:
            return None
        median_s = statistics.median(self._latencies) / 1000.0
        return max(STRAGGLER_FACTOR * median_s, 5 * POLL_INTERVAL)

    # -------------------------------------------------------- messages
    def _drain_messages(self, book: LeaseBook) -> bool:
        progressed = False
        for host in self.hosts:
            if not host.live or host.handle is None:
                continue
            while True:
                try:
                    message = host.handle.recv(timeout=0.0)
                except TransportError as exc:
                    self._host_failure(host, exc.detail)
                    progressed = True
                    break
                if message is None:
                    break
                progressed = True
                if not self._handle_message(book, host, message):
                    break
        return progressed

    def _handle_message(self, book: LeaseBook, host: _Host,
                        message: Dict[str, Any]) -> bool:
        """Process one worker message; False ends this host's drain."""
        mtype = message.get("type")
        chaos_clock_tick(host.name)
        now = chaos_now()
        host.last_heard = now
        if mtype == "ready":
            if message.get("protocol") != PROTOCOL_VERSION:
                self._host_failure(
                    host,
                    f"protocol mismatch: {message.get('protocol')!r}",
                )
                return False
            host.state = "ready"
            host.handshake_retries = 0
            return True
        if mtype == "verdict":
            record = message.get("record") or {}
            try:
                index = int(record["index"])
                verdict = verdict_from_record(record)
            except (KeyError, TypeError, ValueError, IndexError):
                self._host_failure(host, "malformed verdict record")
                return False
            self._observe_latency(host, now)
            self._accept(book, index, verdict, now, host.name)
            return True
        if mtype == "chunk_done":
            lease_id = message.get("lease")
            book.release(lease_id)
            self._coordinate(lease_to_record(
                "completed", self._next_seq(),
                lease=lease_id, host=host.name,
                count=message.get("count"),
                elapsed_ms=message.get("elapsed_ms"),
            ))
            if host.lease_id == lease_id:
                host.lease_id = None
            if host.state in ("busy", "quarantined"):
                # A quarantined host that reported back is trustworthy
                # again -- slow, but speaking the protocol.
                host.state = "busy" if host.lease_id is not None else "ready"
            return True
        if mtype == "error":
            self._host_failure(
                host, f"worker error: {message.get('detail')!r}"
            )
            return False
        if mtype == "bye":  # unsolicited; treat as a clean disappearance
            self._host_failure(host, "worker left early")
            return False
        self._host_failure(host, f"unexpected message type {mtype!r}")
        return False

    def _accept(self, book: LeaseBook, index: int, verdict: FaultVerdict,
                now: float, host: Optional[str] = None) -> None:
        """Record one verdict, reported by *host*'s worker when given:
        journal the first per index, count the rest as duplicates."""
        if not book.complete(index, verdict, now, host):
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("dispatch.duplicates")
            return
        self._count_verdict(verdict)
        if self._journal is not None:
            self._journal.append(verdict_to_record(index, verdict))
            if self._journal.pending >= self.config.checkpoint_every:
                self._journal.flush()

    def _count_verdict(self, verdict: FaultVerdict) -> None:
        """Per-status counters for one first-accepted verdict.

        The workers simulate with ``count_verdict=False`` (see
        :func:`~repro.runner.harness.simulate_fault_once`): duplicated
        executions from expiry or stealing, and workers killed before
        shipping their ``bye`` snapshot, would otherwise leave the
        merged counters out of step with the campaign summary.  The
        dispatcher is the only place that knows which verdict *won*,
        so it owns the per-status counting.
        """
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.counter(f"campaign.verdict.{verdict.status}")
        if verdict.status == "mot":
            metrics.counter(f"campaign.how.{verdict.how}")

    def _observe_latency(self, host: _Host, now: float) -> None:
        """Per-fault wall latency, measured between protocol events.

        The distributed mirror of the ``campaign.fault_ms`` histogram
        the workers record locally: used only for straggler detection,
        never re-observed into the registry (the workers' own samples
        arrive with their ``bye`` snapshots -- re-observing here would
        double-count)."""
        book = self.book
        if book is None or host.lease_id is None:
            return
        lease = book.leases.get(host.lease_id)
        reference = lease.last_progress if lease is not None else now
        self._latencies.append(max(0.0, (now - reference) * 1000.0))
        if len(self._latencies) > 256:
            del self._latencies[:-256]

    # ---------------------------------------------------- journal I/O
    def _open_journal(
        self, fault_list: List[Fault],
    ) -> Tuple[Optional[CampaignJournal], Dict[int, FaultVerdict]]:
        path = self.config.checkpoint_path
        if path is None:
            return None, {}
        journal, reused = CampaignJournal.open_or_resume(
            path,
            simulator_manifest(self.simulator, fault_list),
            self.config.resume,
        )
        report = journal.last_report
        if report is not None and report.corrupt_lines:
            log.warning(
                "journal %s: salvaged %d corrupt line(s) "
                "(quarantined to %s); the lost verdicts will be "
                "re-simulated",
                path, report.corrupt_lines, report.quarantine_path,
            )
        return journal, reused

    def _coordinate(self, record: Dict[str, Any]) -> None:
        if self._journal is not None:
            self._journal.append(record)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _flush(self) -> None:
        if self._journal is not None:
            self._journal.flush()

    def _budget_payload(self) -> Optional[Dict[str, Any]]:
        budget = self.config.budget
        if budget is None or not budget.bounded:
            return None
        return {
            "wall_clock_ms": budget.wall_clock_ms,
            "max_events": budget.max_events,
        }

    # -------------------------------------------------------- shutdown
    def _shutdown_all(self, graceful: bool) -> None:
        """Stop every worker: politely (``shutdown``, collect the
        ``bye`` metrics, let it exit) when *graceful*, else kill."""
        for host in self.hosts:
            if host.handle is None:
                continue
            timeout = 0.0
            if graceful and host.live:
                try:
                    host.handle.send({"type": "shutdown"})
                    if self._collect_bye(host):
                        timeout = SHUTDOWN_TIMEOUT
                except TransportError:
                    pass
            host.handle.close(timeout=timeout)
            host.handle = None
            if host.live:
                host.state = "down"

    def _collect_bye(self, host: _Host) -> bool:
        """Wait for *host*'s ``bye``; False when it never came.  With
        ``stall_timeout`` set, a worker silent that long is given up
        on (it is still stuck in a fault another worker finished)."""
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT
        while True:
            timeout = deadline - time.monotonic()  # wall wait, never skewed
            if timeout <= 0:
                return False
            if self.config.stall_timeout is not None:
                timeout = min(timeout, self.config.stall_timeout)
            message = host.handle.recv(timeout=timeout)
            if message is None:
                return False
            if message.get("type") != "bye":
                continue  # late verdicts/chunk_done past completion
            payload = message.get("metrics")
            metrics = get_metrics()
            if payload and metrics.enabled:
                metrics.merge_snapshot(MetricsSnapshot.from_payload(payload))
            return True

    def _host_by_name(self, name: str) -> Optional[_Host]:
        for host in self.hosts:
            if host.name == name:
                return host
        return None

"""Self-healing campaign supervision: dispatch first, serial last.

:class:`SupervisedCampaignRunner` runs a campaign through the lease
dispatcher (:class:`~repro.runner.dispatch.DistributedCampaignRunner`),
which already heals everything a worker can do wrong: it relaunches
dead workers, reassigns their leases, kills stalled ones, and isolates
a fault that kills its workers as an ``errored``/``poison`` verdict.
The supervisor adds the one rung below it and a post-mortem trail:

* **serial degradation** -- when the dispatcher runs out of usable
  workers (every one blacklisted:
  :class:`~repro.errors.DistributedFailed`), the residue is finished
  in-process by the serial :class:`~repro.runner.harness.CampaignHarness`,
  resumed from the same journal, so no verdict is computed twice.  A
  fault implicated in a worker death and not yet cleared by a solo
  re-run is *not* simulated in the supervising process -- it may kill
  that one too; it is quarantined as an ``errored``/``suspect`` verdict
  instead.  With ``allow_degraded=False`` the
  :class:`~repro.errors.DistributedFailed` propagates, naming the
  journal to ``--resume`` from;

* **post-mortem trail** -- every decision (dispatch start, confirmed
  poison, dispatch failure, degradation, interruption, completion) is
  appended to a :class:`~repro.runner.journal.SupervisionLog` sidecar
  (``<checkpoint>.events``).

Verdicts are identical to a serial run for every non-poison fault, in
the same order; supervision changes *where* work happens, never what it
computes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, List, Optional, Sequence

from repro.errors import CampaignInterrupted, DistributedFailed
from repro.faults.model import Fault
from repro.mot.simulator import Campaign, FaultVerdict
from repro.obs.metrics import get_metrics
from repro.runner.dispatch import (
    DispatchConfig,
    DispatchStats,
    DistributedCampaignRunner,
)
from repro.runner.harness import CampaignHarness, HarnessConfig
from repro.runner.journal import (
    CampaignJournal,
    SupervisionLog,
    verdict_to_record,
)
from repro.runner.transport import LocalTransport, Transport

__all__ = [
    "SUSPECT_HOW",
    "SupervisorStats",
    "SupervisedCampaignRunner",
]

#: ``how`` tag of an implicated fault quarantined, unsimulated, when the
#: campaign degrades to serial before a solo re-run could clear it.
SUSPECT_HOW = "suspect"


@dataclass
class SupervisorStats:
    """What supervision did beyond the verdicts themselves.

    ``reused`` / ``simulated`` / ``errored`` / ``aborted`` mirror the
    serial harness stats, so callers (the CLI) can report any runner
    uniformly.  ``dispatch`` is the dispatcher's own record (relaunches,
    stalls, poison, blacklisted hosts).
    """

    dispatch: DispatchStats = field(default_factory=DispatchStats)
    degraded: bool = False
    #: Implicated faults quarantined unsimulated on degradation.
    quarantined: List[int] = field(default_factory=list)
    reused: int = 0
    simulated: int = 0
    errored: int = 0
    aborted: int = 0


class SupervisedCampaignRunner:
    """Run a campaign over workers to completion, whatever they do."""

    def __init__(
        self,
        simulator: Any,
        hosts: Sequence[str],
        transport: Optional[Transport] = None,
        config: Optional[DispatchConfig] = None,
        allow_degraded: bool = True,
    ) -> None:
        self.simulator = simulator
        self.hosts = list(hosts)
        self.transport = transport or LocalTransport()
        self.config = config or DispatchConfig()
        self.allow_degraded = allow_degraded
        self.stats = SupervisorStats()

    # ------------------------------------------------------------------
    def run(self, faults: Iterable[Fault]) -> Campaign:
        """Simulate every fault; identical verdicts to a serial run for
        all non-poison faults.

        Raises
        ------
        DistributedFailed
            Every worker was lost and degradation is disabled.
        CampaignInterrupted
            Ctrl-C or the config's ``cancel_event``, journal flushed.
        """
        fault_list = list(faults)
        public_path = self.config.checkpoint_path
        own_tmpdir: Optional[str] = None
        if public_path is None:
            # Serial degradation resumes from the dispatcher's journal,
            # so an unjournaled run still journals privately.
            own_tmpdir = tempfile.mkdtemp(prefix="repro-supervised-")
            path = os.path.join(own_tmpdir, "campaign.jsonl")
        else:
            path = public_path
        log = SupervisionLog(path + ".events")
        if not (self.config.resume and os.path.exists(log.path)):
            log.create()
        try:
            return self._supervise(fault_list, path, public_path, log)
        finally:
            if own_tmpdir is not None:
                shutil.rmtree(own_tmpdir, ignore_errors=True)

    # ------------------------------------------------------------------
    def _supervise(
        self,
        fault_list: List[Fault],
        path: str,
        public_path: Optional[str],
        log: SupervisionLog,
    ) -> Campaign:
        runner = DistributedCampaignRunner(
            self.simulator,
            self.hosts,
            self.transport,
            replace(self.config, checkpoint_path=path),
        )
        self.stats.dispatch = runner.stats
        log.record(
            "dispatch_started",
            hosts=list(self.hosts),
            transport=self.transport.kind,
        )
        try:
            try:
                campaign = runner.run(fault_list)
            finally:
                for index in runner.stats.poisoned:
                    log.record("poison_confirmed", index=index)
        except CampaignInterrupted as exc:
            log.record("interrupted", completed=exc.completed)
            raise CampaignInterrupted(
                completed=exc.completed, journal_path=public_path
            ) from None
        except DistributedFailed as exc:
            log.record(
                "dispatch_failed",
                completed=exc.completed,
                remaining=exc.remaining,
                blacklisted=list(exc.blacklisted),
            )
            if not self.allow_degraded:
                raise DistributedFailed(
                    completed=exc.completed,
                    remaining=exc.remaining,
                    journal_path=public_path,
                    blacklisted=exc.blacklisted,
                ) from None
            campaign = self._degrade(runner, fault_list, path, public_path,
                                     log)
        self.stats.reused = runner.stats.reused
        self.stats.simulated = len(campaign.verdicts) - self.stats.reused
        self.stats.errored = campaign.errored
        self.stats.aborted = campaign.aborted_budget
        log.record(
            "campaign_completed",
            verdicts=len(campaign.verdicts),
            poisoned=list(runner.stats.poisoned),
            degraded=self.stats.degraded,
        )
        return campaign

    # ------------------------------------------------------------------
    def _degrade(
        self,
        runner: DistributedCampaignRunner,
        fault_list: List[Fault],
        path: str,
        public_path: Optional[str],
        log: SupervisionLog,
    ) -> Campaign:
        """The last rung: quarantine uncleared suspects, then finish the
        residue in-process, resumed from the dispatcher's journal."""
        book = runner.book
        suspects = book.uncleared() if book is not None else []
        self.stats.degraded = True
        log.record("degraded_to_serial", quarantined=suspects)
        if book is not None and suspects:
            journal = CampaignJournal(path)
            metrics = get_metrics()
            for index in suspects:
                deaths = len(book.implicated[index])
                journal.append(verdict_to_record(index, FaultVerdict(
                    fault_list[index],
                    "errored",
                    how=SUSPECT_HOW,
                    detail=(
                        f"implicated in {deaths} worker death(s) and every "
                        f"worker was lost before a solo re-run cleared it; "
                        f"not simulated in the supervising process"
                    ),
                )))
                if metrics.enabled:
                    # Minted here, not by a harness: count it here.
                    metrics.counter("campaign.verdict.errored")
            journal.flush()
            self.stats.quarantined = suspects
        harness = CampaignHarness(
            self.simulator,
            HarnessConfig(
                budget=self.config.budget,
                checkpoint_path=path,
                checkpoint_every=self.config.checkpoint_every,
                resume=True,
                cancel_event=self.config.cancel_event,
            ),
        )
        try:
            return harness.run(fault_list)
        except CampaignInterrupted as exc:
            log.record("interrupted", completed=exc.completed)
            raise CampaignInterrupted(
                completed=exc.completed, journal_path=public_path
            ) from None

"""Resilient campaign execution harness.

Wraps the per-fault loop of any MOT simulator
(:class:`~repro.mot.simulator.ProposedSimulator`,
:class:`~repro.mot.baseline.BaselineSimulator`, or anything exposing
``simulate_fault``) with the production behaviors a long campaign
needs:

* **per-fault budgets** -- wall-clock and work-event limits
  (:mod:`repro.runner.budget`); a runaway fault becomes an explicit
  ``aborted``/``budget`` verdict instead of a hang;
* **crash quarantine** -- an exception while simulating one fault is
  captured (class name + traceback) as an ``errored`` verdict and the
  campaign continues (``fail_fast`` restores the old die-on-first-error
  behavior);
* **checkpoint/resume** -- verdicts stream to a JSONL journal
  (:mod:`repro.runner.journal`) every ``checkpoint_every`` faults; an
  interrupted run resumed from the journal re-simulates only the
  remaining faults, after the journal manifest (circuit, simulator,
  config, patterns, fault list) is validated against the new run;
* **clean interruption** -- SIGINT is handled at fault boundaries: the
  in-flight fault finishes, the journal is flushed, and
  :class:`~repro.errors.CampaignInterrupted` reports how far the run
  got and where the checkpoint lives.

The harness is deliberately simulator-agnostic: budgets are passed via
the optional ``meter`` argument of ``simulate_fault`` when the
simulator supports it.  The multi-process executor
(:mod:`repro.runner.dispatch`) shares its per-fault semantics
(:func:`simulate_fault_once`) and its journal format.
"""

from __future__ import annotations

import inspect
import json
import os
import signal
import threading
import time
import traceback
import warnings
from dataclasses import asdict, dataclass, is_dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import BudgetExceeded, CampaignInterrupted
from repro.faults.model import Fault
from repro.mot.simulator import Campaign, FaultVerdict
from repro.obs.metrics import get_metrics
from repro.chaos.runtime import CHAOS_EXIT_CODE, chaos_fault
from repro.runner.budget import BudgetMeter, FaultBudget
from repro.runner.journal import (
    CampaignJournal,
    campaign_manifest,
    metrics_to_record,
    verdict_to_record,
)

__all__ = [
    "HarnessConfig",
    "HarnessStats",
    "CampaignHarness",
    "probe_meter_support",
    "run_campaign",
    "simulate_fault_once",
    "simulator_manifest",
]


def probe_meter_support(simulator: Any) -> bool:
    """True when ``simulator.simulate_fault`` accepts a budget ``meter``."""
    try:
        parameters = inspect.signature(simulator.simulate_fault).parameters
    except (TypeError, ValueError):  # builtins / exotic callables
        return False
    return "meter" in parameters


def simulate_fault_once(
    simulator: Any,
    fault: Fault,
    budget: Optional[FaultBudget] = None,
    supports_meter: Optional[bool] = None,
    fail_fast: bool = False,
    count_verdict: bool = True,
) -> FaultVerdict:
    """Simulate one fault with budget + quarantine semantics.

    The single place verdict semantics are defined: the serial harness
    and the dispatcher's workers both call this, so a fault produces the
    same verdict no matter which executor ran it.  ``KeyboardInterrupt``
    propagates (callers own interruption policy); any other exception
    becomes an ``errored`` verdict unless ``fail_fast``.

    ``count_verdict=False`` suppresses the per-status verdict counters
    (the ``campaign.fault_ms`` histogram is still observed).  The
    distributed worker loop passes it: under lease expiry or work
    stealing the same fault may legitimately execute on two workers,
    and a killed worker never ships its counters home at all -- so the
    *dispatcher* counts each verdict exactly once, on first accept,
    keeping the merged counters equal to the campaign summary no matter
    what chaos did to the workers.
    """
    if supports_meter is None:
        supports_meter = probe_meter_support(simulator)
    kwargs: Dict[str, Any] = {}
    if budget is not None and budget.bounded and supports_meter:
        kwargs["meter"] = BudgetMeter(budget)
    started = time.perf_counter()
    try:
        verdict = simulator.simulate_fault(fault, **kwargs)
    except BudgetExceeded as exc:
        # Simulators convert this themselves; kept for simulators
        # that let the meter's exception escape.
        verdict = FaultVerdict(fault, "aborted", how="budget",
                               detail=str(exc))
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        if fail_fast:
            raise
        verdict = FaultVerdict(
            fault,
            "errored",
            how=type(exc).__name__,
            detail=traceback.format_exc(),
        )
    metrics = get_metrics()
    if metrics.enabled:
        # Counted once per *simulated* fault (reused verdicts are
        # not re-counted), so the merged campaign counters of a
        # fresh run equal the campaign summary.
        if count_verdict:
            metrics.counter(f"campaign.verdict.{verdict.status}")
            if verdict.status == "mot":
                metrics.counter(f"campaign.how.{verdict.how}")
        metrics.observe(
            "campaign.fault_ms",
            (time.perf_counter() - started) * 1000.0,
        )
    return verdict


def simulator_manifest(simulator: Any, faults: List[Fault]) -> Dict[str, Any]:
    """The journal manifest identifying a campaign of *simulator*.

    Shared by the serial harness and the dispatcher so both journal
    formats stay interchangeable.  The harness budget is
    excluded: it bounds *effort*, not the verdict semantics a journal
    identifies (a resumed run may legitimately raise the budget).
    """
    config = getattr(simulator, "config", None)
    config_fields = asdict(config) if is_dataclass(config) else {}
    config_fields.pop("budget", None)
    return campaign_manifest(
        circuit_name=simulator.circuit.name,
        simulator_kind=type(simulator).__name__,
        config_fields=config_fields,
        patterns=[list(p) for p in simulator.patterns],
        faults=faults,
    )


@dataclass(frozen=True)
class HarnessConfig:
    """Behavior knobs of :class:`CampaignHarness`.

    Attributes
    ----------
    budget:
        Per-fault :class:`~repro.runner.budget.FaultBudget` (``None``
        defers to the simulator's own configured budget, if any).
    checkpoint_path:
        JSONL journal file; ``None`` disables checkpointing.
    checkpoint_every:
        Flush the journal after this many new verdicts.
    resume:
        Reuse verdicts from an existing journal at ``checkpoint_path``
        (validated against this run's manifest).  When the journal does
        not exist yet, the run starts fresh and creates it.
    fail_fast:
        Re-raise the first simulation exception instead of quarantining
        it as an ``errored`` verdict.
    handle_sigint:
        Install a SIGINT handler for the duration of the run so Ctrl-C
        stops at the next fault boundary with the journal flushed.
        Ignored off the main thread (signals cannot be installed there).
    progress_path:
        When set, a small JSON progress beacon (``completed`` count,
        ``in_flight`` journal index, wall-clock ``ts``) is rewritten at
        every fault boundary; the job server streams it as live
        progress.  ``None`` (default) writes nothing.
    cancel_event:
        Cooperative cancellation: a :class:`threading.Event` checked at
        every fault boundary, exactly where the deferred-SIGINT flag is
        checked.  When set, the in-flight fault finishes, the journal
        is flushed, and :class:`~repro.errors.CampaignInterrupted` is
        raised -- so a canceled campaign is resumable from its journal
        just like an interrupted one.  ``None`` (default) disables the
        check.  Programmatic callers (the campaign service) own the
        event; it is never shipped to worker processes.
    """

    budget: Optional[FaultBudget] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 25
    resume: bool = False
    fail_fast: bool = False
    handle_sigint: bool = True
    progress_path: Optional[str] = None
    cancel_event: Optional[threading.Event] = None


@dataclass
class HarnessStats:
    """What the harness did beyond the verdicts themselves."""

    simulated: int = 0
    reused: int = 0
    errored: int = 0
    aborted: int = 0


class CampaignHarness:
    """Run a fault campaign to completion, whatever the faults do."""

    def __init__(self, simulator: Any, config: Optional[HarnessConfig] = None):
        self.simulator = simulator
        self.config = config or HarnessConfig()
        if self.config.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.config.resume and not self.config.checkpoint_path:
            raise ValueError("resume requires a checkpoint path")
        self.stats = HarnessStats()
        self._interrupted = False
        self._supports_meter = self._probe_meter_support(simulator)

    # ------------------------------------------------------------------
    @staticmethod
    def _probe_meter_support(simulator: Any) -> bool:
        return probe_meter_support(simulator)

    def _write_progress(self, in_flight: Optional[int]) -> None:
        """Rewrite the progress beacon."""
        path = self.config.progress_path
        if path is None:
            return
        payload = {
            "completed": self.stats.simulated + self.stats.reused,
            "in_flight": in_flight,
            "ts": time.time(),
        }
        try:
            with open(path, "w") as handle:
                json.dump(payload, handle)
        except OSError:  # pragma: no cover - beacon loss must never kill a run
            pass

    # ------------------------------------------------------------------
    def _simulate_one(self, fault: Fault) -> FaultVerdict:
        """Simulate one fault, tracking harness stats and interruption."""
        try:
            verdict = simulate_fault_once(
                self.simulator,
                fault,
                budget=self.config.budget,
                supports_meter=self._supports_meter,
                fail_fast=self.config.fail_fast,
            )
        except KeyboardInterrupt:
            self._interrupted = True
            raise
        if verdict.status == "errored":
            self.stats.errored += 1
        elif verdict.status == "aborted":
            self.stats.aborted += 1
        return verdict

    # ------------------------------------------------------------------
    def run(self, faults: Iterable[Fault]) -> Campaign:
        """Simulate every fault; always leaves a flushed journal behind.

        Raises
        ------
        CampaignInterrupted
            On SIGINT / KeyboardInterrupt, after flushing the journal.
        JournalError
            When ``resume`` finds a journal that does not match this
            run.
        """
        fault_list = list(faults)
        manifest = simulator_manifest(self.simulator, fault_list)
        journal, reused = self._open_journal(fault_list, manifest)

        verdicts: List[Optional[FaultVerdict]] = [None] * len(fault_list)
        for index, verdict in reused.items():
            if 0 <= index < len(fault_list):
                verdicts[index] = verdict
                self.stats.reused += 1

        previous_handler = self._install_sigint()
        try:
            for index, fault in enumerate(fault_list):
                if verdicts[index] is not None:
                    continue
                cancel = self.config.cancel_event
                if cancel is not None and cancel.is_set():
                    self._finish_journal(journal)
                    raise CampaignInterrupted(
                        completed=sum(v is not None for v in verdicts),
                        journal_path=self.config.checkpoint_path,
                    )
                self._write_progress(in_flight=index)
                # One per-fault chaos event; a kill_mid_write flag
                # degenerates to a plain kill here (there is no frame
                # to tear in-process).
                if chaos_fault(index) == "kill_mid_write":
                    os._exit(CHAOS_EXIT_CODE)
                try:
                    verdict = self._simulate_one(fault)
                except KeyboardInterrupt:
                    self._finish_journal(journal)
                    raise CampaignInterrupted(
                        completed=sum(v is not None for v in verdicts),
                        journal_path=self.config.checkpoint_path,
                    ) from None
                verdicts[index] = verdict
                self.stats.simulated += 1
                if journal is not None:
                    journal.append(verdict_to_record(index, verdict))
                    if journal.pending >= self.config.checkpoint_every:
                        journal.flush()
                cancel = self.config.cancel_event
                if cancel is not None and cancel.is_set():
                    self._interrupted = True
                if self._interrupted:
                    self._finish_journal(journal)
                    raise CampaignInterrupted(
                        completed=sum(v is not None for v in verdicts),
                        journal_path=self.config.checkpoint_path,
                    )
            self._append_metrics(journal)
            self._finish_journal(journal)
            self._write_progress(in_flight=None)
        finally:
            self._restore_sigint(previous_handler)
        return Campaign(
            circuit_name=self.simulator.circuit.name,
            verdicts=[v for v in verdicts if v is not None],
        )

    # ------------------------------------------------------------------
    def _open_journal(
        self, fault_list: List[Fault], manifest: Dict[str, Any]
    ):
        """Create or resume the checkpoint journal.

        Returns ``(journal or None, {index: reused verdict})``.
        """
        path = self.config.checkpoint_path
        if path is None:
            return None, {}
        journal = CampaignJournal(path)
        if self.config.resume:
            try:
                with open(path):
                    pass
            except OSError:
                journal.create(manifest)  # first run of a resumable loop
                return journal, {}
            existing, reused = journal.load()
            report = journal.last_report
            if report is not None and report.corrupt_lines:
                warnings.warn(
                    f"journal {path!r}: salvaged around "
                    f"{report.corrupt_lines} corrupt line(s)"
                    + (f" (quarantined to {report.quarantine_path!r})"
                       if report.quarantine_path else "")
                    + "; the lost verdicts will be re-simulated",
                    stacklevel=3,
                )
            journal.validate_manifest(existing, manifest)
            return journal, reused
        journal.create(manifest)
        return journal, {}

    @staticmethod
    def _append_metrics(journal: Optional[CampaignJournal]) -> None:
        """Journal the registry snapshot at successful completion.

        A crashed or interrupted run leaves no record (its verdicts
        survive in the journal, its telemetry is lost -- acceptable,
        never misleading, since reruns re-count only missing faults).
        """
        metrics = get_metrics()
        if journal is None or not metrics.enabled:
            return
        snapshot = metrics.snapshot()
        if not snapshot.empty:
            journal.append(metrics_to_record(snapshot.to_payload()))

    @staticmethod
    def _finish_journal(journal: Optional[CampaignJournal]) -> None:
        if journal is not None:
            journal.flush()

    # ------------------------------------------------------------------
    def _install_sigint(self):
        if not self.config.handle_sigint:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None

        def _request_stop(_signum, _frame):
            self._interrupted = True

        try:
            return signal.signal(signal.SIGINT, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            return None

    @staticmethod
    def _restore_sigint(previous) -> None:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)


def run_campaign(
    simulator: Any,
    faults: Iterable[Fault],
    config: Optional[HarnessConfig] = None,
) -> Campaign:
    """One-shot convenience: ``CampaignHarness(simulator, config).run()``."""
    return CampaignHarness(simulator, config).run(faults)

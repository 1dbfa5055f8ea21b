"""Campaign execution runner: budgets, journaling, quarantine, resume.

A campaign runs on one of two executors: the serial
:class:`~repro.runner.harness.CampaignHarness`, or -- for ``--workers
N`` (N forked local workers) and ``--hosts`` -- the lease dispatcher
under :class:`~repro.runner.supervisor.SupervisedCampaignRunner`, which
degrades to the serial harness when every worker is lost.
:func:`repro.runner.campaign.run_campaign` picks one.

Public surface:

* :mod:`repro.runner.errors` -- the shared error taxonomy;
* :mod:`repro.runner.budget` -- per-fault work/time budgets;
* :mod:`repro.runner.journal` -- JSONL checkpoint journal;
* :mod:`repro.runner.harness` -- the resilient serial campaign harness;
* :mod:`repro.runner.retry` -- retry policy (capped exponential backoff);
* :mod:`repro.runner.transport` -- worker protocol, forked local and
  command-launched workers;
* :mod:`repro.runner.dispatch` -- the lease dispatcher (multi-process
  executor, poison isolation);
* :mod:`repro.runner.supervisor` -- dispatch with serial degradation.

Submodules are loaded lazily (PEP 562): the simulators in ``repro.mot``
import :mod:`repro.runner.budget` while :mod:`repro.runner.harness`
imports the simulators, so an eager ``__init__`` would create an import
cycle.
"""

import importlib
from typing import Any

_EXPORTS = {
    # errors
    "ReproError": "errors",
    "CircuitError": "errors",
    "FaultModelError": "errors",
    "BudgetExceeded": "errors",
    "CampaignInterrupted": "errors",
    "JournalError": "errors",
    "TransportError": "errors",
    "DistributedFailed": "errors",
    # budget
    "FaultBudget": "budget",
    "BudgetMeter": "budget",
    "UNLIMITED": "budget",
    # journal
    "CampaignJournal": "journal",
    "SupervisionLog": "journal",
    "campaign_manifest": "journal",
    "JOURNAL_VERSION": "journal",
    # harness
    "CampaignHarness": "harness",
    "HarnessConfig": "harness",
    "HarnessStats": "harness",
    "simulator_manifest": "harness",
    # retry
    "RetryPolicy": "retry",
    # supervisor
    "SupervisedCampaignRunner": "supervisor",
    "SupervisorStats": "supervisor",
    # transport
    "PROTOCOL_VERSION": "transport",
    "WorkloadSpec": "transport",
    "Transport": "transport",
    "LocalTransport": "transport",
    "CommandTransport": "transport",
    "WorkerHandle": "transport",
    "make_transport": "transport",
    "worker_main": "transport",
    # dispatch
    "DispatchConfig": "dispatch",
    "DispatchStats": "dispatch",
    "LeaseBook": "dispatch",
    "DistributedCampaignRunner": "dispatch",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{submodule}")
    return getattr(module, name)


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_EXPORTS))

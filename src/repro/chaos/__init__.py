"""Deterministic fault-injection plane for the campaign runner.

``repro.chaos`` scripts seeded failure schedules (scenarios) against
the runner seams, plus an invariant checker:

* :mod:`repro.chaos.scenario` -- :class:`ChaosScenario`, the JSON/dict
  spec (seed, injection sites, rates, triggers) and its validation;
* :mod:`repro.chaos.plan` -- :class:`ChaosPlan`, the compiled form: a
  :class:`ChaosClock`-seeded decision engine whose per-site event
  counters make the same scenario + seed replay the identical failure
  sequence, recorded in a byte-stable injection log;
* :mod:`repro.chaos.runtime` -- the ambient plan slot the runner seams
  consult (install/uninstall, environment propagation to worker
  processes through ``REPRO_CHAOS_SCENARIO``) and the hook helpers
  (``chaos_fault``, ``chaos_now``, ``chaos_journal_write``, ...);
* :mod:`repro.chaos.inject` -- the transport-level injector wrapping a
  live :class:`~repro.runner.transport.WorkerHandle` (drop, duplicate,
  delay, reorder, truncate-mid-frame);
* :mod:`repro.chaos.invariants` -- end-to-end assertions after a chaos
  run: no verdict lost, none duplicated, journal replay idempotent,
  merged metrics equal the campaign summary, CSV bit-identical to a
  fault-free serial run;
* :mod:`repro.chaos.campaign` -- the driver: run a scenario against the
  standard distributed campaign, soak across seeds, and shrink a
  failing scenario to its minimal injection schedule.
"""

from repro.chaos.scenario import (
    SITE_ACTIONS,
    ChaosScenario,
    InjectionSpec,
)
from repro.chaos.plan import ChaosClock, ChaosPlan, Injection, InjectionEvent
from repro.chaos.runtime import (
    SCENARIO_ENV,
    current_plan,
    install_plan,
    uninstall_plan,
)

# The driver and checker layers import the runner (dispatch, journal,
# harness), which itself imports repro.chaos.runtime -- so they load
# lazily to keep `import repro.runner.transport` acyclic.
_LAZY = {
    "InvariantReport": "repro.chaos.invariants",
    "check_invariants": "repro.chaos.invariants",
    "ChaosRunResult": "repro.chaos.campaign",
    "run_scenario": "repro.chaos.campaign",
    "shrink_scenario": "repro.chaos.campaign",
    "soak": "repro.chaos.campaign",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "SITE_ACTIONS",
    "ChaosScenario",
    "InjectionSpec",
    "ChaosClock",
    "ChaosPlan",
    "Injection",
    "InjectionEvent",
    "SCENARIO_ENV",
    "current_plan",
    "install_plan",
    "uninstall_plan",
    "InvariantReport",
    "check_invariants",
    "ChaosRunResult",
    "run_scenario",
    "shrink_scenario",
    "soak",
]

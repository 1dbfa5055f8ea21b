"""Declared registry of metric and phase names.

Every metric the package records -- ``metrics.counter(...)``,
``metrics.observe(...)`` and ``with metrics.phase(...)`` -- must use a
name declared here, either verbatim in :data:`METRIC_NAMES` or under
one of the dynamic-suffix families in :data:`METRIC_PREFIXES` (e.g.
``campaign.verdict.<status>``).  The custom AST lint
(``tools/repro_lint.py``, rule ``RL003``) enforces this at CI time, so
a typo in an instrumentation call fails the lint job instead of
silently recording under a name no dashboard or assertion ever reads.

Keep this module dependency-free (it is imported by the lint tool
outside any simulation context) and the sets sorted when editing.
"""

from __future__ import annotations

#: Fixed metric and phase-timer names, exactly as recorded.
METRIC_NAMES = frozenset(
    {
        # Pre-campaign static analysis (repro.analysis.collapse).
        "analysis.collapse.compute",
        # Phase timers (``with metrics.phase(name)``).
        "backward",
        "conv_sim",
        "expansion",
        "fallback",
        "fsim",
        "good_sim",
        "resim",
        # Campaign harness.
        "campaign.fault_ms",
        "campaign.verdict.errored",
        # Chaos injection plane (repro.chaos).
        "chaos.injections",
        # Distributed dispatch (repro.runner.dispatch / transport).
        "dispatch.duplicates",
        "dispatch.handshake.retries",
        "dispatch.lease.expired",
        "dispatch.lease.granted",
        "dispatch.lease.stolen",
        "dispatch.poisoned",
        "host.blacklisted",
        "host.failures",
        "journal.corrupt_lines",
        "journal.write.retries",
        "supervision.log.corrupt_lines",
        "worker.chunks",
        # Conventional fault simulation (serial and kernel batches).
        "fsim.conventional.detected",
        "fsim.conventional.faults",
        "fsim.parallel.batches",
        "fsim.parallel.faults",
        # Compiled circuit IR (repro.sim.ir / repro.sim.kernel).
        "kernel.compile",
        # Good-machine cache.
        "goodcache.compute",
        # Job server (repro.service).
        "service.jobs.cancelled",
        "service.jobs.completed",
        "service.jobs.failed",
        "service.jobs.resumed",
        "service.jobs.submitted",
        "service.queue.wait_s",
        # Backward implications.
        "mot.backward.conflict",
        "mot.backward.detection",
        "mot.backward.no_info",
        "mot.implication.runs",
        # State expansion.
        "mot.expansion.branches",
        "mot.expansion.ceiling",
        "mot.expansion.phase1_conflict",
        "mot.expansion.phase1_restrictions",
        "mot.expansion.runs",
        "mot.expansion.sequences",
        "mot.fallback.runs",
    }
)

#: Families with a dynamic suffix (f-string call sites): the recorded
#: name is ``<prefix><suffix>`` where the suffix enumerates a small
#: closed set at runtime (verdict statuses, resimulation outcomes,
#: backward-probe outcomes, detection mechanisms).
METRIC_PREFIXES = (
    "campaign.how.",
    "campaign.verdict.",
    "mot.backward.",
    "mot.resim.",
)


def is_declared(name: str) -> bool:
    """True when *name* is a declared metric name or prefixed family."""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(prefix) for prefix in METRIC_PREFIXES)

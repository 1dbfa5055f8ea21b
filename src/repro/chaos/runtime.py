"""The ambient chaos plan and the hook helpers runner seams call.

Exactly one :class:`~repro.chaos.plan.ChaosPlan` is consulted per
process.  Resolution order:

1. an explicitly installed plan (:func:`install_plan`) -- the chaos
   campaign driver installs the parent's plan this way;
2. the ``REPRO_CHAOS_SCENARIO`` environment variable -- inline JSON
   (starts with ``{``) or a scenario file path.  This is how a plan
   propagates to worker processes: the driver exports the scenario,
   every worker (a ``repro worker`` process, or a forked one after
   :func:`forget_plan`) compiles its own plan from it with the same
   seed, and per-process event counters keep each process's schedule
   deterministic.

When neither is set, every hook is a cheap no-op: campaigns pay one
``os.environ`` lookup per fault.

The hook helpers (``chaos_fault``, ``chaos_worker_ready``, ...) own the
*behavior* of each action -- sleeping, hard-exiting with the chaos exit
code -- so the runner seams stay one-liners.  Actions a seam must
perform itself mid-protocol (``kill_after`` ready, ``kill_mid_write`` a
verdict, journal write faults) are returned as flags instead.

Delay stacking rule: when several ``delay`` specs match one event, the
**first matching spec wins**, so a specific-index delay listed before a
catch-all one overrides it for that index.
"""

from __future__ import annotations

import os
import time
from typing import Any, List, Optional

from repro.chaos.plan import ChaosPlan, Injection
from repro.chaos.scenario import ChaosScenario
from repro.errors import ChaosError

__all__ = [
    "SCENARIO_ENV",
    "CHAOS_EXIT_CODE",
    "install_plan",
    "uninstall_plan",
    "forget_plan",
    "current_plan",
    "chaos_now",
    "chaos_clock_tick",
    "chaos_fault",
    "chaos_worker_ready",
    "chaos_chunk",
    "chaos_chunk_done",
    "chaos_journal_write",
    "chaos_journal_read",
    "wrap_handle",
]

#: Scenario propagation to worker processes: inline JSON or a path.
SCENARIO_ENV = "REPRO_CHAOS_SCENARIO"

#: Mimics the exit code the kernel OOM killer produces (128 + SIGKILL).
CHAOS_EXIT_CODE = 137

_installed: Optional[ChaosPlan] = None
# (env value) -> compiled plan or None, so per-fault hook calls cost
# one environment lookup, not a recompile.
_env_cache: Optional[str] = None
_env_plan: Optional[ChaosPlan] = None


def install_plan(plan: Optional[ChaosPlan]) -> Optional[ChaosPlan]:
    """Install *plan* as this process's ambient plan; returns the
    previously installed one so callers can restore it."""
    global _installed
    previous = _installed
    _installed = plan
    return previous


def uninstall_plan() -> None:
    """Remove the installed plan (environment fallback still applies)."""
    install_plan(None)


def forget_plan() -> None:
    """Drop the installed plan and the cached environment plan, so the
    next hook compiles a fresh plan from the environment.

    A forked worker calls this first: the plan it inherited carries the
    parent's event counters, and a worker must count its own events
    from zero, exactly like a freshly started ``repro worker``.
    """
    global _installed, _env_cache, _env_plan
    _installed = None
    _env_cache = None
    _env_plan = None


def current_plan() -> Optional[ChaosPlan]:
    """The ambient plan, or ``None`` when no chaos is armed."""
    if _installed is not None:
        return _installed
    return _plan_from_env()


def _plan_from_env() -> Optional[ChaosPlan]:
    global _env_cache, _env_plan
    value = os.environ.get(SCENARIO_ENV)
    if value == _env_cache:
        return _env_plan
    plan: Optional[ChaosPlan] = None
    if value:
        try:
            scenario = _load_scenario_value(value)
        except ChaosError:
            scenario = None  # a malformed scenario disarms, never raises
        if scenario is not None and scenario.faults:
            plan = ChaosPlan(scenario)
    _env_cache = value
    _env_plan = plan
    return plan


def _load_scenario_value(value: str) -> ChaosScenario:
    value = value.strip()
    if value.startswith("{"):
        return ChaosScenario.from_json(value)
    return ChaosScenario.from_file(value)


# ----------------------------------------------------------------------
# Hook helpers (the runner seams)
# ----------------------------------------------------------------------
def chaos_now() -> float:
    """Monotonic seconds, skewed by any fired ``dispatch.clock`` event.

    The dispatcher's replacement for ``time.monotonic()``: identical
    when no chaos is armed.
    """
    plan = current_plan()
    if plan is None:
        return time.monotonic()
    return plan.clock.now()


def chaos_clock_tick(host: str = "") -> None:
    """Count one dispatcher message event for ``dispatch.clock`` specs."""
    plan = current_plan()
    if plan is not None and "dispatch.clock" in plan.active_sites:
        plan.decide("dispatch.clock", host=host)


def _first_delay(fired: List[Injection]) -> float:
    for injection in fired:
        if injection.action == "delay":
            return injection.value
    return 0.0


def chaos_fault(index: int, host: str = "") -> Optional[str]:
    """Per-fault seam (harness and worker loop).

    Sleeps for a fired ``delay``, hard-exits on ``kill``, and returns
    ``"kill_mid_write"`` when the caller must die midway through
    writing this fault's verdict (worker loop only; the local harness
    treats it as ``kill``).  Workers pass their host name so scenarios
    can target one host's fault stream; the local harness leaves it
    empty.
    """
    plan = current_plan()
    if plan is None or "worker.fault" not in plan.active_sites:
        return None
    fired = plan.decide("worker.fault", host=host, index=index)
    if not fired:
        return None
    ms = _first_delay(fired)
    if ms > 0:
        time.sleep(ms / 1000.0)
    flag = None
    for injection in fired:
        if injection.action == "kill":
            os._exit(CHAOS_EXIT_CODE)
        if injection.action == "kill_mid_write":
            flag = "kill_mid_write"
    return flag


def chaos_worker_ready(host: str) -> Optional[str]:
    """Worker handshake seam, called just before ``ready`` is sent.

    ``kill_before`` hard-exits here; ``hang`` sleeps ``value`` ms (the
    worker survives but blows the handshake deadline); ``kill_after``
    is returned as a flag so the worker dies right *after* the ready
    frame went out.
    """
    plan = current_plan()
    if plan is None or "worker.ready" not in plan.active_sites:
        return None
    fired = plan.decide("worker.ready", host=host)
    flag = None
    for injection in fired:
        if injection.action == "kill_before":
            os._exit(CHAOS_EXIT_CODE)
        if injection.action == "hang":
            time.sleep(max(0.0, injection.value) / 1000.0)
        if injection.action == "kill_after":
            flag = "kill_after"
    return flag


def chaos_chunk(host: str) -> None:
    """Worker chunk-receipt seam: straggler delays and pre-chunk kills."""
    plan = current_plan()
    if plan is None or "worker.chunk" not in plan.active_sites:
        return
    fired = plan.decide("worker.chunk", host=host)
    if not fired:
        return
    ms = _first_delay(fired)
    if ms > 0:
        time.sleep(ms / 1000.0)
    for injection in fired:
        if injection.action == "kill":
            os._exit(CHAOS_EXIT_CODE)


def chaos_chunk_done(host: str) -> None:
    """Worker chunk-completion seam: post-chunk kills."""
    plan = current_plan()
    if plan is None or "worker.chunk_done" not in plan.active_sites:
        return
    for injection in plan.decide("worker.chunk_done", host=host):
        if injection.action == "kill":
            os._exit(CHAOS_EXIT_CODE)


def chaos_journal_write(path: str) -> Optional[str]:
    """Journal flush seam: returns ``"eio"``, ``"enospc"`` or
    ``"torn"`` when the flush must fail that way, else ``None``.
    The journal owns the behavior (it must interleave with its own
    file handling)."""
    plan = current_plan()
    if plan is None or "journal.write" not in plan.active_sites:
        return None
    injection = plan.decide_one("journal.write", host=path)
    return injection.action if injection else None


def chaos_journal_read(path: str, lines: List[str]) -> List[str]:
    """Journal load seam: possibly bit-flip one record line.

    Flips one character of line ``value`` (1-based, clamped to the
    record lines; the middle record when 0) so the record CRC trips and
    the salvage path quarantines it.  The manifest line is never
    touched -- corrupting it makes the whole journal untrustworthy by
    design, which is a different failure than a flipped record.
    """
    plan = current_plan()
    if plan is None or "journal.read" not in plan.active_sites:
        return lines
    injection = plan.decide_one("journal.read", host=path)
    if injection is None or injection.action != "bit_flip" or len(lines) < 2:
        return lines
    target = int(injection.value) if injection.value > 0 else len(lines) // 2
    target = max(1, min(target, len(lines) - 1))
    line = lines[target]
    if not line:
        return lines
    mid = len(line) // 2
    flipped = chr(ord(line[mid]) ^ 0x1)
    mutated = list(lines)
    mutated[target] = line[:mid] + flipped + line[mid + 1:]
    return mutated


def wrap_handle(handle: Any) -> Any:
    """Wrap a live worker handle with the transport injector when the
    ambient plan scripts transport faults; otherwise return it as-is."""
    plan = current_plan()
    if plan is None or not (
        {"transport.send", "transport.recv"} & plan.active_sites
    ):
        return handle
    from repro.chaos.inject import ChaosWorkerHandle

    return ChaosWorkerHandle(handle, plan)

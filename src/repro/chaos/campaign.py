"""Drive a chaos scenario against a real distributed campaign.

The flow :func:`run_scenario` scripts:

1. build the workload the scenario names (a registered benchmark
   circuit, random patterns, the proposed MOT simulator);
2. run it **quietly** once -- a serial, chaos-free reference campaign
   whose CSV is the byte-identity target;
3. run it again under chaos: the compiled
   :class:`~repro.chaos.plan.ChaosPlan` is installed in the parent
   (dispatcher seams, transport injector, journal faults) and exported
   through ``REPRO_CHAOS_SCENARIO`` so every worker process compiles
   the same plan for its own seams;
4. write the parent-side injection log (byte-stable across replays of
   the same scenario + seed) and run
   :func:`~repro.chaos.invariants.check_invariants` over the result.

:func:`soak` sweeps the same scenario across seeds.
:func:`shrink_scenario` reduces a failing scenario to a minimal
injection schedule by greedy spec removal -- each candidate is re-run
in a fresh working directory, so the shrunk scenario is a
*reproducer*, not a guess.

Scenario ``workload`` keys (all optional; defaults keep a run under a
few seconds): ``circuit``, ``length``, ``pattern_seed``, ``n_states``,
``hosts``, ``chunk_size``, ``lease_timeout``, ``start_timeout``,
``host_blacklist_after``, ``checkpoint_every``.  One-shot specs should
use ``once`` *without* an explicit ``marker``: the driver assigns a
fresh marker file inside each run's working directory, keeping soak
and shrink runs independent.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.invariants import (
    InvariantCheck,
    InvariantReport,
    check_invariants,
)
from repro.chaos.plan import ChaosPlan
from repro.chaos.runtime import SCENARIO_ENV, install_plan
from repro.chaos.scenario import ChaosScenario
from repro.errors import ReproError

__all__ = [
    "DEFAULT_WORKLOAD",
    "ChaosRunResult",
    "run_scenario",
    "shrink_scenario",
    "soak",
]

log = logging.getLogger("repro.chaos.campaign")

#: Workload defaults: small enough for CI, real enough to exercise the
#: full dispatch/journal/transport stack.
DEFAULT_WORKLOAD: Dict[str, Any] = {
    "circuit": "s27",
    "length": 24,
    "pattern_seed": 1,
    "n_states": 2,
    "hosts": ["alpha", "beta"],
    "chunk_size": 4,
    "lease_timeout": 5.0,
    "start_timeout": 15.0,
    "host_blacklist_after": 3,
    "checkpoint_every": 5,
}



@dataclass
class ChaosRunResult:
    """Everything one scenario run produced."""

    scenario: ChaosScenario
    workdir: str
    report: InvariantReport
    campaign: Any = None
    reference: Any = None
    stats: Any = None
    journal_path: Optional[str] = None
    injection_log_path: Optional[str] = None
    injections: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.report.ok

    def render(self) -> str:
        lines = [
            f"scenario {self.scenario.name!r} seed {self.scenario.seed}: "
            f"{self.injections} injection(s)"
        ]
        if self.error is not None:
            lines.append(f"  run failed: {self.error}")
        lines.append(self.report.render().rstrip("\n"))
        return "\n".join(lines) + "\n"


def _build_workload(scenario: ChaosScenario):
    from repro.circuits.registry import build_circuit
    from repro.faults.collapse import collapse_faults
    from repro.mot.simulator import MotConfig, ProposedSimulator
    from repro.patterns.random_gen import random_patterns
    from repro.sim.goodcache import GoodMachineCache

    workload = dict(DEFAULT_WORKLOAD)
    workload.update(scenario.workload)
    circuit = build_circuit(workload["circuit"])
    faults = collapse_faults(circuit)
    patterns = random_patterns(
        circuit.num_inputs, int(workload["length"]),
        int(workload["pattern_seed"]),
    )
    good_cache = GoodMachineCache.compute(circuit, patterns)
    simulator = ProposedSimulator(
        circuit,
        patterns,
        MotConfig(n_states=int(workload["n_states"])),
        good_cache=good_cache,
    )
    return workload, circuit, faults, simulator



def _failed_run_report(detail: str) -> InvariantReport:
    report = InvariantReport()
    report.checks.append(InvariantCheck("run-completed", False, detail))
    return report


def run_scenario(
    scenario: ChaosScenario,
    workdir: str,
    *,
    reference: bool = True,
) -> ChaosRunResult:
    """Run *scenario* end to end and check every invariant.

    Never raises for scenario-induced failures: a campaign the chaos
    plan managed to sink (all hosts blacklisted, interrupt) comes back
    as a failing ``run-completed`` check so soak sweeps and shrinking
    can treat "crashed" and "violated an invariant" uniformly.
    """
    from repro.obs.metrics import RecordingMetrics, set_metrics
    from repro.runner.dispatch import DispatchConfig, DistributedCampaignRunner
    from repro.runner.harness import CampaignHarness, HarnessConfig
    from repro.runner.transport import make_transport

    os.makedirs(workdir, exist_ok=True)
    scenario = scenario.with_markers(workdir)
    workload, circuit, faults, simulator = _build_workload(scenario)
    journal_path = os.path.join(workdir, "journal.jsonl")
    log_path = os.path.join(workdir, "injections.log")
    plan = ChaosPlan(scenario)

    # Ambient chaos must not leak into the reference campaign; the
    # scenario under test is installed explicitly.
    ambient = os.environ.pop(SCENARIO_ENV, None)
    reference_campaign = None
    campaign = None
    stats = None
    snapshot = None
    error: Optional[str] = None
    try:
        if reference:
            log.info("reference run: %s, %d faults (serial, no chaos)",
                     circuit.name, len(faults))
            reference_campaign = CampaignHarness(
                simulator, HarnessConfig()
            ).run(faults)

        log.info("chaos run: scenario %r seed %d over hosts %s",
                 scenario.name, scenario.seed, workload["hosts"])
        metrics = RecordingMetrics()
        previous_metrics = set_metrics(metrics)
        os.environ[SCENARIO_ENV] = scenario.to_json()
        previous_plan = install_plan(plan)
        try:
            runner = DistributedCampaignRunner(
                simulator,
                list(workload["hosts"]),
                make_transport("local"),
                DispatchConfig(
                    chunk_size=int(workload["chunk_size"]),
                    lease_timeout=float(workload["lease_timeout"]),
                    start_timeout=float(workload["start_timeout"]),
                    host_blacklist_after=int(
                        workload["host_blacklist_after"]
                    ),
                    checkpoint_path=journal_path,
                    checkpoint_every=int(workload["checkpoint_every"]),
                ),
            )
            campaign = runner.run(faults)
            stats = runner.stats
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            install_plan(previous_plan)
            os.environ.pop(SCENARIO_ENV, None)
            snapshot = metrics.snapshot()
            set_metrics(previous_metrics)
    finally:
        if ambient is not None:
            os.environ[SCENARIO_ENV] = ambient

    plan.write_log(log_path)
    if campaign is None:
        report = _failed_run_report(error or "campaign produced no result")
    else:
        report = check_invariants(
            campaign,
            faults,
            reference=reference_campaign,
            circuit=circuit,
            journal_path=journal_path,
            metrics=snapshot,
        )
    return ChaosRunResult(
        scenario=scenario,
        workdir=workdir,
        report=report,
        campaign=campaign,
        reference=reference_campaign,
        stats=stats,
        journal_path=journal_path,
        injection_log_path=log_path,
        injections=plan.injections,
        error=error,
    )


def soak(
    scenario: ChaosScenario,
    seeds: Sequence[int],
    workdir: str,
) -> List[Tuple[int, ChaosRunResult]]:
    """Run *scenario* once per seed, each in its own subdirectory."""
    results: List[Tuple[int, ChaosRunResult]] = []
    for seed in seeds:
        run_dir = os.path.join(workdir, f"seed-{seed}")
        result = run_scenario(scenario.with_seed(seed), run_dir)
        log.info("soak seed %d: %s (%d injections)", seed,
                 "ok" if result.ok else "FAILED", result.injections)
        results.append((seed, result))
    return results


def shrink_scenario(
    scenario: ChaosScenario,
    workdir: str,
    *,
    max_runs: int = 16,
) -> Tuple[ChaosScenario, int]:
    """Reduce a failing scenario to a minimal failing injection list.

    Greedy one-spec-at-a-time removal: drop each spec in turn, re-run,
    and keep the removal whenever the smaller scenario still fails.
    Each candidate runs in a fresh subdirectory (fresh journal, fresh
    markers), bounded by *max_runs* total re-runs.  Returns the
    smallest failing scenario found and the number of runs spent; a
    scenario that no longer fails at all is returned unchanged.
    """
    specs = list(scenario.faults)
    runs = 0

    def still_fails(candidate_specs) -> bool:
        nonlocal runs
        runs += 1
        run_dir = os.path.join(workdir, f"shrink-{runs:02d}")
        result = run_scenario(scenario.with_faults(candidate_specs), run_dir)
        return not result.ok

    shrunk = True
    while shrunk and len(specs) > 1 and runs < max_runs:
        shrunk = False
        for i in range(len(specs)):
            if runs >= max_runs:
                break
            candidate = specs[:i] + specs[i + 1:]
            if still_fails(candidate):
                log.info("shrink: dropped spec %d/%d, still failing",
                         i + 1, len(specs))
                specs = candidate
                shrunk = True
                break
    return scenario.with_faults(specs), runs

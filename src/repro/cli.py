"""Command-line interface: ``python -m repro`` / ``repro-motsim``.

Subcommands:

* ``stats``   -- structural statistics of registered or external circuits
* ``fsim``    -- conventional fault simulation
* ``mot``     -- MOT fault simulation (proposed or [4] baseline)
* ``table2``  -- regenerate the paper's Table 2
* ``table3``  -- regenerate the paper's Table 3
* ``hitec``   -- the deterministic-sequence experiment
* ``figures`` -- the worked examples (Figures 1-4, Table 1 analogue)
* ``witness`` -- build and exhaustively verify a detection certificate
* ``scan``    -- compare coverage against the full-scan DFT upper bound
* ``lint``    -- static netlist checks (loops, floating nets, fanout
  consistency, constant cones, unreachable/unobservable logic) over
  ``.bench``/``.isc`` files or registered circuits
* ``worker``  -- campaign worker for ``--transport command`` hosts
  (speaks newline-JSON on stdin/stdout, not for interactive use)
* ``chaos``   -- deterministic fault-injection campaigns
  (:mod:`repro.chaos`): ``chaos run`` executes a scripted failure
  scenario (dropped/duplicated/reordered frames, worker kills, torn
  journal writes, clock skew) against a real distributed campaign and
  gates on the end-to-end invariants (no verdict lost or duplicated,
  journal replay idempotent, metrics consistent, CSV byte-identical to
  a fault-free serial run), optionally shrinking a failing scenario to
  a minimal reproducer; ``chaos soak`` sweeps the scenario across
  seeds

External circuits are given as ``.bench`` files with ``--bench``;
registered circuits by name with ``--circuit`` (see ``stats`` for the
list).

Campaign resilience (``mot`` subcommand): ``--budget-ms`` /
``--budget-events`` bound the work spent on any one fault,
``--checkpoint FILE`` journals verdicts so ``--resume`` continues an
interrupted run, and ``--fail-fast`` turns off crash quarantine in
serial runs (under workers a raising fault always ends as a
quarantined ``errored`` verdict).

Worker processes (``mot`` subcommand): ``--workers N`` forks N local
workers, ``--hosts A,B,...`` names the hosts to run on instead; both go
through the lease dispatcher (:mod:`repro.runner.dispatch`) -- workers
pull small chunk leases (hardest faults first), a silent lease expires
and its faults are reassigned, idle workers steal from stragglers, and
duplicated executions are deduplicated through the journal, so verdicts
stay bit-identical to a serial run and a journal resumes with any
worker count.  Forked workers share the parent's good-machine
simulation.  ``--transport command --command-template 'ssh {host}
repro worker --host {host}'`` launches host workers through any command
(SSH, container exec) instead of forking.

Self-healing: a dead worker is relaunched and its leases reassigned; a
fault in flight when a worker dies is re-run alone, on another host
when one can take it, and a fault that kills a second worker that way
is isolated as an ``errored``/``poison`` verdict; ``--stall-timeout``
kills a worker silent that long on a chunk, even after its lease
expired (the same suspect rule applies); a host that keeps failing is
blacklisted (``--host-blacklist-after``), and when every worker is
blacklisted the residue is finished serially unless ``--no-degrade``
is given.  Decisions land in the ``<checkpoint>.events`` sidecar.

Observability (``mot`` subcommand): ``--metrics-out FILE`` enables the
metrics registry (:mod:`repro.obs`) for the campaign and writes the
merged snapshot -- per-phase timers, expansion/backward counters,
per-fault verdict counts, aggregated across every worker -- as JSON;
``repro stats FILE.json`` renders it as a profile report.
``--trace-out FILE`` streams structured JSONL events of the MOT hot
path (expansion branches, backward-implication outcomes, resimulation,
good-cache hits), sampled per fault with ``--trace-sample P``; each
local worker writes ``FILE.<worker>`` (``FILE.worker0``, ...).  Both
default off, and when off the hot paths run through no-op stubs --
campaign results are identical either way.

Diagnostics go through the ``repro`` stdlib logger (stderr): progress
at INFO, ``--verbose`` adds DEBUG detail, ``--quiet`` keeps warnings
and errors only.  Campaign results and reports stay on stdout.

Exit codes: 0 success; 1 usage or input error (taxonomy:
:class:`repro.errors.ReproError`), including every worker lost under
``--no-degrade`` (journaled verdicts are flushed first, so ``--resume``
completes the run); 2 argparse errors; 3 campaign completed but quarantined at least one
errored fault (including poison faults); 130 interrupted (SIGINT) with
the checkpoint journal flushed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.service.client import ServiceClient

from repro.circuit.bench import load_bench
from repro.errors import CampaignInterrupted, DistributedFailed, ReproError
from repro.circuit.netlist import Circuit
from repro.circuit.stats import circuit_stats
from repro.circuits.registry import benchmark_entries, build_circuit
from repro.experiments.figures import render_all_figures
from repro.experiments.hitec import render_hitec, run_hitec_experiment
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.table3 import render_table3, run_table3
from repro.obs import (
    JsonlTracer,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_tracer,
)
from repro.patterns.random_gen import random_patterns
from repro.reporting.tables import Table
from repro.runner.campaign import (
    IMPLICATION_MODES,
    CampaignSpec,
    SpecError,
    run_campaign,
)

#: Exit codes (see module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_ERRORED_FAULTS = 3
EXIT_INTERRUPTED = 130

#: All CLI diagnostics route through this logger (to stderr); results
#: and reports stay on stdout so pipelines and the CI greps see them.
log = logging.getLogger("repro.cli")


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """(Re)bind the ``repro`` logger to the current ``sys.stderr``.

    Called once per :func:`main` invocation: a fresh handler is
    installed each time so in-process callers (tests with captured
    streams, long-lived drivers) always log to the *current* stderr,
    and repeated invocations never stack handlers.
    """
    if quiet:
        level = logging.WARNING
    elif verbose:
        level = logging.DEBUG
    else:
        level = logging.INFO
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}"
        )
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability within [0, 1], got {text!r}"
        )
    return value


def _resolve_circuit(args: argparse.Namespace) -> Circuit:
    if getattr(args, "bench", None):
        return load_bench(args.bench)
    return build_circuit(args.circuit)


def _add_circuit_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--circuit", help="registered benchmark circuit name (e.g. s27)"
    )
    group.add_argument("--bench", help="path to an external .bench file")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--length", type=int, default=48, help="test sequence length"
    )
    parser.add_argument("--seed", type=int, default=0, help="pattern seed")
    parser.add_argument(
        "--uncollapsed",
        action="store_true",
        help="simulate the full fault universe instead of the collapsed list",
    )


def cmd_stats(args: argparse.Namespace) -> int:
    """Circuit statistics -- or, for ``.json`` arguments, render the
    campaign metrics snapshot written by ``mot --metrics-out``
    (``-`` reads a snapshot from stdin)."""

    def _is_metrics(name: str) -> bool:
        return name == "-" or name.endswith(".json")

    names = list(args.names or [])
    metrics_files = [name for name in names if _is_metrics(name)]
    circuit_names = [name for name in names if not _is_metrics(name)]
    status = 0
    for path in metrics_files:
        from repro.reporting.metrics import load_snapshot, render_metrics_report

        try:
            snapshot = load_snapshot(path)
        except (OSError, ValueError, TypeError) as exc:
            log.error("cannot read metrics file %s: %s", path, exc)
            status = 1
            continue
        print(render_metrics_report(snapshot), end="")
    if metrics_files and not circuit_names:
        return status
    circuit_names = circuit_names or [e.name for e in benchmark_entries()]
    table = Table(
        ["circuit", "PI", "PO", "FF", "gates", "depth", "max fanout"],
        title="Circuit statistics",
    )
    for name in circuit_names:
        try:
            table.add_row(circuit_stats(build_circuit(name)).as_row())
        except KeyError as exc:
            log.error("error: %s", exc.args[0])
            status = 1
    print(table.render(), end="")
    return status


def cmd_fsim(args: argparse.Namespace) -> int:
    result = run_campaign(
        CampaignSpec(
            circuit=args.circuit,
            bench_path=args.bench,
            length=args.length,
            seed=args.seed,
            uncollapsed=args.uncollapsed,
            kind="fsim",
        )
    )
    campaign, circuit = result.campaign, result.circuit
    print(
        f"{circuit.name}: {campaign.detected} of {campaign.total} faults "
        f"detected conventionally ({args.length} random patterns, seed "
        f"{args.seed})"
    )
    if args.list_undetected:
        for fault in campaign.undetected_faults():
            print(f"  undetected: {fault.describe(circuit)}")
    return 0


def _mot_spec(args: argparse.Namespace) -> CampaignSpec:
    """The :class:`CampaignSpec` equivalent of a parsed ``mot`` line."""
    if args.unrestricted:
        kind = "unrestricted"
    elif args.baseline:
        kind = "baseline"
    else:
        kind = "mot"
    return CampaignSpec(
        circuit=args.circuit,
        bench_path=args.bench,
        length=args.length,
        seed=args.seed,
        uncollapsed=args.uncollapsed,
        collapse=args.collapse,
        kind=kind,
        n_states=args.n_states,
        n_references=args.n_references,
        implication_mode=args.implication_mode,
        backward_depth=args.depth,
        workers=args.workers,
        hosts=tuple(
            h for h in (args.hosts or "").split(",") if h.strip()
        ),
        transport=args.transport,
        command_template=args.command_template,
        chunk_size=args.chunk_size,
        lease_timeout=args.lease_timeout,
        host_blacklist_after=args.host_blacklist_after,
        budget_ms=args.budget_ms,
        budget_events=args.budget_events,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        fail_fast=args.fail_fast,
        stall_timeout=args.stall_timeout,
        no_degrade=args.no_degrade,
    )


def cmd_mot(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        log.error("error: --resume requires --checkpoint")
        return EXIT_FAILURE
    # Observability is installed before the good-machine cache is built
    # (so its counters are covered too) and torn down afterwards even on
    # failure: an interrupted campaign still leaves a metrics file and a
    # complete-line trace behind.
    tracer = None
    if args.metrics_out:
        enable_metrics()
        log.debug("metrics registry enabled (-> %s)", args.metrics_out)
    if args.trace_out:
        tracer = JsonlTracer(
            args.trace_out, sample=args.trace_sample, seed=args.seed
        )
        set_tracer(tracer)
        log.debug(
            "tracing to %s (sample %.3g)", args.trace_out, args.trace_sample
        )
    try:
        return _run_mot(args)
    finally:
        if tracer is not None:
            tracer.close()
            set_tracer(None)
        if args.metrics_out:
            snapshot = get_metrics().snapshot()
            disable_metrics()
            with open(args.metrics_out, "w") as handle:
                json.dump(snapshot.to_payload(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            log.info("campaign metrics written to %s", args.metrics_out)


def _run_mot(args: argparse.Namespace) -> int:
    result = run_campaign(_mot_spec(args))
    campaign, circuit = result.campaign, result.circuit
    print(
        f"{circuit.name} ({result.label}): conventional "
        f"{campaign.conv_detected}, MOT extra {campaign.mot_detected}, "
        f"total {campaign.total_detected} of {campaign.total}"
    )
    if result.stats.reused:
        log.info(
            "resumed from %s: %d verdicts reused, %d simulated",
            args.checkpoint, result.stats.reused, result.stats.simulated,
        )
    if result.supervised:
        from repro.reporting.campaign import render_supervision_report

        print(render_supervision_report(result.stats), end="")
    if campaign.aborted_budget:
        print(f"  aborted (budget): {campaign.aborted_budget}")
    if campaign.errored:
        log.warning(
            "errored (quarantined): %d -- see the report/CSV detail column",
            campaign.errored,
        )
    if not args.baseline and not args.unrestricted:
        averages = campaign.average_counters()
        print(
            f"  counters over MOT-detected faults: detect "
            f"{averages['detect']:.2f}, conf {averages['conf']:.2f}, "
            f"extra {averages['extra']:.2f}"
        )
    if args.list_mot:
        for verdict in campaign.mot_verdicts():
            print(
                f"  mot-detected: {verdict.fault.describe(circuit)} "
                f"(via {verdict.how})"
            )
    if args.report:
        from repro.reporting.campaign import render_campaign_report

        print()
        print(render_campaign_report(campaign, circuit), end="")
    if args.csv:
        from repro.reporting.campaign import campaign_csv

        with open(args.csv, "w") as handle:
            handle.write(campaign_csv(campaign, circuit))
        log.info("per-fault verdicts written to %s", args.csv)
    return EXIT_ERRORED_FAULTS if campaign.errored else EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    rows = run_table2(
        circuits=args.names or None,
        n_states=args.n_states,
        fault_cap=args.fault_cap,
    )
    print(render_table2(rows), end="")
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    rows = run_table3(
        circuits=args.names or None,
        n_states=args.n_states,
        fault_cap=args.fault_cap,
    )
    print(render_table3(rows), end="")
    return 0


def cmd_hitec(args: argparse.Namespace) -> int:
    result = run_hitec_experiment(
        circuit_name=args.circuit,
        max_length=args.length,
        fault_cap=args.fault_cap,
        seed=args.seed,
        method=args.method,
    )
    print(render_hitec(result), end="")
    return 0


def cmd_figures(_args: argparse.Namespace) -> int:
    print(render_all_figures(), end="")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from repro.experiments.scan import render_scan, run_scan_experiment

    rows = run_scan_experiment(
        circuits=args.names or None, fault_cap=args.fault_cap
    )
    print(render_scan(rows), end="")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    from repro.faults.model import Fault
    from repro.mot.witness import build_witness, check_witness
    from repro.verify.states import MAX_FREE_FLOPS

    from repro.circuit.netlist import CircuitError

    circuit = _resolve_circuit(args)
    try:
        line_name, value = args.fault.rsplit("/", 1)
        fault = Fault(circuit.line_id(line_name), int(value), None)
    except (ValueError, KeyError, CircuitError) as exc:
        log.error("error: cannot parse fault %r: %s", args.fault, exc)
        return 1
    patterns = random_patterns(circuit.num_inputs, args.length, args.seed)
    witness = build_witness(circuit, fault, patterns)
    if witness is None:
        print(f"{fault.describe(circuit)}: not detected by the proposed "
              "procedure; no certificate exists")
        return 1
    print(witness.describe(circuit))
    if circuit.num_flops <= MAX_FREE_FLOPS:
        verified = check_witness(circuit, fault, patterns, witness)
        print(f"verified by exhaustive replay: {verified}")
        return 0 if verified else 1
    print("(circuit too large for exhaustive verification)")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Serve fault chunks over the distributed worker protocol.

    Not meant for interactive use: a dispatcher
    (:mod:`repro.runner.dispatch`) launches this subcommand through a
    :class:`~repro.runner.transport.Transport` and speaks newline-JSON
    over stdin/stdout.  Everything interesting lives in
    :func:`repro.runner.transport.worker_main`.
    """
    from repro.runner.transport import worker_main

    return worker_main(args.host)


def _chaos_scenario(args: argparse.Namespace):
    from repro.chaos import ChaosScenario

    scenario = ChaosScenario.from_file(args.scenario)
    if getattr(args, "seed", None) is not None:
        scenario = scenario.with_seed(args.seed)
    return scenario


def _chaos_workdir(args: argparse.Namespace) -> str:
    if args.workdir:
        return args.workdir
    import tempfile

    return tempfile.mkdtemp(prefix="repro-chaos-")


def cmd_chaos_run(args: argparse.Namespace) -> int:
    """Run one chaos scenario and gate on the invariant checker.

    Exit 0 when the campaign survived every injection with all
    invariants intact; 1 on any violation (with ``--shrink-on-fail``,
    after writing a minimal failing scenario next to the run's
    artifacts).
    """
    import shutil

    from repro.chaos import run_scenario, shrink_scenario

    scenario = _chaos_scenario(args)
    workdir = _chaos_workdir(args)
    result = run_scenario(
        scenario, workdir, reference=not args.no_reference
    )
    print(result.render(), end="")
    log.info("chaos artifacts in %s (journal, injection log)", workdir)
    if args.inject_log and result.injection_log_path:
        shutil.copyfile(result.injection_log_path, args.inject_log)
        log.info("injection log copied to %s", args.inject_log)
    if result.ok:
        return EXIT_OK
    if args.shrink_on_fail:
        shrunk, runs = shrink_scenario(
            scenario, os.path.join(workdir, "shrink")
        )
        out = os.path.join(workdir, "shrunk-scenario.json")
        with open(out, "w") as handle:
            handle.write(shrunk.to_json() + "\n")
        print(
            f"shrunk to {len(shrunk.faults)} injection spec(s) "
            f"in {runs} run(s): {out}"
        )
    return EXIT_FAILURE


def cmd_chaos_soak(args: argparse.Namespace) -> int:
    """Sweep one scenario across seeds; exit 1 if any seed fails."""
    from repro.chaos import soak

    scenario = _chaos_scenario(args)
    workdir = _chaos_workdir(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        log.error("error: --seeds takes comma-separated integers, got %r",
                  args.seeds)
        return EXIT_FAILURE
    if not seeds:
        log.error("error: --seeds is empty")
        return EXIT_FAILURE
    results = soak(scenario, seeds, workdir)
    failed = [seed for seed, result in results if not result.ok]
    for seed, result in results:
        status = "ok" if result.ok else "FAILED"
        print(f"seed {seed}: {status} ({result.injections} injections)")
        if not result.ok:
            print(result.render(), end="")
    print(
        f"soak: {len(results) - len(failed)}/{len(results)} seeds ok"
        + (f"; failing seeds: {failed}" if failed else "")
    )
    log.info("soak artifacts in %s", workdir)
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_lint(args: argparse.Namespace) -> int:
    """Static netlist checks over files and/or registered circuits.

    Exit code 0 when nothing severe was found, 1 when any error-severity
    finding (or, with ``--strict``, any finding at all) was reported.
    """
    from repro.analysis import lint_circuit, lint_path, sort_findings

    rules = args.rules.split(",") if args.rules else None
    findings = []
    status = EXIT_OK
    for target in args.targets:
        try:
            if target.endswith((".bench", ".isc")):
                findings.extend(lint_path(target, rules=rules))
            else:
                findings.extend(
                    lint_circuit(build_circuit(target), rules=rules)
                )
        except (OSError, KeyError, ValueError, ReproError) as exc:
            # str(OSError) keeps the strerror; args[0] would be the errno.
            if isinstance(exc, OSError):
                message = str(exc)
            else:
                message = exc.args[0] if exc.args else str(exc)
            log.error("error: cannot lint %s: %s", target, message)
            status = EXIT_FAILURE
    findings = sort_findings(findings)
    if args.format == "json":
        print(json.dumps([f.to_payload() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        errors = sum(1 for f in findings if f.severity == "error")
        warnings = len(findings) - errors
        print(
            f"{len(findings)} finding(s): {errors} error(s), "
            f"{warnings} warning(s)"
        )
    severe = any(f.severity == "error" for f in findings)
    if severe or (args.strict and findings):
        return EXIT_FAILURE
    return status


def cmd_analyze(args: argparse.Namespace) -> int:
    """Pre-campaign static analysis of one circuit.

    Renders the fault-equivalence partition (classes, fanout-free
    regions, advisory dominance) and SCOAP-based detection-hardness
    scores -- the exact inputs a ``--collapse classes`` campaign and
    the distributed dispatcher's hardest-first lease ordering use.
    """
    from repro.analysis.collapse import fault_classes
    from repro.analysis.testability import order_by_hardness, score_faults
    from repro.reporting.analysis import (
        analysis_json,
        analysis_payload,
        render_analysis_report,
    )

    target = args.target
    try:
        if target.endswith(".bench"):
            circuit = load_bench(target)
        elif target.endswith(".isc"):
            from repro.circuit.isc import load_isc

            circuit = load_isc(target)
        else:
            circuit = build_circuit(target)
    except (OSError, KeyError, ValueError, ReproError) as exc:
        if isinstance(exc, OSError):
            message = str(exc)
        else:
            message = exc.args[0] if exc.args else str(exc)
        log.error("error: cannot analyze %s: %s", target, message)
        return EXIT_FAILURE

    partition = fault_classes(circuit)
    scores = score_faults(circuit, partition.representatives())
    order = order_by_hardness(scores)
    if args.format == "json":
        print(
            analysis_json(
                analysis_payload(
                    circuit, partition, scores, order,
                    top=args.top, list_classes=args.list_classes,
                )
            ),
            end="",
        )
    else:
        print(
            render_analysis_report(
                circuit, partition, scores, order,
                top=args.top, list_classes=args.list_classes,
            ),
            end="",
        )
    return EXIT_OK


def _service_url(args: argparse.Namespace) -> str:
    """The job server endpoint: explicit ``--url`` or discovered from
    the service root's ``service.json``."""
    if args.url:
        return args.url
    from repro.service.client import discover_url

    return discover_url(args.root)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign job server until interrupted.

    Ctrl-C is a *graceful* shutdown with crash semantics on purpose:
    running jobs are cancelled at the next fault boundary but stay
    ``running`` in the queue journal, so the next ``repro serve`` on
    the same root resumes them from their campaign journals.
    """
    from repro.service import ServiceConfig, serve

    service, server = serve(
        args.root,
        ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            tenant_quota=args.tenant_quota,
        ),
    )
    print(
        f"campaign service listening on {server.url} "
        f"(root {os.path.abspath(args.root)})"
    )
    sys.stdout.flush()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        log.info(
            "shutting down; interrupted jobs resume on the next serve"
        )
    finally:
        server.shutdown()
        service.shutdown(interrupt=True)
        server.server_close()
    return EXIT_OK


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign to a running job server."""
    from repro.service.client import ServiceClient

    if bool(args.circuit) == bool(args.bench):
        log.error("error: provide exactly one of <circuit> or --bench")
        return EXIT_FAILURE
    spec: Dict[str, Any] = {
        "kind": args.kind,
        "length": args.length,
        "seed": args.seed,
        "n_states": args.n_states,
        "n_references": args.n_references,
        "workers": args.workers,
    }
    if args.bench:
        with open(args.bench) as handle:
            spec["bench_text"] = handle.read()
    else:
        spec["circuit"] = args.circuit
    if args.budget_ms is not None:
        spec["budget_ms"] = args.budget_ms
    if args.budget_events is not None:
        spec["budget_events"] = args.budget_events
    client = ServiceClient(_service_url(args))
    job = client.submit(spec, tenant=args.tenant, priority=args.priority)
    print(f"submitted {job['job_id']} ({job['state']})")
    if not args.watch:
        return EXIT_OK
    return _watch_job(client, job["job_id"])


def _watch_job(client: "ServiceClient", job_id: str) -> int:
    """Stream a job's progress events to stdout until terminal."""
    state = "queued"
    for event in client.events(job_id):
        state = str(event.get("state", state))
        print(f"  {job_id}: {state}, {event.get('completed', 0)} done")
        sys.stdout.flush()
    if state == "done":
        return EXIT_OK
    return EXIT_INTERRUPTED if state == "cancelled" else EXIT_FAILURE


def cmd_jobs(args: argparse.Namespace) -> int:
    """List the server's jobs, or show/follow one."""
    from repro.service.client import ServiceClient

    client = ServiceClient(_service_url(args))
    if args.job_id and args.follow:
        return _watch_job(client, args.job_id)
    if args.job_id:
        job = client.job(args.job_id)
        for key in (
            "job_id", "state", "tenant", "priority", "completed",
            "error",
        ):
            if job.get(key) is not None:
                print(f"{key}: {job[key]}")
        result = job.get("result")
        if isinstance(result, dict):
            for key in sorted(result):
                print(f"result.{key}: {result[key]}")
        return EXIT_OK
    table = Table(
        ["job", "state", "campaign", "tenant", "prio", "completed"],
        title="Jobs",
    )
    for job in client.jobs():
        spec = job.get("spec") or {}
        workload = spec.get("circuit") or spec.get("bench_path") or "?"
        if "/" in str(workload):
            workload = str(workload).rsplit("/", 1)[-1]
        completed = job.get("completed")
        table.add_row({
            "job": str(job.get("job_id")),
            "state": str(job.get("state")),
            "campaign": f"{workload} [{spec.get('kind', 'mot')}]",
            "tenant": str(job.get("tenant")),
            "prio": str(job.get("priority")),
            "completed": "-" if completed is None else str(completed),
        })
    print(table.render(), end="")
    return EXIT_OK


def cmd_fetch(args: argparse.Namespace) -> int:
    """Download one job artifact (results.csv, metrics.json, ...)."""
    from repro.service.client import ServiceClient

    client = ServiceClient(_service_url(args))
    text = client.fetch(args.job_id, args.artifact)
    if args.output:
        # newline="" keeps the artifact byte-identical (the CSV writer
        # emits \r\n line endings).
        with open(args.output, "w", newline="") as handle:
            handle.write(text)
        log.info("%s written to %s", args.artifact, args.output)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_cancel(args: argparse.Namespace) -> int:
    """Cooperatively cancel a queued or running job."""
    from repro.service.client import ServiceClient

    client = ServiceClient(_service_url(args))
    outcome = client.cancel(args.job_id)
    print(f"{args.job_id}: {outcome['cancel']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-motsim",
        description=(
            "Multiple observation time fault simulation with backward "
            "implications (reproduction of Pomeranz & Reddy, DAC 1997)"
        ),
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="log DEBUG diagnostics to stderr",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="log only warnings and errors to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser(
        "stats",
        help="circuit statistics, or render a --metrics-out snapshot",
    )
    p_stats.add_argument(
        "names", nargs="*",
        help="circuit names (default all); arguments ending in .json "
             "are rendered as campaign metrics snapshots instead, and "
             "'-' renders a snapshot read from stdin",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_fsim = sub.add_parser("fsim", help="conventional fault simulation")
    _add_circuit_args(p_fsim)
    _add_workload_args(p_fsim)
    p_fsim.add_argument(
        "--list-undetected", action="store_true",
        help="print the undetected faults",
    )
    p_fsim.set_defaults(func=cmd_fsim)

    p_mot = sub.add_parser("mot", help="MOT fault simulation")
    _add_circuit_args(p_mot)
    _add_workload_args(p_mot)
    p_mot.add_argument(
        "--collapse", choices=("structural", "classes", "none"),
        default="structural",
        help="fault-universe handling: structural (simulate one "
             "representative per equivalence class, default), classes "
             "(also expand every representative's verdict to its whole "
             "class -- report/CSV cover the full universe with an "
             "expanded_from provenance column), or none (simulate "
             "every fault; same as --uncollapsed)",
    )
    p_mot.add_argument(
        "--baseline", action="store_true",
        help="run the [4] state-expansion baseline instead",
    )
    p_mot.add_argument(
        "--unrestricted", action="store_true",
        help="run the unrestricted MOT generalization (fault-free "
             "expansion; see repro.mot.unrestricted)",
    )
    p_mot.add_argument(
        "--n-references", type=int, default=8,
        help="fault-free reference limit for --unrestricted",
    )
    p_mot.add_argument("--n-states", type=int, default=64)
    p_mot.add_argument(
        "--implication-mode", choices=IMPLICATION_MODES,
        default="fixpoint",
    )
    p_mot.add_argument(
        "--depth", type=int, default=1,
        help="backward-implication depth in time units",
    )
    p_mot.add_argument(
        "--list-mot", action="store_true",
        help="print the faults detected beyond conventional simulation",
    )
    p_mot.add_argument(
        "--report", action="store_true",
        help="print a full campaign report (coverage, mechanisms)",
    )
    p_mot.add_argument(
        "--csv", metavar="FILE",
        help="write per-fault verdicts to FILE as CSV",
    )
    p_mot.add_argument(
        "--budget-ms", type=float, default=None, metavar="MS",
        help="per-fault wall-clock budget in milliseconds; over-budget "
             "faults become explicit aborted verdicts",
    )
    p_mot.add_argument(
        "--budget-events", type=int, default=None, metavar="N",
        help="per-fault work-event budget (simulations, implication "
             "pairs, expanded/resimulated sequences)",
    )
    p_mot.add_argument(
        "--checkpoint", metavar="FILE",
        help="journal verdicts to FILE (JSONL) for --resume",
    )
    p_mot.add_argument(
        "--checkpoint-every", type=_positive_int, default=25, metavar="N",
        help="flush the checkpoint journal every N verdicts",
    )
    p_mot.add_argument(
        "--resume", action="store_true",
        help="reuse verdicts from an existing --checkpoint journal "
             "(validated against circuit, config, patterns and faults)",
    )
    p_mot.add_argument(
        "--fail-fast", action="store_true",
        help="serial runs: re-raise the first per-fault exception "
             "instead of quarantining it as an errored verdict",
    )
    p_mot.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="run the campaign on N forked local worker processes via "
             "lease dispatch (verdicts are identical to a serial run)",
    )
    p_mot.add_argument(
        "--hosts", metavar="A,B,...",
        help="run the campaign over these (pseudo-)host names via "
             "lease dispatch instead of --workers; a lost host's "
             "leases are reassigned and verdicts stay identical to a "
             "serial run",
    )
    p_mot.add_argument(
        "--transport", choices=("local", "command"), default="local",
        help="how host workers are launched: forked locally (default) "
             "or by an arbitrary --command-template",
    )
    p_mot.add_argument(
        "--command-template", metavar="CMD",
        help="worker launch command with a {host} placeholder, e.g. "
             "'ssh {host} repro worker --host {host}' (required for "
             "--transport command)",
    )
    p_mot.add_argument(
        "--chunk-size", type=_positive_int, default=4, metavar="N",
        help="faults per lease chunk in worker runs",
    )
    p_mot.add_argument(
        "--lease-timeout", type=_positive_float, default=60.0,
        metavar="SECONDS",
        help="seconds a lease may go without progress before its "
             "faults are reassigned to another host",
    )
    p_mot.add_argument(
        "--host-blacklist-after", type=_positive_int, default=2,
        metavar="N",
        help="worker failures tolerated per host (or local worker) "
             "before it is blacklisted for the rest of the campaign",
    )
    p_mot.add_argument(
        "--stall-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="kill a worker silent for SECONDS on a chunk (even after "
             "its lease expired) and re-run its in-flight fault alone; "
             "must exceed the slowest legitimate per-fault simulation "
             "time",
    )
    p_mot.add_argument(
        "--no-degrade", action="store_true",
        help="fail with a --resume hint when every worker is lost "
             "instead of finishing the residue serially",
    )
    p_mot.add_argument(
        "--metrics-out", metavar="FILE",
        help="enable the metrics registry for this campaign and write "
             "the merged snapshot (all workers aggregated) to "
             "FILE as JSON; render it with 'stats FILE'",
    )
    p_mot.add_argument(
        "--trace-out", metavar="FILE",
        help="stream structured JSONL trace events of the MOT hot path "
             "to FILE (local workers write FILE.<worker>)",
    )
    p_mot.add_argument(
        "--trace-sample", type=_unit_float, default=1.0, metavar="P",
        help="probability that a fault is traced; the per-fault "
             "decision is a deterministic hash of (pattern seed, fault "
             "label), so reruns and worker counts trace the same faults",
    )
    p_mot.set_defaults(func=cmd_mot)

    for name, func, help_text in (
        ("table2", cmd_table2, "regenerate Table 2"),
        ("table3", cmd_table3, "regenerate Table 3"),
    ):
        p_table = sub.add_parser(name, help=help_text)
        p_table.add_argument("names", nargs="*", help="circuits (default all)")
        p_table.add_argument("--n-states", type=int, default=64)
        p_table.add_argument(
            "--fault-cap", type=int, default=None,
            help="additional cap on simulated faults per circuit",
        )
        p_table.set_defaults(func=func)

    p_hitec = sub.add_parser(
        "hitec", help="deterministic-sequence experiment"
    )
    p_hitec.add_argument("--circuit", default="s5378_like")
    p_hitec.add_argument("--length", type=int, default=40)
    p_hitec.add_argument("--fault-cap", type=int, default=300)
    p_hitec.add_argument("--seed", type=int, default=17)
    p_hitec.add_argument(
        "--method", choices=("greedy", "podem"), default="greedy",
        help="deterministic generator standing in for HITEC",
    )
    p_hitec.set_defaults(func=cmd_hitec)

    p_figures = sub.add_parser(
        "figures", help="the paper's worked examples (Figures 1-4)"
    )
    p_figures.set_defaults(func=cmd_figures)

    p_witness = sub.add_parser(
        "witness", help="build + verify a detection certificate"
    )
    _add_circuit_args(p_witness)
    _add_workload_args(p_witness)
    p_witness.add_argument(
        "--fault", required=True,
        help="fault name, e.g. G11/0 (stem faults only)",
    )
    p_witness.set_defaults(func=cmd_witness)

    p_scan = sub.add_parser(
        "scan", help="full-scan DFT vs MOT coverage comparison"
    )
    p_scan.add_argument("names", nargs="*", help="circuits (default subset)")
    p_scan.add_argument("--fault-cap", type=int, default=150)
    p_scan.set_defaults(func=cmd_scan)

    p_worker = sub.add_parser(
        "worker",
        help="serve fault chunks over the distributed worker protocol "
             "(launched by a transport; speaks JSON on stdin/stdout)",
    )
    p_worker.add_argument(
        "--host", default="local",
        help="(pseudo-)host name this worker identifies as",
    )
    p_worker.set_defaults(func=cmd_worker)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection campaigns: run a scripted "
             "failure scenario against a distributed campaign and check "
             "the end-to-end invariants",
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)
    p_chaos_run = chaos_sub.add_parser(
        "run", help="run one scenario and gate on the invariant checker"
    )
    p_chaos_run.add_argument(
        "scenario", help="path to a chaos scenario JSON file"
    )
    p_chaos_run.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed (same seed, same schedule)",
    )
    p_chaos_run.add_argument(
        "--workdir",
        help="working directory for the journal, markers and injection "
             "log (default: a fresh temporary directory)",
    )
    p_chaos_run.add_argument(
        "--inject-log", metavar="FILE",
        help="copy the byte-stable injection log to FILE",
    )
    p_chaos_run.add_argument(
        "--no-reference", action="store_true",
        help="skip the fault-free serial reference run (disables the "
             "csv-identical invariant)",
    )
    p_chaos_run.add_argument(
        "--shrink-on-fail", action="store_true",
        help="on violation, shrink to a minimal failing scenario and "
             "write it to WORKDIR/shrunk-scenario.json",
    )
    p_chaos_run.set_defaults(func=cmd_chaos_run)
    p_chaos_soak = chaos_sub.add_parser(
        "soak", help="sweep one scenario across seeds"
    )
    p_chaos_soak.add_argument(
        "scenario", help="path to a chaos scenario JSON file"
    )
    p_chaos_soak.add_argument(
        "--seeds", default="0,1,2,3",
        help="comma-separated seeds to sweep (default 0,1,2,3)",
    )
    p_chaos_soak.add_argument(
        "--workdir",
        help="working directory; each seed runs in its own subdirectory",
    )
    p_chaos_soak.set_defaults(func=cmd_chaos_soak)

    p_lint = sub.add_parser(
        "lint", help="static netlist checks (loops, floating nets, "
                     "constant cones, unreachable logic)"
    )
    p_lint.add_argument(
        "targets", nargs="+",
        help=".bench/.isc files (by extension) or registered circuit "
             "names",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (json is machine-readable)",
    )
    p_lint.add_argument(
        "--rules", metavar="R1,R2,...",
        help="comma-separated subset of rules to run (default all; see "
             "repro.analysis.ALL_RULES)",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="exit 1 on warnings too, not just errors",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_analyze = sub.add_parser(
        "analyze",
        help="pre-campaign static analysis: fault-equivalence classes, "
             "fanout-free regions, dominance, SCOAP testability",
    )
    p_analyze.add_argument(
        "target",
        help="a .bench/.isc file (by extension) or a registered "
             "circuit name",
    )
    p_analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is machine-readable)",
    )
    p_analyze.add_argument(
        "--top", type=_positive_int, default=10, metavar="N",
        help="hardest representatives to list (default %(default)s)",
    )
    p_analyze.add_argument(
        "--list-classes", action="store_true",
        help="list every equivalence class with its members",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_serve = sub.add_parser(
        "serve",
        help="run the campaign job server (HTTP/JSON + results browser)",
    )
    p_serve.add_argument(
        "--root", default="repro-service", metavar="DIR",
        help="service root directory: queue journal, per-job artifacts, "
             "uploaded circuits (default %(default)s)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address "
        "(default %(default)s)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 picks an ephemeral port, written to "
             "<root>/service.json (default %(default)s)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="concurrent jobs (default %(default)s)",
    )
    p_serve.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="max concurrent jobs per tenant (default unlimited)",
    )
    p_serve.set_defaults(func=cmd_serve)

    def _endpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url", default=None,
            help="service URL (e.g. http://127.0.0.1:8421)",
        )
        p.add_argument(
            "--root", default="repro-service", metavar="DIR",
            help="service root to discover the URL from when --url is "
                 "not given (default %(default)s)",
        )

    p_submit = sub.add_parser(
        "submit", help="submit a campaign to a running job server"
    )
    _endpoint(p_submit)
    p_submit.add_argument(
        "circuit", nargs="?", help="registered benchmark name"
    )
    p_submit.add_argument(
        "--bench", metavar="FILE",
        help="upload a .bench netlist instead of a registry name",
    )
    p_submit.add_argument(
        "--kind", choices=("mot", "baseline", "unrestricted", "fsim"),
        default="mot", help="simulator kind (default %(default)s)",
    )
    p_submit.add_argument("--length", type=int, default=48)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--n-states", type=int, default=64)
    p_submit.add_argument("--n-references", type=int, default=8)
    p_submit.add_argument(
        "--workers", type=int, default=1,
        help="run the campaign on N local worker processes server-side",
    )
    p_submit.add_argument("--budget-ms", type=int, default=None)
    p_submit.add_argument("--budget-events", type=int, default=None)
    p_submit.add_argument(
        "--tenant", default="default", help="tenant for quota accounting"
    )
    p_submit.add_argument(
        "--priority", type=int, default=0,
        help="higher runs earlier; aging lifts waiting jobs "
             "(default %(default)s)",
    )
    p_submit.add_argument(
        "--watch", action="store_true",
        help="stream progress events until the job finishes",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list server jobs, or show/follow one"
    )
    _endpoint(p_jobs)
    p_jobs.add_argument("job_id", nargs="?", help="job to show")
    p_jobs.add_argument(
        "--follow", action="store_true",
        help="stream the job's progress events until terminal",
    )
    p_jobs.set_defaults(func=cmd_jobs)

    p_fetch = sub.add_parser(
        "fetch", help="download a job artifact from the server"
    )
    _endpoint(p_fetch)
    p_fetch.add_argument("job_id")
    p_fetch.add_argument(
        "artifact", nargs="?", default="results.csv",
        choices=("results.csv", "metrics.json", "report.txt"),
        help="artifact name (default %(default)s)",
    )
    p_fetch.add_argument(
        "-o", "--output", metavar="FILE",
        help="write to FILE instead of stdout",
    )
    p_fetch.set_defaults(func=cmd_fetch)

    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued or running job"
    )
    _endpoint(p_cancel)
    p_cancel.add_argument("job_id")
    p_cancel.set_defaults(func=cmd_cancel)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    try:
        return args.func(args)
    except CampaignInterrupted as exc:
        log.error("interrupted: %s", exc)
        if exc.journal_path:
            log.error(
                "resume with: --checkpoint %s --resume", exc.journal_path
            )
        return EXIT_INTERRUPTED
    except DistributedFailed as exc:
        log.error("error: %s", exc)
        if exc.journal_path:
            log.error(
                "resume with: --checkpoint %s --resume", exc.journal_path
            )
        return EXIT_FAILURE
    except (ReproError, SpecError) as exc:
        log.error("error: %s", exc)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

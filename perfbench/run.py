"""Campaign benchmark: whole fault-simulation campaigns, timed from outside.

Every campaign goes through the public entry shared by the CLI and the
job server, ``repro.runner.campaign.run_campaign(CampaignSpec)``.  A
workload (``workloads.json``) is one circuit, pattern length, simulator
kind and worker count; it runs as a closed loop -- one client, one
campaign at a time, in this process -- for ``--seconds`` seconds.  The
seed only chooses the generated random patterns: campaign ``k`` of a
run simulates ``random_patterns(..., seed * 1000 + k)``.

Untraced run (``--trace 0``) metrics, medians over the run's campaigns:

* ``campaign_s``   -- spec to returned verdicts;
* ``setup_s``      -- campaign start until the first fault begins
  (circuit build, collapse, patterns, good-machine cache, simulator);
* ``faults_per_s`` -- simulated faults / (campaign_s - setup_s);
* ``peak_rss_mb``  -- peak resident memory of this process plus its
  largest child (worker processes of a sharded campaign).

``coverage_pct`` and ``failed_fault_ratio`` are printed too; they
depend only on the patterns, so they are checked rather than timed.

Every campaign's verdicts are checked: at pattern seed 0 the
``(fault, status, how)`` projection must match the digest recorded in
``reference.json``; at any seed the MOT ``conv`` set must equal the
detected set of an IR conventional run on the same patterns (fsim
campaigns are spot-checked against the serial simulator instead).

The traced run (``--trace 1``) times the same campaign untraced, then
twice under :mod:`spans`, and prints the self-time tree, the per-layer
metrics, and the 10 most expensive faults; the full record is written
to ``perfbench/out/trace-<workload>-seed<seed>.json``.

Run from the repository root::

    python3 perfbench/run.py --workload mot-deep-s298 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --write-reference   # refresh reference.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = HERE / "workloads.json"
REFERENCE = HERE / "reference.json"
TOP_FAULTS = 10


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def load_workloads() -> Dict[str, Any]:
    with open(WORKLOADS) as handle:
        return json.load(handle)["workloads"]


def load_reference() -> Dict[str, Any]:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE) as handle:
        return json.load(handle)


def make_spec(workload: Dict[str, Any], pattern_seed: int, **overrides: Any):
    from repro.runner.campaign import CampaignSpec

    return CampaignSpec(**{**workload["spec"], "seed": pattern_seed, **overrides})


def pattern_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


# ----------------------------------------------------------------------
# First-fault marker (set-up time)
# ----------------------------------------------------------------------
class FirstFault:
    """``perf_counter()`` at which the first fault of a campaign began
    (0.0 until then).  Benchmarked campaigns are serial, so the first
    fault starts in this process."""

    def __init__(self) -> None:
        self.at = 0.0

    def reset(self) -> None:
        self.at = 0.0

    def mark(self) -> None:
        if not self.at:
            self.at = time.perf_counter()

    def install(self):
        """Mark on the first MOT fault or the first compiled fsim batch."""
        import functools

        import repro.sim.kernel as kernel
        from repro.mot.simulator import ProposedSimulator
        from spans import Patches

        patches = Patches()
        for owner, attr in (
            (ProposedSimulator, "simulate_fault"),
            (kernel, "compile_fault_batch"),
        ):
            original = getattr(owner, attr)

            def marked(*args, __original=original, **kwargs):
                self.mark()
                return __original(*args, **kwargs)

            patches.set(owner, attr, functools.wraps(original)(marked))
        return patches


# ----------------------------------------------------------------------
# One campaign
# ----------------------------------------------------------------------
def run_one(spec, first: FirstFault) -> Tuple[Any, float, float]:
    """Run *spec*; returns (result, campaign seconds, setup seconds)."""
    from repro.runner.campaign import run_campaign

    first.reset()
    start = time.perf_counter()
    result = run_campaign(spec)
    elapsed = time.perf_counter() - start
    began = first.at
    return result, elapsed, (began - start) if began else elapsed


def verdict_rows(result) -> List[str]:
    circuit = result.circuit
    if result.kind == "fsim":
        return [
            f"{v.fault.describe(circuit)},"
            f"{'detected' if v.detected else 'undetected'},"
            for v in result.campaign.verdicts
        ]
    return [
        f"{v.fault.describe(circuit)},{v.status},{v.how}"
        for v in result.campaign.verdicts
    ]


def verdict_digest(result) -> str:
    return hashlib.sha256("\n".join(verdict_rows(result)).encode()).hexdigest()


def outcome(result) -> Dict[str, int]:
    """Fault counts of one campaign: total, detected, failed."""
    verdicts = result.campaign.verdicts
    if result.kind == "fsim":
        detected = sum(1 for v in verdicts if v.detected)
        failed = 0
    else:
        detected = sum(1 for v in verdicts if v.status in ("conv", "mot"))
        failed = sum(1 for v in verdicts if v.status in ("errored", "aborted"))
    return {"total": len(verdicts), "detected": detected, "failed": failed}


def check(name: str, spec, result, reference: Dict[str, Any]) -> List[str]:
    """Every problem with *result*'s verdicts (empty when correct)."""
    from repro.patterns.random_gen import random_patterns

    problems = []
    expected = reference.get(name, {}).get("verdicts_sha256", {}).get(str(spec.seed))
    if expected is not None and verdict_digest(result) != expected:
        problems.append(f"pattern seed {spec.seed}: verdict digest mismatch")
    circuit = result.circuit
    patterns = random_patterns(circuit.num_inputs, spec.length, spec.seed)
    verdicts = result.campaign.verdicts
    if result.kind == "fsim":
        from repro.fsim.conventional import simulate_fault

        reference_outputs = result.campaign.reference.outputs
        samples = [next((v for v in verdicts if v.detected == d), None)
                   for d in (True, False)]
        for verdict in filter(None, samples):
            serial = simulate_fault(circuit, verdict.fault, patterns, reference_outputs)
            if serial.detected != verdict.detected:
                problems.append(
                    f"{verdict.fault.describe(circuit)}: kernel and serial fsim disagree"
                )
    else:
        from repro.fsim.parallel import run_parallel_conventional

        fsim = run_parallel_conventional(circuit, result.faults, patterns, engine="ir")
        conv = {v.fault for v in verdicts if v.status == "conv"}
        if conv != set(fsim.detected_faults()):
            problems.append(
                f"pattern seed {spec.seed}: MOT conv set differs from IR fsim"
            )
    return problems


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def warm_up(workload: Dict[str, Any], first: FirstFault, **overrides: Any) -> None:
    """Import every module and start the executor once on a tiny circuit."""
    run_one(make_spec(workload, 0, circuit="s27", length=8, **overrides), first)


# ----------------------------------------------------------------------
# Untraced run
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def timed_run(name: str, workload: Dict[str, Any], seed: int, seconds: float) -> Dict[str, Any]:
    reference = load_reference()
    first = FirstFault()
    hooks = first.install()
    try:
        warm_up(workload, first)
        campaign_s, setup_s, rates = [], [], []
        total = detected = failed = 0
        problems: List[str] = []
        started = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - started < seconds:
            spec = make_spec(workload, pattern_seed(seed, k))
            result, elapsed, setup = run_one(spec, first)
            counts = outcome(result)
            campaign_s.append(elapsed)
            setup_s.append(setup)
            rates.append(counts["total"] / (elapsed - setup))
            total += counts["total"]
            detected += counts["detected"]
            failed += counts["failed"]
            problems += check(name, spec, result, reference)
            print(
                f"campaign {k}: pattern seed {spec.seed}, {counts['total']} faults, "
                f"{elapsed:.3f} s (setup {setup:.4f} s), "
                f"coverage {100.0 * counts['detected'] / counts['total']:.2f}%",
                flush=True,
            )
            k += 1
    finally:
        hooks.undo()
    for problem in problems:
        print(f"VERDICT CHECK FAILED: {problem}", flush=True)

    q1, median, q3 = quartiles(campaign_s)
    metrics = {
        "campaign_s": (median, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "faults_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"\n{name}: {len(campaign_s)} campaigns, closed loop, 1 client")
    print(f"  campaign_s          {median:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(campaign_s)})")
    for key in ("setup_s", "faults_per_s", "peak_rss_mb"):
        value, unit = metrics[key]
        print(f"  {key:<19} {value:.4f} {unit}")
    print(f"  coverage_pct        {100.0 * detected / total:.4f} %")
    print(f"  failed_fault_ratio  {failed / total:.4f} ratio")
    return {
        "correct": not problems,
        "attempted": total,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
#: Counters that must repeat exactly between two traced campaigns.
MACHINE_INDEPENDENT = (
    "sim.frame.evals",
    "mot.implication.runs",
    "mot.expansion.sequences",
    "mot.resim.calls",
    "sim.kernel.eval_pass.calls",
)


def traced_campaign(spec, first: FirstFault):
    """Run *spec* under the tracer; returns (tracer, result)."""
    import spans

    from repro.runner.campaign import run_campaign

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    first.reset()
    tracer.enter("campaign")
    try:
        result = run_campaign(spec)
    finally:
        tracer.exit()
        patches.undo()
    tracer.counts["mot.resim.calls"] = tracer.calls("mot.resim")
    return tracer, result


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, result, extras: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    counts = tracer.counts
    wall = tracer.nodes[("campaign",)][1]
    faults = len(result.campaign.verdicts)
    backward_calls = tracer.calls("mot.backward")
    expansion_calls = tracer.calls("mot.expansion")
    fallback_calls = tracer.calls("mot.fallback")
    batches = tracer.calls("sim.kernel.compile_batch")
    from repro.fsim.parallel import DEFAULT_BATCH

    checked = faults - counts["verdict.conv"] if result.kind != "fsim" else 0
    s, n, r = "s", "count", "ratio"
    return {
        "trace.campaign_s": (wall, s),
        "trace.overhead_s": (extras["traced_s"] - extras["untraced_s"], s),
        "runner.other_s": (tracer.nodes[("campaign",)][0], s),
        "runner.executor.self_s": (tracer.self_time("runner.executor"), s),
        "runner.executor.speedup": (extras["speedup"], r),
        "runner.executor.retries": (extras["retries"], n),
        "runner.executor.degraded": (extras["degraded"], n),
        "circuit.build.self_s": (tracer.self_time("circuit.build"), s),
        "faults.collapse.self_s": (tracer.self_time("faults.collapse"), s),
        "faults.inject.self_s": (tracer.self_time("faults.inject"), s),
        "faults.inject.calls": (tracer.calls("faults.inject"), n),
        "sim.conv_sim.self_s": (tracer.self_time("sim.conv_sim"), s),
        "sim.conv_sim.calls": (tracer.calls("sim.conv_sim"), n),
        "sim.frame.evals": (counts["sim.frame.evals"], n),
        "sim.goodcache.self_s": (tracer.self_time("sim.goodcache"), s),
        "sim.kernel.fault_batch.self_s": (tracer.self_time("sim.kernel.fault_batch"), s),
        "sim.kernel.fault_batch.calls": (tracer.calls("sim.kernel.fault_batch"), n),
        "sim.kernel.eval_pass.calls": (counts["sim.kernel.eval_pass.calls"], n),
        "sim.kernel.slot_fill": (ratio(counts["sim.kernel.slots_used"], batches * DEFAULT_BATCH), r),
        "mot.fault.self_s": (tracer.self_time("mot.fault"), s),
        "mot.condition_c.self_s": (tracer.self_time("mot.condition_c"), s),
        "mot.condition_c.drop_ratio": (ratio(counts["verdict.dropped"], checked), r),
        "mot.backward.self_s": (tracer.self_time("mot.backward"), s),
        "mot.backward.calls": (backward_calls, n),
        "mot.backward.pairs": (counts["mot.backward.pairs"], n),
        "mot.implication.runs": (counts["mot.implication.runs"], n),
        "mot.backward.info_detect_ratio": (ratio(counts["mot.backward.info_detects"], backward_calls), r),
        "mot.expansion.self_s": (tracer.self_time("mot.expansion"), s),
        "mot.expansion.sequences": (counts["mot.expansion.sequences"], n),
        "mot.expansion.phase1_detect_ratio": (ratio(counts["mot.expansion.phase1_detects"], expansion_calls), r),
        "mot.resim.self_s": (tracer.self_time("mot.resim"), s),
        "mot.resim.calls": (counts["mot.resim.calls"], n),
        "mot.resim.resolved_ratio": (ratio(counts["mot.resim.resolved"], counts["mot.resim.calls"]), r),
        "mot.fallback.total_s": (tracer.total_time("mot.fallback"), s),
        "mot.fallback.share": (ratio(tracer.total_time("mot.fallback"), wall), r),
        "mot.fallback.calls": (fallback_calls, n),
        "mot.fallback.detect_ratio": (ratio(counts["mot.fallback.detects"], fallback_calls), r),
        "mot.fallback.resim.self_s": (tracer.self_time("mot.fallback.resim"), s),
        "mot.fallback.resim.calls": (tracer.calls("mot.fallback.resim"), n),
        "mot.fallback.choose_pair.self_s": (tracer.self_time("mot.fallback.choose_pair"), s),
    }


def tree_rows(tracer) -> List[Dict[str, Any]]:
    return [
        {"path": "/".join(path), "self_s": v[0], "total_s": v[1], "calls": v[2]}
        for path, v in sorted(tracer.nodes.items())
    ]


def print_tree(title: str, rows: List[Dict[str, Any]], wall: float) -> None:
    print(f"\n{title}")
    print(f"  {'span':<44} {'self_s':>9} {'share':>7} {'calls':>8}")
    for row in rows:
        parts = row["path"].split("/")
        label = "  " * (len(parts) - 1) + parts[-1]
        if len(parts) == 1:
            label += " [other]"
        print(
            f"  {label:<44} {row['self_s']:9.4f} "
            f"{100.0 * row['self_s'] / wall:6.1f}% {row['calls']:8d}"
        )
    total = sum(row["self_s"] for row in rows)
    print(f"  {'sum of self times':<44} {total:9.4f} {100.0 * total / wall:6.1f}%")


def layer_shares(tracer) -> Dict[str, float]:
    """Self time per span name as a share of the traced campaign time."""
    wall = tracer.nodes[("campaign",)][1]
    shares: Dict[str, float] = {}
    for path, v in tracer.nodes.items():
        name = "other" if len(path) == 1 else path[-1]
        shares[name] = shares.get(name, 0.0) + v[0] / wall
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def traced_run(name: str, workload: Dict[str, Any], seed: int) -> Dict[str, Any]:
    reference = load_reference()
    first = FirstFault()
    hooks = first.install()
    spec = make_spec(workload, pattern_seed(seed, 0))
    # The serial workload also times its sharded twin (same campaign,
    # "executor_twin" workers), so the executor layer is measured.
    twin_spec = replace(spec, workers=workload.get("executor_twin", spec.workers))
    twin = None
    try:
        warm_up(workload, first)
        untraced: List[float] = []
        runs = []
        for _ in range(2):  # alternate, so host drift hits both sides
            untraced.append(run_one(spec, first)[1])
            runs.append(traced_campaign(spec, first))
        if twin_spec != spec:
            warm_up(workload, first, workers=twin_spec.workers)
            twin = run_one(twin_spec, first)
    finally:
        hooks.undo()
    untraced_s = statistics.median(untraced)
    tracer, result = runs[0]
    speedup, executor_stats = 1.0, result.stats
    if twin is not None:
        speedup, executor_stats = untraced_s / twin[1], twin[0].stats
        print(
            f"executor: {twin_spec.workers}-worker twin campaign "
            f"{twin[1]:.4f} s, speedup {speedup:.3f}"
        )

    problems: List[str] = []
    for other, other_result in runs[1:]:
        for key in MACHINE_INDEPENDENT:
            if tracer.counts[key] != other.counts[key]:
                problems.append(
                    f"{key} differs between traced runs: "
                    f"{tracer.counts[key]} vs {other.counts[key]}"
                )
    if twin is not None and verdict_digest(twin[0]) != verdict_digest(result):
        problems.append(f"{twin_spec.workers}-worker verdicts differ from serial")
    for each, each_result in runs:
        problems += check(name, spec, each_result, reference)
        rows = tree_rows(each)
        wall = each.nodes[("campaign",)][1]
        if abs(sum(row["self_s"] for row in rows) - wall) > 1e-6 * max(wall, 1.0):
            problems.append("self times plus other do not sum to traced campaign_s")

    extras = {
        "untraced_s": untraced_s,
        "traced_s": statistics.median(t.nodes[("campaign",)][1] for t, _r in runs),
        "speedup": speedup,
        "retries": getattr(executor_stats, "retries", 0),
        "degraded": int(getattr(executor_stats, "degraded", False)),
    }
    metrics = layer_metrics(tracer, result, extras)
    wall = metrics["trace.campaign_s"][0]
    print_tree(
        f"{name}: self-time tree, pattern seed {spec.seed} "
        f"(traced campaign_s {wall:.4f} s, untraced {untraced_s:.4f} s)",
        tree_rows(tracer), wall,
    )
    top = sorted(tracer.faults, key=lambda f: -f["total_s"])[:TOP_FAULTS]
    if top:
        print(f"\n{TOP_FAULTS} most expensive faults")
        for record in top:
            split = ", ".join(
                f"{k} {v:.4f}"
                for k, v in sorted(record["split"].items(), key=lambda kv: -kv[1])
                if v >= 0.0005
            )
            verdict = record["status"] + (f"/{record['how']}" if record["how"] else "")
            print(f"  {record['fault']:<28} {verdict:<14} {record['total_s']:.4f} s: {split}")
    print("\nper-layer metrics")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:.6g} {unit}")
    for problem in problems:
        print(f"VERDICT CHECK FAILED: {problem}", flush=True)

    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"trace-{name}-seed{seed}.json"
    with open(record_path, "w") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "pattern_seed": spec.seed,
                "spec": spec.to_payload(),
                "tree": tree_rows(tracer),
                "layer_shares": layer_shares(tracer),
                "counts": dict(tracer.counts),
                "top_faults": top,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "problems": problems,
            },
            handle,
            indent=1,
        )
    print(f"trace record: {record_path.relative_to(ROOT)}")
    counts = outcome(result)
    return {
        "correct": not problems,
        "attempted": counts["total"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ----------------------------------------------------------------------
# Reference digests
# ----------------------------------------------------------------------
def write_reference(workloads: Dict[str, Any]) -> None:
    """Record each workload's verdict digest at pattern seed 0, plus the
    layer shares of one traced campaign, into ``reference.json``."""
    first = FirstFault()
    hooks = first.install()
    reference: Dict[str, Any] = {}
    try:
        for name, workload in workloads.items():
            spec = make_spec(workload, 0)
            result = run_one(spec, first)[0]
            counts = outcome(result)
            tracer, _ = traced_campaign(spec, first)
            reference[name] = {
                "verdicts_sha256": {"0": verdict_digest(result)},
                "faults": counts["total"],
                "coverage_pct": round(100.0 * counts["detected"] / counts["total"], 4),
                "seed_commit_layer_shares": layer_shares(tracer),
            }
            print(f"{name}: {reference[name]}", flush=True)
    finally:
        hooks.undo()
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    workloads = load_workloads()
    # Sharded executors write their shard journals to the temp dir;
    # keep them inside the checkout.
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)

    if args.write_reference:
        write_reference(workloads)
        return 0
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    workload = workloads[args.workload]
    if args.trace:
        result = traced_run(args.workload, workload, args.seed)
    else:
        result = timed_run(args.workload, workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

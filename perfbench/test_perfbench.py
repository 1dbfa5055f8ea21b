"""Self-test of the campaign benchmark's traced run.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload's campaign is traced twice: the machine-independent
counters must repeat exactly, the self-time tree plus its ``other`` row
must sum to the traced campaign time, every cost record must carry a
verdict, and the traced run must report exactly the per-layer metrics
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = run.load_workloads()


def _traced_twice(workload):
    first = run.FirstFault()
    hooks = first.install()
    try:
        spec = run.make_spec(workload, 0)
        return spec, [run.traced_campaign(spec, first) for _ in range(2)]
    finally:
        hooks.undo()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_tree_sums(name):
    spec, runs = _traced_twice(WORKLOADS[name])
    (tracer, result), (again, _result) = runs
    for key in run.MACHINE_INDEPENDENT:
        assert tracer.counts[key] == again.counts[key], key
    work = run.MACHINE_INDEPENDENT if spec.kind == "mot" else (
        "sim.kernel.eval_pass.calls",
    )
    assert all(tracer.counts[key] > 0 for key in work)

    for each, _ in runs:
        rows = run.tree_rows(each)
        wall = each.nodes[("campaign",)][1]
        assert sum(row["self_s"] for row in rows) == pytest.approx(wall, rel=1e-9)
        assert min(row["self_s"] for row in rows) >= 0.0

    if spec.kind == "mot":
        assert len(tracer.faults) == len(result.campaign.verdicts)
        statuses = {v.fault.describe(result.circuit): v.status
                    for v in result.campaign.verdicts}
        for record in tracer.faults:
            assert record["status"] == statuses[record["fault"]]
            assert sum(record["split"].values()) == pytest.approx(
                record["total_s"], rel=1e-9
            )
    assert not run.check(name, spec, result, run.load_reference())


def test_reported_metrics_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS["mot-prefilter-s641"]
    first = run.FirstFault()
    hooks = first.install()
    try:
        tracer, result = run.traced_campaign(run.make_spec(workload, 0), first)
    finally:
        hooks.undo()
    extras = {"untraced_s": 1.0, "traced_s": 1.0, "speedup": 1.0,
              "retries": 0, "degraded": 0}
    reported = run.layer_metrics(tracer, result, extras)
    assert set(reported) == {m["name"] for m in declared["per_layer"]}
    for metric in declared["per_layer"]:
        assert reported[metric["name"]][1] == metric["unit"]


def test_patches_restore_every_attribute():
    import repro.mot.simulator as simulator
    import repro.sim.sequential as sequential

    before = (simulator.inject_fault, sequential.eval_frame,
              simulator.ProposedSimulator.__dict__["simulate_fault"])
    patches = spans.install(spans.Tracer())
    assert sequential.eval_frame is not before[1]
    patches.undo()
    after = (simulator.inject_fault, sequential.eval_frame,
             simulator.ProposedSimulator.__dict__["simulate_fault"])
    assert after == before

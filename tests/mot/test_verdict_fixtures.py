"""Golden MOT verdict fixtures: campaign CSVs are frozen byte for byte.

Each ``tests/mot/golden/<name>.verdicts.json`` fixture pins the full
``campaign_csv`` output of one circuit under the proposed procedure
(fixpoint, two-pass, learning) and the [4] baseline (one-shot,
iterative).  Any change to a verdict, a ``how`` tag, the Table 3
counters or the sequence/expansion counts fails here -- including a
changed implication record order, which moves ``N_extra`` and with it
the phase-2 pair selection.  Regenerate with
``python tools/make_verdict_fixtures.py`` when a change is intentional.

The same frozen text is also the identity target of the multi-process
executor: selected runs go through the lease dispatcher on forked local
workers (``max(2, REPRO_TEST_WORKERS)`` of them) and must reproduce it
byte for byte -- including the ``random_moore`` circuits, whose
``.bench`` round-trip renumbers lines, so they could never be shipped
to a worker and only run because forked workers inherit the simulator.
"""

import importlib.util
import json
import os

import pytest

from repro.faults.sites import all_faults
from repro.patterns.random_gen import random_patterns
from repro.reporting.campaign import campaign_csv
from repro.runner.dispatch import DistributedCampaignRunner
from repro.runner.transport import LocalTransport

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _load_tool():
    path = os.path.join(ROOT, "tools", "make_verdict_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_verdict_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _fixture(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.verdicts.json")) as handle:
        return json.load(handle)


def test_every_workload_has_a_fixture_with_every_run():
    for name in tool.WORKLOADS:
        frozen = _fixture(name)
        assert sorted(frozen["runs"]) == sorted(tool.RUNS), name


@pytest.mark.parametrize("name", sorted(tool.WORKLOADS))
@pytest.mark.parametrize("run", sorted(tool.RUNS))
def test_campaign_csv_matches_fixture(name, run):
    frozen = _fixture(name)
    circuit = tool.build(frozen["source"])
    patterns = random_patterns(
        circuit.num_inputs, frozen["length"], seed=frozen["pattern_seed"]
    )
    live = tool.run_csv(circuit, patterns, run)
    assert live == "".join(frozen["runs"][run])


#: (workload, run) pairs replayed on local workers.
EXECUTOR_CASES = [
    (name, "proposed_fixpoint") for name in sorted(tool.WORKLOADS)
] + [("learned_demo", "proposed_learning"), ("s27", "baseline_oneshot")]


@pytest.mark.parametrize("name,run", EXECUTOR_CASES)
def test_dispatched_campaign_csv_matches_fixture(name, run, campaign_workers):
    frozen = _fixture(name)
    circuit = tool.build(frozen["source"])
    patterns = random_patterns(
        circuit.num_inputs, frozen["length"], seed=frozen["pattern_seed"]
    )
    workers = max(2, campaign_workers)
    runner = DistributedCampaignRunner(
        tool.RUNS[run](circuit, patterns),
        [f"worker{k}" for k in range(workers)],
        LocalTransport(),
    )
    campaign = runner.run(all_faults(circuit))
    assert campaign_csv(campaign, circuit) == "".join(frozen["runs"][run])

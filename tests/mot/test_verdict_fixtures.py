"""Golden MOT verdict fixtures: campaign CSVs are frozen byte for byte.

Each ``tests/mot/golden/<name>.verdicts.json`` fixture pins the full
``campaign_csv`` output of one circuit under the proposed procedure
(fixpoint, two-pass, depth 2), the [4] baseline (one-shot, iterative)
and the unrestricted generalization.  Any change to a verdict, a
``how`` tag, the Table 3 counters or the sequence/expansion counts
fails here -- including a changed ``extra`` set, which moves
``N_extra`` and with it the phase-2 pair selection.  Regenerate with
``python tools/make_verdict_fixtures.py`` when a change is intentional.

The same frozen text is also the identity target of the multi-process
executor: selected runs go through the lease dispatcher on forked local
workers (``max(2, REPRO_TEST_WORKERS)`` of them) and must reproduce it
byte for byte -- including the ``random_moore`` circuits, whose
``.bench`` round-trip renumbers lines, so they could never be shipped
to a worker and only run because forked workers inherit the simulator.
"""

import csv
import importlib.util
import json
import os

import pytest

from repro.faults.sites import all_faults
from repro.patterns.random_gen import random_patterns
from repro.reporting.campaign import campaign_csv
from repro.runner.dispatch import DistributedCampaignRunner
from repro.runner.transport import LocalTransport
from repro.verify.exhaustive import exhaustive_unrestricted_mot

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


def _statuses(frozen, run):
    """Fault label -> status of one frozen run."""
    rows = csv.DictReader(frozen["runs"][run])
    return {row["fault"]: row["status"] for row in rows}


@pytest.mark.parametrize("name", sorted(tool.WORKLOADS))
def test_unrestricted_conv_is_conventional_detection(name):
    """An unrestricted ``conv`` verdict means conventionally detected
    against the good machine's response: the restricted runs' set."""
    frozen = _fixture(name)

    def conv(run):
        return {
            label
            for label, status in _statuses(frozen, run).items()
            if status == "conv"
        }

    assert conv("unrestricted") == conv("proposed_fixpoint")


@pytest.mark.parametrize("name", sorted(tool.WORKLOADS))
def test_unrestricted_mot_rows_are_confirmed_by_enumeration(name):
    """Every unrestricted ``mot`` row has disjoint fault-free and faulty
    response sets (the exhaustive oracle), the rows that conventional
    simulation against an expanded reference detects included."""
    frozen = _fixture(name)
    circuit = tool.build(frozen["source"])
    patterns = random_patterns(
        circuit.num_inputs, frozen["length"], seed=frozen["pattern_seed"]
    )
    faults = {fault.describe(circuit): fault for fault in all_faults(circuit)}
    for label, status in _statuses(frozen, "unrestricted").items():
        if status == "mot":
            assert exhaustive_unrestricted_mot(
                circuit, faults[label], patterns
            ), label


#: (workload, run) pairs replayed on local workers.
EXECUTOR_CASES = [
    (name, "proposed_fixpoint") for name in sorted(tool.WORKLOADS)
] + [("learned_demo", "proposed_two_pass"), ("s27", "baseline_oneshot")]


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

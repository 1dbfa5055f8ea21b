"""Golden MOT verdict fixtures: campaign CSVs are frozen byte for byte.

Each ``tests/mot/golden/<name>.verdicts.json`` fixture pins the full
``campaign_csv`` output of one circuit under the proposed procedure
(fixpoint, two-pass, learning) and the [4] baseline (one-shot,
iterative).  Any change to a verdict, a ``how`` tag, the Table 3
counters or the sequence/expansion counts fails here -- including a
changed implication record order, which moves ``N_extra`` and with it
the phase-2 pair selection.  Regenerate with
``python tools/make_verdict_fixtures.py`` when a change is intentional.
"""

import importlib.util
import json
import os

import pytest

from repro.patterns.random_gen import random_patterns

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

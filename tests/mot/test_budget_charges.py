"""Golden budget charges: the work events each fault costs are frozen.

``tests/mot/golden/budget_charges.json`` pins, per fault, the total
events an unbounded external :class:`~repro.runner.budget.BudgetMeter`
is charged by the proposed procedure and by the [4] baseline's one-shot
and iterative schedules.  A per-fault ``--budget-events`` limit aborts
exactly the faults whose total exceeds it, so these totals are what a
rewrite of expansion or resimulation must keep.  Regenerate with
``python tools/make_budget_fixtures.py`` when a change is intentional.
"""

import importlib.util
import json
import os

import pytest

from repro.mot.baseline import BaselineConfig, BaselineSimulator
from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.runner.budget import FaultBudget

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _load_tool():
    path = os.path.join(ROOT, "tools", "make_budget_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_budget_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

with open(tool.FIXTURE) as _handle:
    FIXTURE = json.load(_handle)


def test_every_workload_has_every_run():
    assert sorted(FIXTURE) == sorted(tool.WORKLOADS)
    for name, entry in FIXTURE.items():
        assert sorted(entry["runs"]) == sorted(tool.RUNS), name


@pytest.mark.parametrize("name", sorted(tool.WORKLOADS))
@pytest.mark.parametrize("run", sorted(tool.RUNS))
def test_charges_match_fixture(name, run):
    circuit, patterns, faults = tool.workload(name)
    rows = tool.charges(tool.RUNS[run](circuit, patterns), faults)
    live = [
        f"{fault.describe(circuit)} {events} {status}"
        for fault, (events, status) in zip(faults, rows)
    ]
    assert live == FIXTURE[name]["runs"][run]


def _budgeted(run, circuit, patterns, max_events):
    budget = FaultBudget(max_events=max_events)
    if run == "proposed":
        return ProposedSimulator(circuit, patterns, MotConfig(budget=budget))
    schedule = run.split("_", 1)[1]
    return BaselineSimulator(
        circuit, patterns, BaselineConfig(schedule=schedule, budget=budget)
    )


def _summary(verdict):
    return (
        verdict.status,
        verdict.how,
        verdict.num_sequences,
        verdict.num_expansions,
        verdict.counters,
    )


@pytest.mark.parametrize("name", ["s27", "s208_like"])
@pytest.mark.parametrize("run", sorted(tool.RUNS))
def test_budget_of_exactly_the_total_suffices(name, run):
    """On the three costliest survivors, one event less than the frozen
    total aborts the fault and the total itself changes nothing."""
    circuit, patterns, faults = tool.workload(name)
    by_label = {fault.describe(circuit): fault for fault in faults}
    survivors = sorted(
        (
            tool.parse_row(row)
            for row in FIXTURE[name]["runs"][run]
        ),
        key=lambda parsed: (-parsed[1], parsed[0]),
    )
    survivors = [
        (label, events)
        for label, events, status in survivors
        if status not in ("conv", "dropped")
    ][:3]
    assert survivors, "the workload has no fault past the front"
    plain = tool.RUNS[run](circuit, patterns)
    for label, total in survivors:
        fault = by_label[label]
        short = _budgeted(run, circuit, patterns, total - 1)
        aborted = short.simulate_fault(fault)
        assert (aborted.status, aborted.how) == ("aborted", "budget"), label
        exact = _budgeted(run, circuit, patterns, total)
        assert _summary(exact.simulate_fault(fault)) == _summary(
            plain.simulate_fault(fault)
        ), label

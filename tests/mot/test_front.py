"""The batched Procedure-1 front shared by the proposed and [4] simulators.

:meth:`~repro.mot.simulator.ProcedureFront.prefilter` decides
conventional detection and condition (C) for a whole fault list in
one kernel fault batch; ``simulate_fault`` answers ``conv`` and
``dropped`` from that table and runs its per-fault steps only for the
faults that pass both.  These tests pin what must not change: a fault
simulated without a prefilter (a batch of one) gets the prefiltered
verdict, budgets charge exactly as before, every executor fills the
table before its first fault, a fault list is one kernel batch, and a
batch that raises is split in halves.
"""

import math
from collections import Counter

import pytest

import repro.sim.kernel as kernel
from repro.circuits.library import s27
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE
from repro.mot.baseline import BaselineSimulator
from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.mot.unrestricted import UnrestrictedConfig, UnrestrictedSimulator
from repro.patterns.random_gen import random_patterns
from repro.runner.budget import FaultBudget
from repro.runner.campaign import CampaignSpec, run_campaign
from repro.runner.harness import CampaignHarness, HarnessConfig
from repro.runner.journal import CampaignJournal, verdict_to_record

from tests.helpers import s27_patterns

FACTORIES = {
    "proposed": lambda c, p: ProposedSimulator(c, p),
    "baseline": lambda c, p: BaselineSimulator(c, p),
    "unrestricted": lambda c, p: UnrestrictedSimulator(c, p),
}


def _counts(campaign):
    return Counter((v.status, v.how) for v in campaign.verdicts)


# ----------------------------------------------------------------------
# Batch of one == prefiltered campaign
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_unprefiltered_fault_gets_the_prefiltered_verdict(kind):
    circuit = s27()
    patterns = s27_patterns(seed=3)
    faults = all_faults(circuit)
    campaign = FACTORIES[kind](circuit, patterns).run(faults)
    for fault, expected in zip(faults, campaign.verdicts):
        fresh = FACTORIES[kind](circuit, patterns)
        assert fresh.simulate_fault(fault) == expected, fault.describe(circuit)


def test_prefilter_fills_the_table_once():
    circuit = s27()
    simulator = ProposedSimulator(circuit, s27_patterns())
    faults = all_faults(circuit)
    simulator.prefilter(faults + faults[:5])
    table = dict(simulator._front)
    assert list(table) == faults
    assert set(table.values()) <= {"conv", "dropped", ""}
    simulator.prefilter(faults)
    assert simulator._front == table


@pytest.fixture
def batch_sizes(monkeypatch):
    """The size of every batch the front hands the kernel."""
    sizes = []
    compile_fault_batch = kernel.compile_fault_batch

    def counting(circuit, faults):
        sizes.append(len(faults))
        return compile_fault_batch(circuit, faults)

    monkeypatch.setattr(kernel, "compile_fault_batch", counting)
    return sizes


def test_prefilter_runs_the_fault_list_as_one_batch(batch_sizes):
    faults = all_faults(s27())
    ProposedSimulator(s27(), s27_patterns()).prefilter(faults)
    assert batch_sizes == [len(faults)]


def test_a_raising_batch_is_split_in_halves(batch_sizes):
    circuit = s27()
    faults = all_faults(circuit)
    expected = ProposedSimulator(circuit, s27_patterns())
    expected.prefilter(faults)
    broken = Fault(circuit.num_lines + 5, ONE)
    mixed = faults[:3] + [broken] + faults[3:]
    batch_sizes.clear()
    simulator = ProposedSimulator(circuit, s27_patterns())
    with pytest.raises(IndexError):
        simulator.prefilter(mixed)
    assert simulator._front == expected._front
    # The whole list, then two halves per level down to the broken
    # fault alone.
    assert len(batch_sizes) <= 1 + 2 * math.ceil(math.log2(len(mixed)))


# ----------------------------------------------------------------------
# Budgets charge as before the front was batched
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["mot", "baseline"])
def test_event_budgets_abort_as_before(kind):
    def spec(**budget):
        return CampaignSpec(circuit="s27", length=16, seed=1, kind=kind,
                            **budget)

    nothing = run_campaign(spec(budget_events=0)).campaign
    assert _counts(nothing) == {("aborted", "budget"): 32}
    # One event pays for the conventional step only: every fault the
    # front does not end runs out at its next charge.
    one = run_campaign(spec(budget_events=1)).campaign
    assert _counts(one) == {
        ("conv", ""): 9, ("dropped", ""): 20, ("aborted", "budget"): 3,
    }


def test_unrestricted_campaign_honours_the_fault_budget():
    def run(**budget):
        return run_campaign(CampaignSpec(
            circuit="s27", length=16, seed=1, kind="unrestricted", **budget
        )).campaign

    unbudgeted = run()
    assert _counts(unbudgeted) == {
        ("conv", ""): 9, ("dropped", ""): 5, ("undetected", ""): 18,
    }
    assert _counts(run(budget_events=0)) == {("aborted", "budget"): 32}
    assert run(budget_events=10**9).verdicts == unbudgeted.verdicts


def test_unrestricted_budget_bounds_the_fault_not_each_reference():
    """The simulator's own budget is one meter per fault, shared by the
    per-reference runs, exactly like the harness's meter."""
    result = run_campaign(CampaignSpec(
        circuit="s27", length=16, seed=1, kind="unrestricted",
        n_references=4, budget_events=1,
    ))
    simulator = UnrestrictedSimulator(
        result.circuit,
        random_patterns(result.circuit.num_inputs, 16, 1),
        UnrestrictedConfig(
            n_references=4,
            restricted=MotConfig(budget=FaultBudget(max_events=1)),
        ),
    )
    direct = simulator.run(result.faults)
    assert [(v.status, v.how) for v in direct.verdicts] == [
        (v.status, v.how) for v in result.campaign.verdicts
    ]
    # A conv fault costs one event; every other fault needs more than
    # one reference run, and so more than one event, unless dropped.
    assert _counts(direct) == {
        ("conv", ""): 9, ("aborted", "budget"): 18, ("dropped", ""): 5,
    }


# ----------------------------------------------------------------------
# Executors prefilter before the first fault
# ----------------------------------------------------------------------
def test_harness_prefilters_only_the_faults_left_after_resume(tmp_path):
    circuit = s27()
    patterns = s27_patterns()
    faults = all_faults(circuit)
    journal = str(tmp_path / "run.jsonl")
    first = CampaignHarness(
        ProposedSimulator(circuit, patterns),
        HarnessConfig(checkpoint_path=journal, handle_sigint=False),
    ).run(faults)
    manifest, records = CampaignJournal(journal).load()
    kept = {i: v for i, v in records.items() if i < 10}
    rewritten = CampaignJournal(str(tmp_path / "resume.jsonl"))
    rewritten.create(manifest)
    for index, verdict in sorted(kept.items()):
        rewritten.append(verdict_to_record(index, verdict))
    rewritten.flush()

    simulator = ProposedSimulator(circuit, patterns)
    resumed = CampaignHarness(
        simulator,
        HarnessConfig(
            checkpoint_path=rewritten.path, resume=True, handle_sigint=False
        ),
    ).run(faults)
    assert resumed.verdicts == first.verdicts
    assert set(simulator._front) == set(faults[10:])


def test_a_fault_the_batch_cannot_compile_is_quarantined_alone():
    circuit = s27()
    faults = all_faults(circuit)
    broken = Fault(circuit.num_lines + 5, ONE)
    mixed = faults[:3] + [broken] + faults[3:]
    expected = ProposedSimulator(circuit, s27_patterns()).run(faults)
    campaign = CampaignHarness(
        ProposedSimulator(circuit, s27_patterns()),
        HarnessConfig(handle_sigint=False),
    ).run(mixed)
    verdicts = list(campaign.verdicts)
    assert verdicts.pop(3).status == "errored"
    assert verdicts == expected.verdicts


def test_dispatcher_prefilters_before_launching_workers():
    from repro.runner.dispatch import DistributedCampaignRunner
    from repro.runner.transport import LocalTransport

    circuit = s27()
    faults = all_faults(circuit)
    expected = ProposedSimulator(circuit, s27_patterns()).run(faults)
    simulator = ProposedSimulator(circuit, s27_patterns())
    campaign = DistributedCampaignRunner(
        simulator, ["worker0", "worker1"], LocalTransport()
    ).run(faults)
    assert campaign.verdicts == expected.verdicts
    assert set(simulator._front) == set(faults)

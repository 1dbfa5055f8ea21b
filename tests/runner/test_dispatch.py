"""Lease-based dispatcher tests: bookkeeping units and chaos runs.

The ISSUE acceptance scenario lives here: a two-pseudo-host campaign
with one host killed mid-run must complete via lease reassignment with
verdicts bit-identical to a serial run and zero duplicated fault
indices in the merged journal.  The :class:`LeaseBook` unit tests pin
the idempotency argument (first verdict wins, requeue never duplicates
live work) and poison isolation (a suspect runs alone; dying on that
solo run confirms it); the integration tests run real forked workers
over the local transport.
"""

import json
import os
import shlex
import sys

import pytest

import repro
from repro.chaos.runtime import SCENARIO_ENV
from repro.chaos.scenario import ChaosScenario, InjectionSpec
from repro.errors import DistributedFailed
from repro.runner.dispatch import (
    DispatchConfig,
    DistributedCampaignRunner,
    LeaseBook,
)
from repro.runner.harness import CampaignHarness, HarnessConfig
from repro.runner.journal import record_checksum_ok
from repro.runner.supervisor import SupervisedCampaignRunner
from repro.runner.transport import CommandTransport, LocalTransport

from tests.helpers import s27_faults, s27_simulator


# ----------------------------------------------------------------------
# LeaseBook
# ----------------------------------------------------------------------
def test_grant_chunks_in_order():
    book = LeaseBook(range(10), chunk_size=4, lease_timeout=60.0)
    first = book.grant("alpha", now=0.0)
    second = book.grant("beta", now=0.0)
    assert first.indices == [0, 1, 2, 3]
    assert second.indices == [4, 5, 6, 7]
    assert book.grant("alpha", now=0.0).indices == [8, 9]
    assert book.grant("beta", now=0.0) is None
    assert not book.exhausted
    assert book.remaining() == 10


def test_first_verdict_wins_later_ones_count_as_duplicates():
    book = LeaseBook(range(4), chunk_size=4, lease_timeout=60.0)
    book.grant("alpha", now=0.0)
    assert book.complete(0, "v-alpha", now=1.0) is True
    assert book.complete(0, "v-beta", now=2.0) is False
    assert book.done[0] == "v-alpha"
    assert book.duplicates == 1


def test_expiry_requeues_only_unfinished_indices():
    book = LeaseBook(range(4), chunk_size=4, lease_timeout=10.0)
    lease = book.grant("alpha", now=0.0)
    book.complete(0, "v0", now=1.0)
    # Progress extended the deadline; expiry needs silence past it.
    assert book.expire(now=5.0) == []
    expired = book.expire(now=12.0)
    assert [l.id for l in expired] == [lease.id]
    assert sorted(book.pending) == [1, 2, 3]
    assert book.remaining() == 3


def test_revoke_host_requeues_its_leases():
    book = LeaseBook(range(8), chunk_size=4, lease_timeout=60.0)
    book.grant("alpha", now=0.0)
    kept = book.grant("beta", now=0.0)
    book.revoke_host("alpha")
    assert sorted(book.pending) == [0, 1, 2, 3]
    assert list(book.leases) == [kept.id]


def test_requeue_skips_indices_covered_by_a_live_lease():
    book = LeaseBook(range(4), chunk_size=4, lease_timeout=60.0)
    original = book.grant("alpha", now=0.0)
    copy = book.steal("beta", now=100.0, silence_threshold=50.0)
    assert copy.indices == original.indices
    # The straggler dies; its faults stay with the speculative copy.
    book.revoke_host("alpha")
    assert not book.pending
    assert list(book.leases) == [copy.id]


def test_steal_picks_the_quietest_foreign_lease_once():
    book = LeaseBook(range(8), chunk_size=4, lease_timeout=600.0)
    book.grant("alpha", now=0.0)
    noisy = book.grant("beta", now=0.0)
    book.complete(noisy.indices[0], "v", now=90.0)
    copy = book.steal("gamma", now=100.0, silence_threshold=50.0)
    assert copy.speculative
    assert copy.host == "gamma"
    assert copy.indices == [0, 1, 2, 3]  # alpha's, silent since t=0
    # alpha's lease is now marked stolen and beta's progressed too
    # recently, so there is nothing further to steal yet.
    assert book.steal("gamma", now=120.0, silence_threshold=50.0) is None
    # Once beta goes quiet its lease qualifies -- exactly once.
    second = book.steal("alpha", now=200.0, silence_threshold=50.0)
    assert second.stolen_from == noisy.id
    assert second.indices == noisy.indices[1:]  # the finished fault stays out
    assert book.steal("delta", now=300.0, silence_threshold=50.0) is None


def test_exhausted_when_every_index_has_a_verdict():
    book = LeaseBook(range(2), chunk_size=2, lease_timeout=60.0)
    lease = book.grant("alpha", now=0.0)
    book.complete(0, "v0", now=1.0)
    assert not book.exhausted
    book.complete(1, "v1", now=1.0)
    assert book.exhausted  # even before chunk_done releases the lease
    book.release(lease.id)
    assert book.exhausted


def test_dead_worker_implicates_its_in_flight_fault():
    book = LeaseBook(range(8), chunk_size=4, lease_timeout=60.0)
    lease = book.grant("alpha", now=0.0)
    book.complete(0, "v0", now=1.0, host="alpha")
    assert book.implicate("alpha") is None  # a first death: a suspect
    book.revoke_host("alpha")
    assert list(book.suspects) == [1]
    assert sorted(book.pending) == [2, 3, 4, 5, 6, 7]
    # The suspect is leased alone, ahead of the queue.
    solo = book.grant("beta", now=2.0, usable=["alpha", "beta"])
    assert solo.solo and solo.indices == [1]
    assert lease.id != solo.id
    # Nobody steals a solo run.
    assert book.steal("gamma", now=100.0, silence_threshold=1.0) is None
    # Dying on the solo lease confirms the poison.
    assert book.implicate("beta") == 1
    assert book.implicated[1] == ["alpha", "beta"]
    book.revoke_host("beta")
    book.complete(1, "poison", now=3.0)
    assert book.uncleared() == []


def test_suspect_cleared_by_its_solo_run():
    book = LeaseBook(range(4), chunk_size=4, lease_timeout=60.0)
    book.grant("alpha", now=0.0)
    book.implicate("alpha")
    book.revoke_host("alpha")
    assert book.uncleared() == [0]
    assert not book.exhausted
    solo = book.grant("beta", now=1.0)
    book.complete(0, "v0", now=2.0, host="beta")
    book.release(solo.id)
    assert book.uncleared() == []
    assert sorted(book.grant("beta", now=3.0).indices) == [1, 2, 3]


def test_solo_run_goes_to_another_host_while_one_can_take_it():
    book = LeaseBook(range(8), chunk_size=4, lease_timeout=60.0)
    book.grant("alpha", now=0.0)
    book.implicate("alpha")
    book.revoke_host("alpha")
    # alpha's relaunched worker asks first: beta can still take the
    # suspect, so alpha gets ordinary work and the suspect waits.
    plain = book.grant("alpha", now=1.0, usable=["alpha", "beta"])
    assert not plain.solo and sorted(plain.indices) == [1, 2, 3, 4]
    solo = book.grant("beta", now=1.0, usable=["alpha", "beta"])
    assert solo.solo and solo.indices == [0]


def test_solo_run_falls_back_to_the_same_host_when_no_other_can():
    book = LeaseBook(range(8), chunk_size=4, lease_timeout=60.0)
    book.grant("alpha", now=0.0)
    book.implicate("alpha")
    book.revoke_host("alpha")
    # beta is quarantined or blacklisted: not usable.
    solo = book.grant("alpha", now=1.0, usable=["alpha"])
    assert solo.solo and solo.indices == [0]


def test_hung_worker_is_implicated_after_its_lease_expired():
    book = LeaseBook(range(8), chunk_size=4, lease_timeout=10.0)
    book.grant("alpha", now=0.0)
    book.complete(0, "v0", now=1.0, host="alpha")
    book.expire(now=20.0)
    assert not book.leases and book.owes("alpha")
    assert sorted(book.pending) == [1, 2, 3, 4, 5, 6, 7]
    # alpha is still stuck on fault 1 when it is killed.
    assert book.implicate("alpha") is None
    assert list(book.suspects) == [1]
    assert 1 not in book.pending  # a suspect only ever runs alone
    book.revoke_host("alpha")
    assert not book.owes("alpha")


def test_in_flight_fault_is_the_workers_own_next_one():
    book = LeaseBook(range(4), chunk_size=4, lease_timeout=60.0)
    book.grant("alpha", now=0.0)
    # beta's stolen copy races ahead; alpha is still on fault 0.
    book.steal("beta", now=100.0, silence_threshold=50.0)
    for index in (0, 1, 2):
        book.complete(index, f"v{index}", now=101.0, host="beta")
    lease, index = book.in_flight("alpha")
    assert index == 0
    # Fault 0 already has beta's verdict: nothing to suspect.
    assert book.implicate("alpha") is None
    assert not book.suspects and book.uncleared() == []


def test_steal_leaves_out_implicated_faults():
    book = LeaseBook(range(4), chunk_size=4, lease_timeout=600.0)
    book.grant("alpha", now=0.0)
    # beta's worker died on fault 2 from a copy of alpha's chunk.
    book.implicated[2] = ["beta"]
    copy = book.steal("gamma", now=100.0, silence_threshold=50.0)
    assert copy.indices == [0, 1, 3]  # a suspect only ever runs alone
    # A lease holding nothing but implicated faults is not stolen.
    only = LeaseBook([0], chunk_size=4, lease_timeout=600.0)
    only.grant("alpha", now=0.0)
    only.implicated[0] = ["beta"]
    assert only.steal("gamma", now=100.0, silence_threshold=50.0) is None


def test_chunk_done_settles_the_chunks_granted_before_it():
    book = LeaseBook(range(8), chunk_size=4, lease_timeout=10.0)
    lost = book.grant("alpha", now=0.0)  # its frame never arrived
    book.expire(now=20.0)
    regrant = book.grant("alpha", now=21.0)
    assert [lease.id for lease in book.owed["alpha"]] == [lost.id, regrant.id]
    book.release(regrant.id)
    assert not book.owes("alpha")


def test_chunk_size_must_be_positive():
    with pytest.raises(ValueError, match="chunk_size"):
        LeaseBook(range(4), chunk_size=0, lease_timeout=60.0)


def test_duplicate_hosts_are_rejected():
    with pytest.raises(ValueError, match="duplicate host"):
        DistributedCampaignRunner(
            s27_simulator(), ["alpha", "alpha"], LocalTransport()
        )


# ----------------------------------------------------------------------
# Integration: real forked workers over the local transport
# ----------------------------------------------------------------------
def _verdict_key(verdict):
    fault = verdict.fault
    return (fault.line, fault.stuck_at, fault.pin)


def _signature(campaign):
    return {
        _verdict_key(v): (v.status, v.how, v.num_sequences)
        for v in campaign.verdicts
    }


def _journal_verdict_indices(path):
    indices = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            assert record_checksum_ok(record)
            if record.get("kind") == "verdict":
                indices.append(record["index"])
    return indices


def test_two_hosts_match_serial_exactly(tmp_path):
    faults = s27_faults()
    path = str(tmp_path / "dist.jsonl")
    runner = DistributedCampaignRunner(
        s27_simulator(),
        ["alpha", "beta"],
        LocalTransport(),
        DispatchConfig(checkpoint_path=path),
    )
    campaign = runner.run(faults)
    reference = CampaignHarness(s27_simulator()).run(faults)
    assert _signature(campaign) == _signature(reference)
    assert runner.stats.duplicates == 0
    indices = _journal_verdict_indices(path)
    assert sorted(indices) == list(range(len(faults)))


def test_spawned_command_workers_match_serial_exactly(tmp_path):
    """``--transport command`` workers are fresh ``repro worker``
    processes: the workload ships in ``init`` and each worker rebuilds
    the simulator from it."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    template = (
        f"env PYTHONPATH={shlex.quote(src)} {shlex.quote(sys.executable)} "
        "-m repro worker --host {host}"
    )
    faults = s27_faults()
    path = str(tmp_path / "dist.jsonl")
    runner = DistributedCampaignRunner(
        s27_simulator(),
        ["alpha", "beta"],
        CommandTransport(template),
        DispatchConfig(checkpoint_path=path),
    )
    campaign = runner.run(faults)
    reference = CampaignHarness(s27_simulator()).run(faults)
    assert _signature(campaign) == _signature(reference)
    assert runner.stats.relaunches == 0
    assert sorted(_journal_verdict_indices(path)) == list(range(len(faults)))


def test_host_killed_mid_run_completes_via_lease_reassignment(
    tmp_path, monkeypatch
):
    """The ISSUE acceptance scenario."""
    faults = s27_faults()
    path = str(tmp_path / "dist.jsonl")
    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="kill-beta", seed=0,
        faults=[InjectionSpec(site="worker.chunk_done", action="kill",
                              host="beta", once=True,
                              marker=str(tmp_path / "killed"))],
    ).to_json())
    runner = DistributedCampaignRunner(
        s27_simulator(),
        ["alpha", "beta"],
        LocalTransport(),
        DispatchConfig(checkpoint_path=path, host_blacklist_after=10),
    )
    campaign = runner.run(faults)
    assert os.path.exists(tmp_path / "killed")  # chaos actually fired
    assert runner.stats.relaunches >= 1
    assert runner.stats.host_failures.get("beta", 0) >= 1
    reference = CampaignHarness(s27_simulator()).run(faults)
    assert _signature(campaign) == _signature(reference)
    # Zero duplicated fault indices in the merged journal.
    indices = _journal_verdict_indices(path)
    assert len(indices) == len(set(indices)) == len(faults)


def test_flaky_host_never_turns_an_innocent_fault_into_poison(
    tmp_path, monkeypatch
):
    """Every worker alpha launches dies on its first fault, while beta
    is still busy with a slow chunk.  Each such fault's solo re-run
    waits for beta instead of going to alpha's relaunched worker, and
    gets its real verdict; only alpha takes the blame."""
    faults = s27_faults()
    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="flaky-alpha", seed=0,
        faults=[
            InjectionSpec(site="worker.chunk", action="delay", host="alpha",
                          value=100.0),
            InjectionSpec(site="worker.fault", action="kill", host="alpha"),
            InjectionSpec(site="worker.chunk", action="delay", host="beta",
                          value=500.0, times=None),
        ],
    ).to_json())
    runner = DistributedCampaignRunner(
        s27_simulator(),
        ["alpha", "beta"],
        LocalTransport(),
        DispatchConfig(checkpoint_path=str(tmp_path / "dist.jsonl")),
    )
    campaign = runner.run(faults)
    assert runner.stats.poisoned == []
    assert runner.stats.blacklisted == ["alpha"]
    reference = CampaignHarness(s27_simulator()).run(faults)
    assert _signature(campaign) == _signature(reference)


def test_slow_host_lease_expires_and_work_is_reassigned(
    tmp_path, monkeypatch
):
    faults = s27_faults()
    path = str(tmp_path / "dist.jsonl")
    # beta sits on every chunk for 2 s; the lease times out in 0.5 s.
    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="slow-beta", seed=0,
        faults=[InjectionSpec(site="worker.chunk", action="delay",
                              host="beta", value=2000.0, times=None)],
    ).to_json())
    runner = DistributedCampaignRunner(
        s27_simulator(),
        ["alpha", "beta"],
        LocalTransport(),
        DispatchConfig(
            checkpoint_path=path,
            lease_timeout=0.5,
            host_blacklist_after=100,  # slow is not dead
            # Disable work stealing so recovery must go through lease
            # expiry (a stolen copy's progress would otherwise keep
            # refreshing the straggler's deadline forever).
            min_latency_samples=10**6,
        ),
    )
    campaign = runner.run(faults)
    assert runner.stats.leases_expired >= 1
    reference = CampaignHarness(s27_simulator()).run(faults)
    assert _signature(campaign) == _signature(reference)
    # Late verdicts from the quarantined straggler are deduplicated:
    # the journal still holds exactly one verdict per fault.
    indices = _journal_verdict_indices(path)
    assert len(indices) == len(set(indices)) == len(faults)


def test_all_hosts_unusable_raises_distributed_failed(tmp_path):
    runner = DistributedCampaignRunner(
        s27_simulator(),
        ["alpha", "beta"],
        CommandTransport("/nonexistent/worker --host {host}"),
        DispatchConfig(
            checkpoint_path=str(tmp_path / "dist.jsonl"),
            host_blacklist_after=1,
        ),
    )
    with pytest.raises(DistributedFailed) as excinfo:
        runner.run(s27_faults())
    assert excinfo.value.completed == 0
    assert excinfo.value.remaining == len(s27_faults())
    assert sorted(excinfo.value.blacklisted) == ["alpha", "beta"]


def test_distributed_resume_reuses_a_local_journal(tmp_path):
    """A serial journal resumes distributed: same format, same dedup."""
    faults = s27_faults()
    path = str(tmp_path / "shared.jsonl")
    # A serial run writes the first half of the campaign.
    harness = CampaignHarness(
        s27_simulator(),
        HarnessConfig(checkpoint_path=path, handle_sigint=False),
    )
    harness.run(faults[:16])
    # Rewrite the manifest for the full fault list by replaying the
    # verdict records into a fresh full-campaign journal.
    from repro.runner.harness import simulator_manifest
    from repro.runner.journal import CampaignJournal, verdict_to_record

    _, half = CampaignJournal(path).load()
    full_path = str(tmp_path / "full.jsonl")
    journal = CampaignJournal(full_path)
    journal.create(simulator_manifest(s27_simulator(), faults))
    for index, verdict in half.items():
        journal.append(verdict_to_record(index, verdict))
    journal.flush()

    runner = DistributedCampaignRunner(
        s27_simulator(),
        ["alpha"],
        LocalTransport(),
        DispatchConfig(checkpoint_path=full_path, resume=True),
    )
    campaign = runner.run(faults)
    assert runner.stats.reused == 16
    assert runner.stats.simulated == len(faults) - 16
    reference = CampaignHarness(s27_simulator()).run(faults)
    assert _signature(campaign) == _signature(reference)


# ----------------------------------------------------------------------
# Under the supervisor: dispatch, then serial
# ----------------------------------------------------------------------
def test_supervisor_runs_distributed_when_hosts_are_given(tmp_path):
    faults = s27_faults()
    runner = SupervisedCampaignRunner(
        s27_simulator(),
        ["alpha", "beta"],
        config=DispatchConfig(checkpoint_path=str(tmp_path / "dist.jsonl")),
    )
    campaign = runner.run(faults)
    assert runner.stats.dispatch.hosts == 2
    assert not runner.stats.degraded
    reference = CampaignHarness(s27_simulator()).run(faults)
    assert _signature(campaign) == _signature(reference)


def test_supervisor_degrades_to_local_when_distribution_fails(tmp_path):
    faults = s27_faults()
    runner = SupervisedCampaignRunner(
        s27_simulator(),
        ["alpha", "beta"],
        CommandTransport("/nonexistent/worker --host {host}"),
        DispatchConfig(checkpoint_path=str(tmp_path / "dist.jsonl")),
    )
    campaign = runner.run(faults)
    assert runner.stats.degraded
    assert sorted(runner.stats.dispatch.blacklisted) == ["alpha", "beta"]
    reference = CampaignHarness(s27_simulator()).run(faults)
    assert _signature(campaign) == _signature(reference)

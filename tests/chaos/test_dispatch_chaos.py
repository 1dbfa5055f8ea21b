"""Dispatcher behavior the chaos plane leans on: first-write-wins
deduplication under late/duplicated verdicts, requeueing releases,
handshake retry, and the quarantine starvation guard.

The end-to-end test runs a real distributed campaign under a
duplicate/reorder transport scenario and asserts the full invariant
set -- the CSV and the merged metrics must be indistinguishable from a
quiet serial run.
"""

import pytest

from repro.chaos import ChaosScenario, InjectionSpec
from repro.chaos.campaign import run_scenario
from repro.mot.simulator import FaultVerdict
from repro.runner.dispatch import (
    DispatchConfig,
    DistributedCampaignRunner,
    LeaseBook,
)
from repro.runner.transport import Transport, WorkloadSpec

from tests.helpers import s27_faults, s27_simulator


def _verdict(index, status="conv"):
    return FaultVerdict(s27_faults()[index], status)


def _book(n=8, chunk_size=4, lease_timeout=10.0):
    return LeaseBook(range(n), chunk_size, lease_timeout)


# ----------------------------------------------------------------------
# First-write-wins under late duplicates (satellite: reordered transport)
# ----------------------------------------------------------------------
def test_first_verdict_wins_duplicate_counted():
    book = _book()
    book.grant("alpha", now=0.0)
    first = _verdict(0, "conv")
    assert book.complete(0, first, now=1.0)
    assert not book.complete(0, _verdict(0, "undetected"), now=2.0)
    assert book.done[0] is first
    assert book.duplicates == 1


def test_late_duplicate_after_chunk_done_changes_nothing():
    book = _book(n=4)
    lease = book.grant("alpha", now=0.0)
    for index in lease.indices:
        assert book.complete(index, _verdict(index), now=1.0)
    book.release(lease.id)  # the worker's chunk_done arrived
    before = dict(book.done)
    # A reordered transport now delivers the same verdicts again.
    for index in lease.indices:
        assert not book.complete(index, _verdict(index, "undetected"),
                                 now=2.0)
    assert book.done == before
    assert not book.pending  # nothing was requeued by the duplicates
    assert book.duplicates == 4


def test_late_verdict_after_lease_reassignment_is_dropped():
    book = _book(n=4, lease_timeout=5.0)
    stale = book.grant("alpha", now=0.0)
    assert book.expire(now=10.0) == [stale]  # alpha went silent
    fresh = book.grant("beta", now=10.0)
    assert sorted(fresh.indices) == sorted(stale.indices)  # reassigned
    winner = _verdict(0, "conv")
    assert book.complete(0, winner, now=11.0)
    # alpha was merely slow: its late verdict for index 0 lands now.
    assert not book.complete(0, _verdict(0, "mot"), now=12.0)
    assert book.done[0] is winner
    assert book.duplicates == 1


def test_release_requeues_unfinished_indices():
    book = _book(n=4)
    lease = book.grant("alpha", now=0.0)
    book.complete(0, _verdict(0), now=1.0)
    book.complete(1, _verdict(1), now=1.0)
    # chunk_done arrived but the verdict frames for 2 and 3 were
    # dropped in flight: releasing must put them back in the queue.
    book.release(lease.id)
    assert sorted(book.pending) == [2, 3]
    assert not book.exhausted


def test_release_is_idempotent():
    book = _book(n=4)
    lease = book.grant("alpha", now=0.0)
    assert book.release(lease.id) is lease
    assert book.release(lease.id) is None
    assert sorted(book.pending) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Handshake timeout: one backoff retry, then a host strike
# ----------------------------------------------------------------------
class _SilentTransport(Transport):
    """Launches handles that never speak (a hung worker)."""

    kind = "silent"
    handshake_timeout = 1.0

    class _Handle:
        process = None

        def __init__(self, host):
            self.host = host

        def send(self, message):
            pass

        def recv(self, timeout=0.0):
            return None

        def alive(self):
            return True

        def close(self, timeout=5.0):
            return 0

    def launch(self, host, simulator):
        return self._Handle(host)


@pytest.fixture
def silent_runner():
    simulator = s27_simulator()
    runner = DistributedCampaignRunner(
        simulator,
        ["alpha"],
        _SilentTransport(),
        DispatchConfig(start_timeout=60.0),
    )
    runner._workload = WorkloadSpec.from_simulator(simulator)
    return runner


def test_handshake_timeout_retries_once_with_backoff(silent_runner):
    runner = silent_runner
    host = runner.hosts[0]
    runner._launch_down_hosts(now=0.0)
    assert host.state == "starting"
    # Deadline is min(start_timeout, transport.handshake_timeout) = 1s:
    # under it nothing happens, past it the first miss is a retry.
    runner._check_handshakes(now=0.5)
    assert host.state == "starting"
    runner._check_handshakes(now=2.0)
    assert host.state == "down"
    assert host.handshake_retries == 1
    assert host.relaunch_at > 2.0  # backoff before the relaunch
    assert host.failures == 0  # a retry is not a strike
    assert runner.stats.relaunches == 1


def test_handshake_timeout_past_the_retry_is_a_strike(silent_runner):
    runner = silent_runner
    host = runner.hosts[0]
    runner._launch_down_hosts(now=0.0)
    runner._check_handshakes(now=2.0)  # retry
    runner._launch_down_hosts(now=10.0)  # past relaunch_at
    assert host.state == "starting"
    runner._check_handshakes(now=12.0)
    assert host.failures == 1
    assert host.handshake_retries == 0  # reset for the next cycle
    assert runner.stats.host_failures == {"alpha": 1}


def test_relaunch_waits_for_the_backoff(silent_runner):
    runner = silent_runner
    host = runner.hosts[0]
    runner._launch_down_hosts(now=0.0)
    runner._check_handshakes(now=2.0)
    assert host.handle is None  # the hung worker was closed
    runner._launch_down_hosts(now=2.0)  # still inside the backoff
    assert host.state == "down" and host.handle is None
    runner._launch_down_hosts(now=host.relaunch_at + 0.01)
    assert host.state == "starting"


# ----------------------------------------------------------------------
# Quarantine starvation guard
# ----------------------------------------------------------------------
def _manual_runner(states):
    runner = DistributedCampaignRunner(
        s27_simulator(),
        [f"h{i}" for i in range(len(states))],
        _SilentTransport(),
        DispatchConfig(),
    )
    runner._faults = s27_faults()
    for host, state in zip(runner.hosts, states):
        host.state = state
        host.handle = _SilentTransport._Handle(host.name)
        host.handle.sent = []
        host.handle.send = host.handle.sent.append
    return runner


def test_quarantined_hosts_get_work_when_nobody_is_ready():
    runner = _manual_runner(["quarantined"])
    book = _book(n=4)
    runner._book = book
    runner._grant_work(book, now=0.0)
    (host,) = runner.hosts
    assert host.state == "busy"
    assert [m["type"] for m in host.handle.sent] == ["chunk"]


def test_quarantined_hosts_wait_while_a_ready_host_exists():
    runner = _manual_runner(["ready", "quarantined"])
    book = _book(n=4)  # one chunk of work: the ready host takes it all
    runner._book = book
    runner._grant_work(book, now=0.0)
    ready, quarantined = runner.hosts
    assert ready.state == "busy"
    assert quarantined.state == "quarantined"
    assert quarantined.handle.sent == []


# ----------------------------------------------------------------------
# End to end: duplicates and reordering leave no trace in the results
# ----------------------------------------------------------------------
def test_reordered_duplicated_transport_preserves_csv_and_metrics(tmp_path):
    scenario = ChaosScenario(
        name="dedup-e2e",
        seed=3,
        faults=[
            InjectionSpec(site="transport.recv", action="duplicate",
                          kind="verdict", times=3),
            InjectionSpec(site="transport.recv", action="reorder",
                          kind="verdict", times=2),
        ],
        workload={"hosts": ["alpha", "beta"], "chunk_size": 4},
    )
    result = run_scenario(scenario, str(tmp_path / "run"))
    assert result.error is None
    assert result.ok, result.render()
    # The injections really happened and the dispatcher really deduped.
    assert result.injections >= 5
    assert result.stats.duplicates >= 1
    by_name = {check.name: check for check in result.report.checks}
    assert by_name["csv-identical"].ok
    assert not by_name["csv-identical"].skipped
    assert by_name["metrics-consistent"].ok
    assert by_name["no-duplicates"].ok

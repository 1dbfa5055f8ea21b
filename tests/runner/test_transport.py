"""Worker-protocol tests: workload shipping and the worker loop.

The transport layer's correctness argument has two halves: a
:class:`WorkloadSpec` must rebuild the parent's simulator *exactly*
(same circuit line ids, same config) on the worker side, and
``worker_main`` must speak protocol v1 faithfully -- including refusing
malformed traffic with an ``error`` message rather than garbage.
Everything here runs the real worker loop over in-memory pipes; no
worker processes are involved (those are covered by the dispatch tests).
"""

import io
import json

import pytest

from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.runner.budget import FaultBudget
from repro.runner.harness import simulate_fault_once
from repro.runner.journal import fault_to_payload, verdict_to_record
from repro.runner.transport import (
    PROTOCOL_VERSION,
    CommandTransport,
    LocalTransport,
    WorkloadSpec,
    make_transport,
    worker_main,
)

from tests.helpers import s27_faults, s27_simulator, toggle_circuit


# ----------------------------------------------------------------------
# WorkloadSpec
# ----------------------------------------------------------------------
def test_workload_ships_registered_circuit_by_name():
    spec = WorkloadSpec.from_simulator(s27_simulator())
    assert spec.circuit_kind == "registered"
    assert spec.circuit_name == "s27"
    assert spec.circuit_text is None


def test_workload_round_trip_rebuilds_identical_simulator():
    simulator = s27_simulator()
    payload = WorkloadSpec.from_simulator(simulator).to_payload()
    # The payload must survive JSON -- that is how it ships.
    rebuilt = WorkloadSpec.from_payload(
        json.loads(json.dumps(payload))
    ).build_simulator()
    assert type(rebuilt) is type(simulator)
    assert rebuilt.circuit.line_names == simulator.circuit.line_names
    assert rebuilt.patterns == simulator.patterns
    assert rebuilt.config == simulator.config
    for fault in s27_faults()[:4]:
        ours = simulate_fault_once(simulator, fault)
        theirs = simulate_fault_once(rebuilt, fault)
        assert (ours.status, ours.how) == (theirs.status, theirs.how)


def test_workload_falls_back_to_bench_text():
    circuit = toggle_circuit()  # not in the registry
    simulator = ProposedSimulator(circuit, [[0], [1], [1], [0]])
    spec = WorkloadSpec.from_simulator(simulator)
    assert spec.circuit_kind == "bench"
    assert "DFF" in (spec.circuit_text or "")
    rebuilt = WorkloadSpec.from_payload(spec.to_payload()).build_simulator()
    assert rebuilt.circuit.line_names == circuit.line_names


def test_workload_rejects_unknown_simulator():
    class HomeGrownSimulator:
        pass

    with pytest.raises(ValueError, match="cannot ship simulator"):
        WorkloadSpec.from_simulator(HomeGrownSimulator())


def test_workload_payload_rejects_unknown_kind():
    spec = WorkloadSpec.from_simulator(s27_simulator())
    payload = spec.to_payload()
    payload["simulator_kind"] = "EvilSimulator"
    with pytest.raises(ValueError, match="unknown simulator_kind"):
        WorkloadSpec.from_payload(payload)


def test_workload_drops_unknown_config_fields():
    payload = WorkloadSpec.from_simulator(s27_simulator()).to_payload()
    payload["simulator_config"]["from_the_future"] = 42
    rebuilt = WorkloadSpec.from_payload(payload).build_simulator()
    assert isinstance(rebuilt.config, MotConfig)


# ----------------------------------------------------------------------
# Transport construction
# ----------------------------------------------------------------------
def test_make_transport_local():
    transport = make_transport("local")
    assert isinstance(transport, LocalTransport)
    assert not transport.ships_workload  # forked workers inherit it


def test_make_transport_command_requires_template():
    with pytest.raises(ValueError, match="command-template"):
        make_transport("command")
    transport = make_transport("command", "run {host}")
    assert isinstance(transport, CommandTransport)


def test_make_transport_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown transport"):
        make_transport("carrier-pigeon")


def test_command_transport_requires_host_placeholder():
    with pytest.raises(ValueError, match="placeholder"):
        CommandTransport("ssh somewhere repro worker")


# ----------------------------------------------------------------------
# worker_main over in-memory pipes
# ----------------------------------------------------------------------
def _run_worker(messages, host="test"):
    """Feed *messages* to ``worker_main``; return (exit code, replies)."""
    stdin = io.StringIO(
        "".join(json.dumps(m) + "\n" for m in messages)
    )
    stdout = io.StringIO()
    code = worker_main(host, stdin=stdin, stdout=stdout)
    replies = [
        json.loads(line)
        for line in stdout.getvalue().splitlines()
        if line.strip()
    ]
    return code, replies


def _init_message(simulator=None, **overrides):
    message = {
        "type": "init",
        "protocol": PROTOCOL_VERSION,
        "workload": WorkloadSpec.from_simulator(
            simulator or s27_simulator()
        ).to_payload(),
        "budget": None,
        "metrics": False,
    }
    message.update(overrides)
    return message


def test_worker_serves_a_chunk_and_says_bye():
    simulator = s27_simulator()
    faults = s27_faults()
    indices = [3, 7, 11]
    code, replies = _run_worker([
        _init_message(simulator),
        {
            "type": "chunk",
            "lease": 1,
            "indices": indices,
            "faults": [fault_to_payload(faults[i]) for i in indices],
        },
        {"type": "shutdown"},
    ])
    assert code == 0
    assert replies[0]["type"] == "ready"
    assert replies[0]["protocol"] == PROTOCOL_VERSION
    verdicts = [r for r in replies if r["type"] == "verdict"]
    assert [v["record"]["index"] for v in verdicts] == indices
    # The streamed records match a local simulation bit for bit.
    for reply, index in zip(verdicts, indices):
        expected = verdict_to_record(
            index, simulate_fault_once(s27_simulator(), faults[index])
        )
        assert reply["record"] == expected
    done = [r for r in replies if r["type"] == "chunk_done"]
    assert len(done) == 1 and done[0]["count"] == len(indices)
    assert replies[-1]["type"] == "bye"
    assert replies[-1]["chunks"] == 1


def test_worker_honors_budget():
    code, replies = _run_worker([
        _init_message(budget=vars(FaultBudget(max_events=1))),
        {
            "type": "chunk",
            "lease": 1,
            "indices": [0],
            "faults": [fault_to_payload(s27_faults()[0])],
        },
        {"type": "shutdown"},
    ])
    assert code == 0
    verdict = next(r for r in replies if r["type"] == "verdict")
    assert verdict["record"]["status"] == "aborted"
    assert verdict["record"]["how"] == "budget"


def test_worker_rejects_protocol_mismatch():
    code, replies = _run_worker([_init_message(protocol=99)])
    assert code == 1
    assert replies[-1]["type"] == "error"
    assert "protocol mismatch" in replies[-1]["detail"]


def test_worker_rejects_non_init_opening():
    code, replies = _run_worker([{"type": "chunk"}])
    assert code == 1
    assert "expected init" in replies[-1]["detail"]


def test_worker_rejects_unbuildable_workload():
    message = _init_message()
    message["workload"]["circuit_kind"] = "hologram"
    code, replies = _run_worker([message])
    assert code == 1
    assert "cannot build workload" in replies[-1]["detail"]


def test_worker_rejects_mismatched_chunk():
    code, replies = _run_worker([
        _init_message(),
        {"type": "chunk", "lease": 1, "indices": [0, 1], "faults": []},
    ])
    assert code == 1
    assert "2 indices for 0 faults" in replies[-1]["detail"]


def test_worker_rejects_malformed_line():
    stdin = io.StringIO("this is not json\n")
    stdout = io.StringIO()
    assert worker_main("test", stdin=stdin, stdout=stdout) == 1
    reply = json.loads(stdout.getvalue().splitlines()[-1])
    assert reply["type"] == "error"
    assert "malformed init" in reply["detail"]


def test_worker_exits_quietly_when_parent_vanishes():
    # EOF before init: no error message (nobody is listening), code 1.
    code, replies = _run_worker([])
    assert code == 1
    assert replies == []


def test_bench_workload_survives_the_worker_loop():
    """A non-registry circuit round-trips through the full protocol."""
    from repro.faults.collapse import collapse_faults

    circuit = toggle_circuit()
    simulator = ProposedSimulator(circuit, [[0], [1], [1], [0]])
    faults = collapse_faults(circuit)
    code, replies = _run_worker([
        _init_message(simulator),
        {
            "type": "chunk",
            "lease": 1,
            "indices": list(range(len(faults))),
            "faults": [fault_to_payload(f) for f in faults],
        },
        {"type": "shutdown"},
    ])
    assert code == 0
    verdicts = [r for r in replies if r["type"] == "verdict"]
    assert len(verdicts) == len(faults)
    fresh = ProposedSimulator(toggle_circuit(), [[0], [1], [1], [0]])
    for reply in verdicts:
        index = reply["record"]["index"]
        expected = verdict_to_record(
            index, simulate_fault_once(fresh, faults[index])
        )
        assert reply["record"] == expected

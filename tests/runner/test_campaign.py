"""The programmatic campaign entrypoint shared by the CLI and the
job service: spec validation, payload round-trips, result identity
with a direct harness run, cooperative cancellation."""

import threading
import weakref

import pytest

from repro.errors import CampaignInterrupted
from repro.faults.collapse import collapse_faults
from repro.mot.simulator import ProposedSimulator
from repro.patterns.random_gen import random_patterns
from repro.reporting.campaign import campaign_csv
from repro.runner.campaign import CampaignSpec, SpecError, run_campaign
from repro.runner.harness import CampaignHarness, HarnessConfig

from tests.helpers import TOGGLE_BENCH

S27 = dict(circuit="s27", length=16, seed=1, n_states=16, n_references=4)


# ------------------------------------------------------------ validation
def test_spec_requires_exactly_one_source():
    with pytest.raises(SpecError):
        CampaignSpec().validate()
    with pytest.raises(SpecError):
        CampaignSpec(circuit="s27", bench_path="x.bench").validate()
    CampaignSpec(circuit="s27").validate()
    CampaignSpec(bench_text=TOGGLE_BENCH).validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("kind", "bogus"),
        ("engine", "bogus"),
        ("engine", "interp"),
        ("transport", "bogus"),
        ("length", 0),
        ("n_states", 0),
        ("workers", 0),
        ("lease_timeout", 0.0),
        ("implication_mode", "twopass"),
        ("backward_depth", 0),
    ],
)
def test_spec_rejects_bad_values(field, value):
    with pytest.raises(SpecError):
        CampaignSpec(circuit="s27", **{field: value}).validate()


def test_spec_rejects_workers_with_hosts():
    with pytest.raises(SpecError, match="exclusive"):
        CampaignSpec(circuit="s27", workers=2, hosts=("a", "b")).validate()
    CampaignSpec(circuit="s27", workers=1, hosts=("a", "b")).validate()


def test_spec_resume_requires_checkpoint():
    with pytest.raises(SpecError):
        CampaignSpec(circuit="s27", resume=True).validate()


def test_spec_fsim_rejects_hosts():
    """fsim runs in one process on the kernel: hosts or a worker count
    would be silently ignored, and the serial engine value is gone."""
    for bad in ({"hosts": ("a",)}, {"workers": 4}, {"engine": "serial"}):
        with pytest.raises(SpecError):
            CampaignSpec(circuit="s27", kind="fsim", **bad).validate()


def test_unknown_circuit_is_spec_error():
    with pytest.raises(SpecError):
        CampaignSpec(circuit="never-registered").build_circuit()


# ---------------------------------------------------------- payload I/O
def test_payload_round_trip():
    spec = CampaignSpec(
        circuit="s27", kind="baseline", hosts=("a", "b"), budget_ms=500,
        stall_timeout=2.5,
    )
    clone = CampaignSpec.from_payload(spec.to_payload())
    assert clone == spec
    workers = CampaignSpec(circuit="s27", workers=2)
    assert CampaignSpec.from_payload(workers.to_payload()) == workers


def test_from_payload_ignores_unknown_keys_and_coerces_hosts():
    spec = CampaignSpec.from_payload(
        {"circuit": "s27", "hosts": ["a"], "someday": True}
    )
    assert spec.hosts == ("a",)
    assert CampaignSpec.from_payload(
        {"circuit": "s27", "hosts": "a, b"}
    ).hosts == ("a", " b")


def test_from_payload_accepts_retired_executor_keys():
    """Payloads from older clients still carry the static-shard and
    retry knobs; they are dropped like any unknown key."""
    spec = CampaignSpec.from_payload({
        "circuit": "s27", "workers": 2, "shard_strategy": "size_aware",
        "max_retries": 3, "heartbeat_interval": 0.5, "no_supervise": True,
    })
    assert spec.workers == 2


def test_from_payload_accepts_stored_learning_key():
    """Job payloads queued before the static learning pass was removed
    carry ``"learning": false``; they still rebuild to the same spec."""
    spec = CampaignSpec(
        circuit="s27", length=16, seed=1, implication_mode="two_pass",
        backward_depth=2,
    )
    stored = {**spec.to_payload(), "learning": False}
    assert CampaignSpec.from_payload(stored) == spec


def test_from_payload_validates():
    with pytest.raises(SpecError):
        CampaignSpec.from_payload({"circuit": "s27", "kind": "bogus"})


#: Mistyped payloads the HTTP API must answer with a 400, not a crash.
MISTYPED = [
    {"circuit": ["not", "a", "string"]},
    {"workers": "2"},
    {"workers": 2.5},
    {"workers": True},
    {"length": "16"},
    {"seed": None},
    {"resume": "yes"},
    {"budget_ms": "fast"},
    {"lease_timeout": False},
    {"engine": 7},
    {"hosts": 5},
    {"hosts": [1, 2]},
    {"hosts": ["a", ""]},
    {"hosts": {"a": 1}},
]


def test_from_payload_rejects_wrong_types():
    for bad in MISTYPED:
        with pytest.raises(SpecError):
            CampaignSpec.from_payload({"circuit": "s27", **bad})


def test_numeric_fields_accept_ints_for_floats():
    spec = CampaignSpec.from_payload(
        {"circuit": "s27", "lease_timeout": 5, "budget_ms": 250}
    )
    assert spec.lease_timeout == 5


# ----------------------------------------------------- result identity
def test_run_campaign_matches_direct_harness():
    """The entrypoint must replicate a hand-built serial campaign
    verbatim -- the byte-identity guarantee of service results."""
    result = run_campaign(CampaignSpec(**S27))
    from repro.circuits.library import s27 as build_s27
    from repro.mot.simulator import MotConfig

    circuit = build_s27()
    simulator = ProposedSimulator(
        circuit,
        random_patterns(circuit.num_inputs, 16, seed=1),
        MotConfig(n_states=16),
    )
    harness = CampaignHarness(simulator, HarnessConfig(handle_sigint=False))
    direct = harness.run(collapse_faults(circuit))
    assert campaign_csv(result.campaign, result.circuit) == campaign_csv(
        direct, circuit
    )


def test_run_campaign_fsim():
    result = run_campaign(
        CampaignSpec(circuit="s27", kind="fsim", length=16, seed=1)
    )
    assert result.kind == "fsim"
    assert result.campaign.total == 32
    assert 0 < result.campaign.detected <= 32


def test_run_campaign_bench_text_source():
    result = run_campaign(
        CampaignSpec(bench_text=TOGGLE_BENCH, length=8, n_states=8,
                     n_references=2)
    )
    assert result.circuit.name == "uploaded"
    assert result.campaign.total > 0


def test_a_dropped_result_frees_its_circuit_at_once(gc_disabled):
    """A finished campaign leaves no reference cycle: its netlist, fault
    list and classes go with the result, without a cyclic collection."""
    result = run_campaign(CampaignSpec(**S27))
    alive = weakref.ref(result.circuit)
    del result
    assert alive() is None


# --------------------------------------------------------- cancellation
def test_run_campaign_cancel_event_pre_set():
    cancel = threading.Event()
    cancel.set()
    with pytest.raises(CampaignInterrupted):
        run_campaign(CampaignSpec(**S27), cancel_event=cancel)


def test_run_campaign_cancel_event_supervised(tmp_path):
    cancel = threading.Event()
    cancel.set()
    journal = tmp_path / "j.jsonl"
    with pytest.raises(CampaignInterrupted) as excinfo:
        run_campaign(
            CampaignSpec(workers=2, checkpoint_path=str(journal), **S27),
            cancel_event=cancel,
        )
    assert excinfo.value.journal_path == str(journal)
    assert journal.exists()  # flushed, resumable


def test_run_campaign_writes_progress_beacon(tmp_path):
    import json

    beacon = tmp_path / "progress"
    result = run_campaign(
        CampaignSpec(progress_path=str(beacon), **S27)
    )
    payload = json.loads(beacon.read_text())
    assert payload["completed"] == result.campaign.total
    assert payload["in_flight"] is None

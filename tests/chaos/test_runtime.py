"""Ambient plan resolution and hook behavior."""

from repro.chaos import ChaosPlan, ChaosScenario, InjectionSpec
from repro.chaos.runtime import (
    SCENARIO_ENV,
    chaos_fault,
    chaos_journal_read,
    chaos_now,
    current_plan,
    install_plan,
    uninstall_plan,
    wrap_handle,
)


def test_no_configuration_means_no_plan():
    assert current_plan() is None
    assert chaos_fault(0) is None  # cheap no-op, never raises


def test_installed_plan_wins_over_environment(monkeypatch):
    env_scenario = ChaosScenario(name="from-env", seed=1, faults=[
        InjectionSpec(site="transport.send", action="drop"),
    ])
    monkeypatch.setenv(SCENARIO_ENV, env_scenario.to_json())
    installed = ChaosPlan(ChaosScenario(name="installed", seed=2))
    previous = install_plan(installed)
    try:
        assert current_plan() is installed
    finally:
        install_plan(previous)
    assert current_plan().scenario.name == "from-env"


def test_scenario_env_accepts_inline_json_and_file(monkeypatch, tmp_path):
    scenario = ChaosScenario(name="inline", seed=3, faults=[
        InjectionSpec(site="journal.write", action="torn"),
    ])
    monkeypatch.setenv(SCENARIO_ENV, scenario.to_json())
    assert current_plan().scenario.name == "inline"

    path = tmp_path / "scenario.json"
    path.write_text(scenario.with_seed(4).to_json() + "\n")
    monkeypatch.setenv(SCENARIO_ENV, str(path))
    plan = current_plan()
    assert plan.scenario.seed == 4


def test_malformed_scenario_env_disarms(monkeypatch):
    monkeypatch.setenv(SCENARIO_ENV, "{not json")
    assert current_plan() is None


def test_env_plan_cached_until_environment_changes(monkeypatch):
    scenario = ChaosScenario(name="cache", seed=0, faults=[
        InjectionSpec(site="journal.write", action="eio"),
    ])
    monkeypatch.setenv(SCENARIO_ENV, scenario.to_json())
    first = current_plan()
    assert current_plan() is first  # same fingerprint, same plan object
    monkeypatch.setenv(SCENARIO_ENV, scenario.with_seed(9).to_json())
    assert current_plan() is not first


def test_uninstall_restores_environment_fallback(monkeypatch):
    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="env", seed=0,
        faults=[InjectionSpec(site="journal.write", action="eio")],
    ).to_json())
    install_plan(ChaosPlan(ChaosScenario(name="x", seed=0)))
    uninstall_plan()
    assert current_plan().scenario.name == "env"


# ----------------------------------------------------------------------
# Hook helpers
# ----------------------------------------------------------------------
def test_chaos_now_tracks_monotonic_without_a_plan():
    import time

    before = time.monotonic()
    now = chaos_now()
    assert now >= before


def test_chaos_fault_host_filter(monkeypatch):
    scenario = ChaosScenario(name="hf", seed=0, faults=[
        InjectionSpec(site="worker.fault", action="delay", host="beta",
                      value=0.0, times=None),
    ])
    install_plan(ChaosPlan(scenario))
    try:
        assert chaos_fault(1, "alpha") is None
        assert chaos_fault(1, "beta") is None  # delay of 0 ms, no flag
        plan = current_plan()
        assert [e.scope for e in plan.events()] == ["beta"]
    finally:
        uninstall_plan()


def test_chaos_journal_read_flips_one_record_never_the_manifest():
    scenario = ChaosScenario(name="flip", seed=0, faults=[
        InjectionSpec(site="journal.read", action="bit_flip"),
    ])
    install_plan(ChaosPlan(scenario))
    try:
        lines = ["manifest", "record-a", "record-b", "record-c"]
        mutated = chaos_journal_read("/j", list(lines))
        assert mutated[0] == "manifest"
        assert sum(a != b for a, b in zip(lines, mutated)) == 1
    finally:
        uninstall_plan()


def test_wrap_handle_passthrough_without_transport_sites():
    handle = object()
    assert wrap_handle(handle) is handle
    install_plan(ChaosPlan(ChaosScenario(name="t", seed=0, faults=[
        InjectionSpec(site="transport.send", action="drop"),
    ])))
    try:
        from repro.chaos.inject import ChaosWorkerHandle

        class Inner:
            host = "h"

        wrapped = wrap_handle(Inner())
        assert isinstance(wrapped, ChaosWorkerHandle)
    finally:
        uninstall_plan()

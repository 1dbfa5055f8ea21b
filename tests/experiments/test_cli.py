"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def _argparse_exit(argv):
    """Run *argv*, asserting argparse rejected it (SystemExit, code 2)."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_stats_runs(capsys):
    assert main(["stats", "s27", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "s27" in out and "fig4" in out


def test_stats_unknown_circuit(capsys):
    assert main(["stats", "sNOPE"]) == 1
    err = capsys.readouterr().err
    assert "sNOPE" in err


def test_fsim_registered_circuit(capsys):
    assert main(["fsim", "--circuit", "s27", "--length", "16", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "detected conventionally" in out


def test_fsim_external_bench(tmp_path, capsys):
    from repro.circuits.library import S27_BENCH

    path = tmp_path / "c.bench"
    path.write_text(S27_BENCH)
    assert main(["fsim", "--bench", str(path), "--length", "8"]) == 0
    assert "faults" in capsys.readouterr().out


def test_mot_proposed(capsys):
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--list-mot"]
    ) == 0
    out = capsys.readouterr().out
    assert "proposed procedure" in out
    assert "counters" in out


def test_mot_baseline(capsys):
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--baseline"]
    ) == 0
    assert "[4] baseline" in capsys.readouterr().out


def test_mot_two_pass_and_depth(capsys):
    assert main(
        ["mot", "--circuit", "s27", "--length", "8",
         "--implication-mode", "two_pass", "--depth", "2"]
    ) == 0


def test_table2_subset(capsys):
    assert main(["table2", "s27", "--fault-cap", "20"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_table3_subset(capsys):
    assert main(["table3", "s27", "--fault-cap", "20"]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_figures(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out and "Figure 4" in out


def test_hitec_quick(capsys):
    assert main(
        ["hitec", "--circuit", "s208_like", "--length", "8",
         "--fault-cap", "30", "--seed", "2"]
    ) == 0
    assert "Deterministic-sequence" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_mot_requires_circuit_or_bench():
    with pytest.raises(SystemExit):
        main(["mot", "--length", "8"])


def test_mot_unrestricted(capsys):
    assert main(
        ["mot", "--circuit", "s27", "--length", "12", "--unrestricted",
         "--n-references", "4"]
    ) == 0
    assert "unrestricted MOT" in capsys.readouterr().out


def test_witness_detected_fault(capsys):
    assert main(
        ["witness", "--circuit", "s27", "--length", "24", "--seed", "3",
         "--fault", "G8/1"]
    ) == 0
    out = capsys.readouterr().out
    assert "detection witness" in out
    assert "verified by exhaustive replay: True" in out


def test_witness_verified_beyond_sixteen_flops(capsys):
    """s298_like has 18 flip-flops, within the enumeration cap."""
    assert main(
        ["witness", "--circuit", "s298_like", "--length", "48", "--seed", "2",
         "--fault", "walk/1"]
    ) == 0
    assert "verified by exhaustive replay: True" in capsys.readouterr().out


def test_witness_undetected_fault(capsys):
    assert main(
        ["witness", "--circuit", "s27", "--length", "8", "--seed", "0",
         "--fault", "G14/1"]
    ) == 1


def test_witness_bad_fault_name(capsys):
    assert main(
        ["witness", "--circuit", "s27", "--length", "8",
         "--fault", "NOPE/0"]
    ) == 1


def test_hitec_podem_method(capsys):
    assert main(
        ["hitec", "--circuit", "s208_like", "--length", "8",
         "--fault-cap", "30", "--seed", "2", "--method", "podem"]
    ) == 0


def test_mot_report_flag(capsys):
    assert main(
        ["mot", "--circuit", "s27", "--length", "12", "--report"]
    ) == 0
    assert "fault coverage" in capsys.readouterr().out


def test_mot_csv_flag(tmp_path, capsys):
    target = tmp_path / "verdicts.csv"
    assert main(
        ["mot", "--circuit", "s27", "--length", "12", "--csv", str(target)]
    ) == 0
    assert target.exists()
    assert "fault,status" in target.read_text()


def test_mot_budget_flag_reports_aborts(capsys):
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--budget-events", "2", "--report"]
    ) == 0
    out = capsys.readouterr().out
    assert "aborted (budget)" in out


def test_mot_checkpoint_and_resume(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    base = ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
            "--checkpoint", str(journal)]
    assert main(base) == 0
    capsys.readouterr()
    first_lines = journal.read_text().splitlines()
    assert len(first_lines) > 1  # manifest + verdicts

    assert main(base + ["--resume"]) == 0
    # Progress lines go through the logger (stderr); results stay on
    # stdout.
    err = capsys.readouterr().err
    assert "verdicts reused, 0 simulated" in err


def test_mot_resume_refuses_mismatched_journal(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--checkpoint", str(journal)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "2",
         "--checkpoint", str(journal), "--resume"]
    ) == 1
    err = capsys.readouterr().err
    assert "refusing to resume" in err


def test_mot_resume_requires_checkpoint(capsys):
    assert main(
        ["mot", "--circuit", "s27", "--length", "8", "--resume"]
    ) == 1
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_scan_subcommand(capsys):
    assert main(["scan", "s27", "--fault-cap", "30"]) == 0
    out = capsys.readouterr().out
    assert "full scan" in out and "gap recovered" in out


# ----------------------------------------------------------------------
# Argparse-time validation of the campaign-scale flags
# ----------------------------------------------------------------------
def test_mot_rejects_invalid_workers(capsys):
    _argparse_exit(["mot", "--circuit", "s27", "--workers", "0"])
    assert "positive integer" in capsys.readouterr().err
    _argparse_exit(["mot", "--circuit", "s27", "--workers", "-3"])
    _argparse_exit(["mot", "--circuit", "s27", "--workers", "two"])


def test_mot_rejects_invalid_supervision_flags(capsys):
    _argparse_exit(["mot", "--circuit", "s27", "--stall-timeout", "0"])
    assert "positive number of seconds" in capsys.readouterr().err
    _argparse_exit(["mot", "--circuit", "s27", "--stall-timeout", "-5"])
    _argparse_exit(
        ["mot", "--circuit", "s27", "--host-blacklist-after", "0"]
    )
    assert "positive integer" in capsys.readouterr().err
    _argparse_exit(["mot", "--circuit", "s27", "--checkpoint-every", "0"])
    # The retired static-shard and retry flags are gone.
    for flag in ("--shard-strategy", "--max-retries",
                 "--heartbeat-interval", "--no-supervise"):
        _argparse_exit(["mot", "--circuit", "s27", flag, "1"])


def test_engine_flag_is_gone():
    """Every campaign runs on the compiled kernel; no subcommand takes
    an engine selector any more."""
    _argparse_exit(["fsim", "--circuit", "s27", "--engine", "serial"])
    _argparse_exit(["fsim", "--circuit", "s27", "--engine", "ir"])
    _argparse_exit(["mot", "--circuit", "s27", "--engine", "interp"])
    _argparse_exit(["submit", "s27", "--engine", "ir"])


def test_mot_rejects_workers_with_hosts(capsys):
    assert main(
        ["mot", "--circuit", "s27", "--workers", "2", "--hosts", "a,b"]
    ) == 1
    assert "exclusive" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Supervised campaigns end to end (chaos injected via a scenario)
# ----------------------------------------------------------------------
def _arm_kill_at_20(monkeypatch, marker=None):
    from repro.chaos.runtime import SCENARIO_ENV
    from repro.chaos.scenario import ChaosScenario, InjectionSpec

    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="kill-20", seed=0,
        faults=[InjectionSpec(site="worker.fault", action="kill", index=20,
                              once=marker is not None, marker=marker)],
    ).to_json())
def test_mot_workers_supervised_by_default(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--workers", "2", "--checkpoint", str(journal)]
    ) == 0
    out = capsys.readouterr().out
    assert "supervised" in out
    assert "supervision:" not in out  # clean run: nothing to report
    assert (tmp_path / "run.jsonl.events").exists()


def test_mot_supervised_recovers_from_transient_worker_kill(
    tmp_path, capsys, monkeypatch
):
    """A stock CLI campaign whose worker is hard-killed at a fault
    completes without operator action, with the serial CSV."""
    serial = tmp_path / "serial.csv"
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--csv", str(serial)]
    ) == 0
    capsys.readouterr()
    journal = tmp_path / "run.jsonl"
    workers = tmp_path / "workers.csv"
    _arm_kill_at_20(monkeypatch, marker=str(tmp_path / "marker"))
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--workers", "2", "--checkpoint", str(journal),
         "--checkpoint-every", "1", "--csv", str(workers)]
    ) == 0
    out = capsys.readouterr().out
    assert "supervision:" in out
    assert "1 relaunch" in out
    assert (tmp_path / "marker").exists()  # the kill really fired
    assert workers.read_bytes() == serial.read_bytes()


def test_mot_supervised_isolates_deterministic_killer(
    tmp_path, capsys, monkeypatch
):
    """A fault that kills its worker on every attempt ends as an
    errored/poison verdict (exit 3: errored faults present)."""
    journal = tmp_path / "run.jsonl"
    _arm_kill_at_20(monkeypatch)
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--workers", "2", "--checkpoint", str(journal),
         "--checkpoint-every", "1", "--report"]
    ) == 3
    captured = capsys.readouterr()
    assert "poison faults isolated   : 1 (index 20)" in captured.out
    assert "poison: killed their worker" in captured.out
    assert "blacklisted" not in captured.out
    assert "degraded" not in captured.out
    assert "errored (quarantined)" in captured.err
    assert "poison_confirmed" in (tmp_path / "run.jsonl.events").read_text()


def test_mot_supervised_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    from repro.errors import CampaignInterrupted
    from repro.runner.supervisor import SupervisedCampaignRunner

    journal = tmp_path / "run.jsonl"

    def interrupted_run(self, faults):
        raise CampaignInterrupted(completed=7, journal_path=str(journal))

    monkeypatch.setattr(SupervisedCampaignRunner, "run", interrupted_run)
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--workers", "2", "--checkpoint", str(journal)]
    ) == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert f"--checkpoint {journal} --resume" in err


def test_mot_metrics_out_and_stats_render(tmp_path, capsys):
    """--metrics-out writes a renderable snapshot whose verdict counts
    equal the campaign's fault total."""
    import json

    target = tmp_path / "metrics.json"
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--metrics-out", str(target)]
    ) == 0
    err = capsys.readouterr().err
    assert f"campaign metrics written to {target}" in err
    payload = json.loads(target.read_text())
    verdicts = {
        name: count
        for name, count in payload["counters"].items()
        if name.startswith("campaign.verdict.")
    }
    assert sum(verdicts.values()) == 32  # the collapsed s27 fault list
    assert payload["counters"]["mot.expansion.runs"] > 0
    assert "backward" in payload["phases"]

    assert main(["stats", str(target)]) == 0
    out = capsys.readouterr().out
    assert "Per-phase wall clock" in out
    assert "Per-fault verdicts (32 faults)" in out
    assert "backward implication" in out


def test_stats_rejects_unreadable_metrics_file(tmp_path, capsys):
    bogus = tmp_path / "not-metrics.json"
    bogus.write_text("[1, 2, 3]")
    assert main(["stats", str(bogus)]) == 1
    assert "cannot read metrics file" in capsys.readouterr().err


def test_mot_trace_out_writes_jsonl_events(tmp_path, capsys):
    import json

    target = tmp_path / "trace.jsonl"
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--trace-out", str(target)]
    ) == 0
    events = [json.loads(line) for line in target.read_text().splitlines()]
    names = [event["ev"] for event in events]
    assert names.count("fault_begin") == 32
    assert names.count("fault_verdict") == 32
    assert "implication" in names and "branch" in names


def _traced_faults(path):
    import json

    if not path.exists():
        return []
    return [
        event["fault"]
        for event in map(json.loads, path.read_text().splitlines())
        if event["ev"] == "fault_begin"
    ]


def test_mot_trace_out_writes_one_file_per_worker(tmp_path, capsys):
    """Each forked worker traces to its own sibling file with the
    parent's sampling: together they trace exactly the faults a serial
    run traces, and no fault goes through the parent's file handle."""
    base = ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
            "--trace-sample", "0.5"]
    serial = tmp_path / "serial" / "trace.jsonl"
    serial.parent.mkdir()
    assert main(base + ["--trace-out", str(serial)]) == 0
    target = tmp_path / "workers" / "trace.jsonl"
    target.parent.mkdir()
    assert main(
        base + ["--trace-out", str(target), "--workers", "2",
                "--chunk-size", "1"]
    ) == 0
    files = sorted(p.name for p in target.parent.iterdir())
    assert [name for name in files if name != "trace.jsonl"] == [
        "trace.jsonl.worker0", "trace.jsonl.worker1",
    ]
    per_worker = [
        _traced_faults(target.parent / name)
        for name in ("trace.jsonl.worker0", "trace.jsonl.worker1")
    ]
    assert all(per_worker)
    assert sorted(per_worker[0] + per_worker[1]) == sorted(
        _traced_faults(serial)
    )
    assert _traced_faults(target) == []


def test_mot_trace_sample_zero_traces_no_faults(tmp_path, capsys):
    import json

    target = tmp_path / "trace.jsonl"
    assert main(
        ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
         "--trace-out", str(target), "--trace-sample", "0"]
    ) == 0
    if target.exists():
        names = [
            json.loads(line)["ev"]
            for line in target.read_text().splitlines()
        ]
        assert "fault_begin" not in names


def test_mot_rejects_invalid_trace_sample(capsys):
    _argparse_exit(
        ["mot", "--circuit", "s27", "--trace-out", "t.jsonl",
         "--trace-sample", "1.5"]
    )
    assert "probability" in capsys.readouterr().err


def test_verbose_flag_logs_debug_detail(capsys):
    assert main(
        ["--verbose", "mot", "--circuit", "s27", "--length", "8"]
    ) == 0
    err = capsys.readouterr().err
    assert "faults" in err and "patterns" in err


def test_quiet_flag_suppresses_progress(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    base = ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
            "--checkpoint", str(journal)]
    assert main(base) == 0
    capsys.readouterr()
    assert main(["--quiet"] + base + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert "verdicts reused" not in captured.err
    assert "proposed procedure" in captured.out  # results stay on stdout


def test_verbose_and_quiet_are_mutually_exclusive():
    _argparse_exit(["--verbose", "--quiet", "stats", "s27"])


def test_mot_retry_exhausted_exits_with_resume_hint(
    tmp_path, capsys, monkeypatch
):
    """Every worker blacklisted under --no-degrade: exit 1 with a
    --resume hint, and the resume completes the campaign."""
    from repro.chaos.runtime import SCENARIO_ENV
    from repro.chaos.scenario import ChaosScenario, InjectionSpec

    journal = tmp_path / "run.jsonl"
    argv = ["mot", "--circuit", "s27", "--length", "16", "--seed", "1",
            "--workers", "2", "--checkpoint", str(journal)]
    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="no-workers", seed=0,
        faults=[InjectionSpec(site="worker.ready", action="kill_before",
                              times=None)],
    ).to_json())
    assert main(argv + ["--no-degrade"]) == 1
    err = capsys.readouterr().err
    assert "out of usable hosts" in err
    assert f"--checkpoint {journal} --resume" in err
    monkeypatch.delenv(SCENARIO_ENV)
    assert main(argv + ["--resume"]) == 0

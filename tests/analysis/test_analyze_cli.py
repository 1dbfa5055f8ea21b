"""The ``repro analyze`` subcommand: text/JSON reports, determinism."""

import json
import logging

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    # main() rebinds the "repro" logger to the captured stderr and turns
    # off propagation; undo both so later caplog-based tests still see
    # records (and nothing logs to a closed capture stream).
    logger = logging.getLogger("repro")
    handlers = list(logger.handlers)
    propagate, level = logger.propagate, logger.level
    yield
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    for handler in handlers:
        logger.addHandler(handler)
    logger.propagate = propagate
    logger.setLevel(level)


def test_analyze_registered_circuit(capsys):
    assert main(["analyze", "s27"]) == 0
    out = capsys.readouterr().out
    assert "static analysis report" in out
    assert "52" in out  # universe
    assert "32" in out  # classes


def test_analyze_json_payload(capsys):
    assert main(["analyze", "s27", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["universe_faults"] == 52
    assert payload["classes"] == 32
    assert payload["reduction_percent"] == pytest.approx(38.46)
    assert len(payload["hardest"]) == 10
    assert "class_list" not in payload


def test_analyze_is_deterministic(capsys):
    assert main(["analyze", "s27", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "s27", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_analyze_bench_file_with_options(tmp_path, capsys):
    from repro.circuits.library import S27_BENCH

    path = tmp_path / "c.bench"
    path.write_text(S27_BENCH)
    assert main(["analyze", str(path), "--top", "3", "--list-classes"]) == 0
    out = capsys.readouterr().out
    assert "class" in out


def test_analyze_unknown_circuit(capsys):
    assert main(["analyze", "sNOPE"]) == 1
    assert "sNOPE" in capsys.readouterr().err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "missing.bench"]) == 1
    assert capsys.readouterr().err

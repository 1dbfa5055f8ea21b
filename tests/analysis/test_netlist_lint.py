"""Netlist linter: rules, positions, entry points."""

import os

import pytest

from repro.analysis import (
    ALL_RULES,
    Finding,
    lint_circuit,
    lint_path,
    lint_text,
)
from repro.circuit.bench import load_bench, parse_bench
from repro.circuit.isc import parse_isc
from repro.circuit.netlist import CircuitError
from repro.circuits.library import s27

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Loop detection
# ----------------------------------------------------------------------
CYCLIC = """
INPUT(A)
OUTPUT(O)
X = AND(Y, A)
Y = OR(X, A)
O = NOT(X)
"""


def test_detects_two_gate_combinational_loop():
    findings = lint_text(CYCLIC, "cyclic.bench")
    loops = [f for f in findings if f.rule == "combinational-loop"]
    assert len(loops) == 1
    assert loops[0].severity == "error"
    # Position points at the first gate of the cycle.
    assert loops[0].line == 4
    assert "X" in loops[0].message and "Y" in loops[0].message


def test_self_loop_is_reported():
    text = "INPUT(A)\nOUTPUT(O)\nS = NAND(S, A)\nO = NOT(S)\n"
    findings = lint_text(text, "self.bench")
    loops = [f for f in findings if f.rule == "combinational-loop"]
    assert len(loops) == 1
    assert loops[0].subject == "S"


def test_flop_breaks_the_loop():
    # The classic toggle structure is cyclic through the flop only.
    text = (
        "INPUT(A)\nOUTPUT(O)\nQ = DFF(QN)\nQN = XOR(Q, A)\nO = AND(Q, A)\n"
    )
    findings = lint_text(text, "toggle.bench")
    assert "combinational-loop" not in rules_of(findings)


def test_deep_chain_does_not_recurse():
    # 5000-gate chain: the iterative SCC must not hit the recursion limit.
    lines = ["INPUT(A)", "OUTPUT(G4999)", "G0 = NOT(A)"]
    lines += [f"G{i} = NOT(G{i - 1})" for i in range(1, 5000)]
    findings = lint_text("\n".join(lines), "chain.bench")
    assert "combinational-loop" not in rules_of(findings)


# ----------------------------------------------------------------------
# Gate arity: the lint and the loader share one table
# ----------------------------------------------------------------------
def test_one_input_gate_lints_clean_and_loads():
    """A one-input AND is a buffer to the loader and the simulators, so
    the lint must not call it an error."""
    text = "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n"
    findings = lint_text(text, "c.bench")
    assert "bad-arity" not in rules_of(findings)
    assert [f for f in findings if f.severity == "error"] == []
    circuit = parse_bench(text, "c.bench")
    assert [len(gate.inputs) for gate in circuit.gates] == [1]


# ----------------------------------------------------------------------
# Malformed fixtures: every seeded defect, with file and line
# ----------------------------------------------------------------------
def test_broken_nets_fixture_flags_every_defect():
    findings = lint_path(fixture("broken_nets.bench"))
    by_rule = {}
    for finding in findings:
        by_rule.setdefault(finding.rule, []).append(finding)
    assert by_rule["parse-error"][0].line == 5
    assert by_rule["unknown-gate-type"][0].line == 6
    assert by_rule["unknown-gate-type"][0].subject == "U"
    assert by_rule["bad-arity"][0].line == 7
    assert by_rule["duplicate-driver"][0].line == 9
    assert by_rule["duplicate-driver"][0].subject == "D"
    assert by_rule["constant-net"][0].subject == "C"
    assert by_rule["undriven-net"][0].subject == "M"
    assert {f.subject for f in by_rule["floating-net"]} >= {"F"}
    for finding in findings:
        assert finding.file.endswith("broken_nets.bench")
        assert finding.line > 0


def test_broken_loop_fixture_flags_loops_and_dead_logic():
    findings = lint_path(fixture("broken_loop.bench"))
    loops = [f for f in findings if f.rule == "combinational-loop"]
    assert len(loops) == 2  # X<->Y cycle and the S self-loop
    assert {f.subject for f in loops} == {"X", "S"}
    unobservable = {
        f.subject for f in findings if f.rule == "unobservable-gate"
    }
    assert {"G1", "G2", "H"} <= unobservable


def test_broken_isc_fixture_flags_fanout_mismatches():
    findings = lint_path(fixture("broken.isc"))
    mismatches = [f for f in findings if f.rule == "fanout-mismatch"]
    assert {f.subject for f in mismatches} == {"A", "G1"}
    for finding in mismatches:
        assert finding.file.endswith("broken.isc")
        assert finding.line > 0


def test_isc_entries_the_loader_rejects_are_parse_errors():
    # Entry 2 reuses address 1; the dff at line 3 lists two fanins.
    text = "1 A inpt 2 0\n1 B inpt 1 0\n3 Q dff 0 2\n1 1\n"
    parse_errors = [
        (f.line, f.message)
        for f in lint_text(text, "c.isc", fmt="isc")
        if f.rule == "parse-error"
    ]
    assert parse_errors == [
        (2, "duplicate entry '1' (first defined at line 1)"),
        (3, "dff 'Q' needs exactly one fanin"),
    ]
    with pytest.raises(CircuitError, match=r"^c\.isc: line 2: duplicate entry"):
        parse_isc(text, "c.isc")


# ----------------------------------------------------------------------
# Clean circuits and entry points
# ----------------------------------------------------------------------
def test_s27_lints_clean():
    findings = lint_circuit(s27())
    assert [f for f in findings if f.severity == "error"] == []
    assert findings == []  # no warnings either


def test_rule_subset_filters_and_validates():
    findings = lint_text(CYCLIC, "cyclic.bench", rules=["combinational-loop"])
    assert rules_of(findings) <= {"combinational-loop"}
    with pytest.raises(ValueError, match="unknown lint rule"):
        lint_text(CYCLIC, "cyclic.bench", rules=["not-a-rule"])
    assert "combinational-loop" in ALL_RULES


def test_findings_are_sorted_and_renderable():
    findings = lint_path(fixture("broken_nets.bench"))
    keys = [(f.file, f.line, f.rule) for f in findings]
    assert keys == sorted(keys)
    rendered = findings[0].render()
    assert str(findings[0].line) in rendered
    assert findings[0].rule in rendered
    payload = findings[0].to_payload()
    assert payload["rule"] == findings[0].rule
    assert payload["line"] == findings[0].line


def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError):
        Finding("parse-error", "fatal", "boom", "x.bench", 1)


# ----------------------------------------------------------------------
# Loading never lints
# ----------------------------------------------------------------------
GOOD_BENCH = "INPUT(A)\nOUTPUT(O)\nO = NOT(A)\n"


def test_load_bench_lint_off_by_default(tmp_path, caplog):
    path = tmp_path / "plain.bench"
    path.write_text(GOOD_BENCH)
    with caplog.at_level("WARNING"):
        load_bench(str(path))
    assert caplog.records == []

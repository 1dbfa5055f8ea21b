"""Project AST lint (tools/repro_lint.py): RL001-RL005 behaviour."""

import importlib.util
import os
import sys

TOOL = os.path.join(
    os.path.dirname(__file__), "..", "..", "tools", "repro_lint.py"
)


def load_tool():
    spec = importlib.util.spec_from_file_location("repro_lint", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("repro_lint", module)
    spec.loader.exec_module(module)
    return module


tool = load_tool()


def problems_for(tmp_path, source, rel_path=os.path.join("repro", "x.py")):
    path = tmp_path / os.path.basename(rel_path)
    path.write_text(source)
    return tool.check_file(str(path), rel_path)


def rules_of(problems):
    return [p.rule for p in problems]


# ----------------------------------------------------------------------
# RL001: no print() in library code
# ----------------------------------------------------------------------
def test_print_in_library_code_is_flagged(tmp_path):
    problems = problems_for(tmp_path, "def f():\n    print('hi')\n")
    assert rules_of(problems) == ["RL001"]
    assert problems[0].line == 2


def test_print_in_cli_is_allowed(tmp_path):
    problems = problems_for(
        tmp_path,
        "def f():\n    print('hi')\n",
        rel_path=os.path.join("repro", "cli.py"),
    )
    assert problems == []


def test_print_in_docstring_is_not_a_call(tmp_path):
    source = '"""Example::\n\n    print(campaign)\n"""\n'
    assert problems_for(tmp_path, source) == []


# ----------------------------------------------------------------------
# RL002: verdict statuses come from the taxonomy
# ----------------------------------------------------------------------
def test_bad_verdict_literal_in_constructor_is_flagged(tmp_path):
    source = "v = FaultVerdict(fault, 'detected')\n"
    problems = problems_for(tmp_path, source)
    assert rules_of(problems) == ["RL002"]
    assert "detected" in problems[0].message


def test_good_verdict_literals_pass(tmp_path):
    source = (
        "v = FaultVerdict(fault, 'mot')\n"
        "w = FaultVerdict(fault, status='conv')\n"
        "if v.status == 'dropped' or v.status in ('aborted', 'errored'):\n"
        "    pass\n"
    )
    assert problems_for(tmp_path, source) == []


def test_bad_status_comparison_is_flagged(tmp_path):
    source = "if verdict.status == 'passed':\n    pass\n"
    problems = problems_for(tmp_path, source)
    assert rules_of(problems) == ["RL002"]


def test_bad_status_in_membership_tuple_is_flagged(tmp_path):
    source = "ok = verdict.status in ('mot', 'detected')\n"
    problems = problems_for(tmp_path, source)
    assert rules_of(problems) == ["RL002"]
    assert "detected" in problems[0].message


def test_unrelated_comparisons_ignored(tmp_path):
    assert problems_for(tmp_path, "ok = mode == 'detected'\n") == []


# ----------------------------------------------------------------------
# RL003: metric names come from the declared registry
# ----------------------------------------------------------------------
def test_undeclared_metric_name_is_flagged(tmp_path):
    source = "metrics.counter('mot.bogus')\n"
    problems = problems_for(tmp_path, source)
    assert rules_of(problems) == ["RL003"]
    assert "mot.bogus" in problems[0].message


def test_declared_metric_names_pass(tmp_path):
    source = (
        "metrics.counter('mot.implication.runs')\n"
        "get_metrics().counter('mot.backward.conflict')\n"
        "with metrics.phase('backward'):\n"
        "    pass\n"
    )
    assert problems_for(tmp_path, source) == []


def test_non_metrics_receiver_is_not_checked(tmp_path):
    # kit.counter() is some other object; RL003 only scopes to the
    # metrics registry receivers.
    assert problems_for(tmp_path, "kit.counter('whatever')\n") == []


def test_fstring_metric_checks_declared_prefix(tmp_path):
    good = "metrics.counter(f'campaign.verdict.{status}')\n"
    assert problems_for(tmp_path, good) == []
    bad = "metrics.counter(f'campaign.bogus.{status}')\n"
    assert rules_of(problems_for(tmp_path, bad)) == ["RL003"]


# ----------------------------------------------------------------------
# RL004: unused imports
# ----------------------------------------------------------------------
def test_unused_import_is_flagged(tmp_path):
    source = "import os\nimport sys\n\nprint = None\nx = sys.argv\n"
    problems = problems_for(tmp_path, source)
    assert rules_of(problems) == ["RL004"]
    assert "os" in problems[0].message


def test_init_files_are_exempt_from_unused_imports(tmp_path):
    source = "from repro.analysis import lint_path\n"
    problems = problems_for(
        tmp_path, source, rel_path=os.path.join("repro", "__init__.py")
    )
    assert problems == []


def test_all_export_counts_as_usage(tmp_path):
    source = (
        "from repro.analysis import lint_path\n"
        "__all__ = ['lint_path']\n"
    )
    assert problems_for(tmp_path, source) == []


def test_future_imports_are_exempt(tmp_path):
    assert problems_for(tmp_path, "from __future__ import annotations\n") == []


# ----------------------------------------------------------------------
# RL005: determinism guard (no wall clock / unseeded RNG in decision
# paths: repro.analysis, repro.sim, repro.runner.dispatch)
# ----------------------------------------------------------------------
SCOPED = os.path.join("repro", "analysis", "mod.py")


def test_wall_clock_in_analysis_is_flagged(tmp_path):
    source = "import time\nstamp = time.time()\n"
    problems = problems_for(tmp_path, source, rel_path=SCOPED)
    assert rules_of(problems) == ["RL005"]
    assert "time.time()" in problems[0].message


def test_time_ns_in_sim_is_flagged(tmp_path):
    source = "import time\nstamp = time.time_ns()\n"
    rel = os.path.join("repro", "sim", "mod.py")
    assert rules_of(problems_for(tmp_path, source, rel_path=rel)) == ["RL005"]


def test_from_time_import_time_is_flagged(tmp_path):
    source = "from time import time\nstamp = time()\n"
    problems = problems_for(tmp_path, source, rel_path=SCOPED)
    assert rules_of(problems) == ["RL005"]


def test_global_random_call_in_dispatch_is_flagged(tmp_path):
    source = "import random\npick = random.randint(0, 7)\n"
    rel = os.path.join("repro", "runner", "dispatch.py")
    problems = problems_for(tmp_path, source, rel_path=rel)
    assert rules_of(problems) == ["RL005"]
    assert "random.randint" in problems[0].message


def test_seedless_random_instance_is_flagged(tmp_path):
    source = "import random\nrng = random.Random()\n"
    problems = problems_for(tmp_path, source, rel_path=SCOPED)
    assert rules_of(problems) == ["RL005"]
    assert "seed" in problems[0].message


def test_seeded_random_and_monotonic_pass(tmp_path):
    source = (
        "import random\n"
        "import time\n"
        "rng = random.Random(7)\n"
        "t0 = time.monotonic()\n"
        "time.sleep(0)\n"
    )
    assert problems_for(tmp_path, source, rel_path=SCOPED) == []


def test_wall_clock_outside_scope_is_not_flagged(tmp_path):
    # repro.runner.journal legitimately timestamps coordination records.
    source = "import time\nstamp = time.time()\n"
    rel = os.path.join("repro", "runner", "journal.py")
    assert problems_for(tmp_path, source, rel_path=rel) == []


# ----------------------------------------------------------------------
# Tool plumbing
# ----------------------------------------------------------------------
def test_problem_payload_and_render(tmp_path):
    (problem,) = problems_for(tmp_path, "def f():\n    print('x')\n")
    assert problem.to_payload() == {
        "rule": "RL001",
        "file": problem.file,
        "line": 2,
        "message": problem.message,
    }
    assert "RL001" in problem.render()


def test_main_exits_clean_on_the_real_tree():
    # The shipped tree must satisfy its own lint.
    root = os.path.join(os.path.dirname(TOOL), "..")
    assert tool.main([os.path.join(root, "src", "repro")]) == 0


def test_main_reports_problems(tmp_path, capsys):
    bad = tmp_path / "repro"
    bad.mkdir()
    (bad / "mod.py").write_text("def f():\n    print('x')\n")
    assert tool.main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out

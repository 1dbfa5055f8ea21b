"""Class-collapsed campaigns: spec modes, verdict expansion, provenance.

``--collapse classes`` simulates one representative per equivalence
class and expands its verdict to every member afterwards.  These tests
pin the end-to-end contract: expanded campaigns report the same
per-fault statuses as an uncollapsed run, the provenance column names
the representative, the journal records the expansion, and resume
reconstructs the expanded view.
"""

import json

import pytest

from repro.analysis.collapse import fault_classes
from repro.circuits.library import s27
from repro.reporting.campaign import (
    campaign_csv,
    render_campaign_report,
    summarize_campaign,
)
from repro.runner.campaign import (
    COLLAPSE_MODES,
    CampaignSpec,
    SpecError,
    run_campaign,
)

S27 = dict(circuit="s27", length=16, seed=3, n_states=16, n_references=4)


def _statuses(result):
    return {v.fault: v.status for v in result.campaign.verdicts}


# ------------------------------------------------------------ validation
def test_collapse_modes_constant():
    assert COLLAPSE_MODES == ("structural", "classes", "none")


def test_spec_rejects_unknown_collapse_mode():
    with pytest.raises(SpecError):
        CampaignSpec(circuit="s27", collapse="bogus").validate()


def test_spec_rejects_classes_with_uncollapsed():
    with pytest.raises(SpecError):
        CampaignSpec(
            circuit="s27", uncollapsed=True, collapse="classes"
        ).validate()


def test_spec_rejects_classes_with_fsim():
    with pytest.raises(SpecError):
        CampaignSpec(
            circuit="s27", kind="fsim", collapse="classes"
        ).validate()


def test_uncollapsed_flag_forces_mode_none():
    spec = CampaignSpec(circuit="s27", uncollapsed=True)
    assert spec.effective_collapse() == "none"
    assert CampaignSpec(circuit="s27").effective_collapse() == "structural"


# ------------------------------------------------------------- expansion
def test_classes_campaign_matches_uncollapsed_statuses():
    full = run_campaign(CampaignSpec(uncollapsed=True, **S27))
    collapsed = run_campaign(CampaignSpec(collapse="classes", **S27))
    assert _statuses(collapsed) == _statuses(full)


def test_expanded_campaign_covers_the_universe_in_order():
    result = run_campaign(CampaignSpec(collapse="classes", **S27))
    partition = fault_classes(s27())
    assert [v.fault for v in result.campaign.verdicts] == list(
        partition.universe
    )
    assert result.simulated == partition.num_classes
    assert result.partition is not None


def test_representatives_keep_empty_provenance():
    result = run_campaign(CampaignSpec(collapse="classes", **S27))
    partition = fault_classes(s27())
    reps = set(partition.representatives())
    for verdict in result.campaign.verdicts:
        if verdict.fault in reps:
            assert verdict.expanded_from == ""
        else:
            representative = partition.class_of(verdict.fault).representative
            assert verdict.expanded_from == representative.describe(s27())


def test_structural_mode_has_no_expansion():
    result = run_campaign(CampaignSpec(**S27))
    assert result.partition is None
    assert result.simulated is None
    assert all(v.expanded_from == "" for v in result.campaign.verdicts)


# ------------------------------------------------------------- reporting
def test_summary_counts_expanded_verdicts():
    result = run_campaign(CampaignSpec(collapse="classes", **S27))
    summary = summarize_campaign(result.campaign)
    partition = fault_classes(s27())
    assert summary.expanded == partition.universe_size - partition.num_classes
    report = render_campaign_report(result.campaign, s27())
    assert "expanded from classes" in report


def test_csv_provenance_column():
    result = run_campaign(CampaignSpec(collapse="classes", **S27))
    csv_text = campaign_csv(result.campaign, s27())
    header = csv_text.splitlines()[0].split(",")
    assert "expanded_from" in header
    column = header.index("expanded_from")
    cells = [
        line.split(",")[column] for line in csv_text.splitlines()[1:]
    ]
    assert any(cells), "no expansion provenance recorded"


# --------------------------------------------------------------- journal
def test_journal_records_expansions_and_resume(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    spec = CampaignSpec(checkpoint_path=path, collapse="classes", **S27)
    first = run_campaign(spec)
    kinds = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
    partition = fault_classes(s27())
    assert kinds["verdict"] == partition.num_classes
    assert kinds["expansion"] == (
        partition.universe_size - partition.num_classes
    )

    resumed = run_campaign(
        CampaignSpec(
            checkpoint_path=path, resume=True, collapse="classes", **S27
        )
    )
    assert _statuses(resumed) == _statuses(first)

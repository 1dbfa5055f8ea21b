"""Shared pytest fixtures for campaign tests.

``tmp_journal`` hands tests a throwaway checkpoint path; ``journaled_campaign``
runs the standard s27 campaign against it and returns everything a
resume/merge test needs.  ``campaign_workers`` reads the
``REPRO_TEST_WORKERS`` environment variable (default 1) so CI can rerun
the whole suite with the local-worker executor exercised at a higher
worker count without editing any test.
"""

import os
from dataclasses import dataclass
from typing import List

import pytest

from repro.mot.simulator import Campaign, ProposedSimulator
from repro.runner.harness import CampaignHarness, HarnessConfig

from tests.helpers import s27_faults, s27_simulator


@pytest.fixture
def tmp_journal(tmp_path):
    """Path (str) for a campaign checkpoint journal inside tmp_path."""
    return str(tmp_path / "campaign.jsonl")


@pytest.fixture
def campaign_workers():
    """Worker count for parametrizable campaign tests.

    Defaults to 1; CI sets ``REPRO_TEST_WORKERS=2`` in the
    parallel-smoke job to push the consuming campaign tests through
    more local workers.
    """
    return int(os.environ.get("REPRO_TEST_WORKERS", "1"))


@dataclass
class JournaledCampaign:
    """A completed, journaled s27 campaign plus the pieces to redo it."""

    campaign: Campaign
    simulator: ProposedSimulator
    faults: List[object]
    journal_path: str

    def fresh_simulator(self) -> ProposedSimulator:
        return s27_simulator()


@pytest.fixture
def journaled_campaign(tmp_journal):
    """Run the standard s27 campaign with a journal at *tmp_journal*."""
    simulator = s27_simulator()
    faults = s27_faults()
    campaign = CampaignHarness(
        simulator,
        HarnessConfig(checkpoint_path=tmp_journal, handle_sigint=False),
    ).run(faults)
    return JournaledCampaign(
        campaign=campaign,
        simulator=simulator,
        faults=faults,
        journal_path=tmp_journal,
    )

"""Chaos-suite fixtures: every test starts with chaos fully disarmed.

The runtime module caches the environment-compiled plan per process;
tests poke at it, so each one gets a clean slate before and after.
"""

import pytest

from repro.chaos.runtime import SCENARIO_ENV, forget_plan


@pytest.fixture(autouse=True)
def clean_chaos_state(monkeypatch):
    monkeypatch.delenv(SCENARIO_ENV, raising=False)
    forget_plan()
    yield
    forget_plan()

"""Shared fixtures."""

import pytest

from haarnull.acceptance import run_all


@pytest.fixture(scope="session")
def battery():
    """The acceptance battery at seed 42 and its release parameters, run once."""
    return run_all(seed=42)

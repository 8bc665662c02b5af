"""Shared fixtures: one run of the default acceptance battery."""
import pytest

from cmcpinch import verify
from cmcpinch.numerics import DEFAULT_ROOT
from cmcpinch.verify import run_checks


@pytest.fixture(scope="session")
def default_checks():
    """The acceptance battery at the default tolerances, run once."""
    return run_checks()


@pytest.fixture
def shared_verify(default_checks, monkeypatch):
    """The verify command, answering the default root config from one run.

    Any other config still runs the battery, so a flag or variable that
    does not resolve to the default still shows in the output.
    """
    real = verify.run_checks

    def run_checks_once(root):
        if root == DEFAULT_ROOT:
            return list(default_checks)
        return real(root)

    monkeypatch.setattr(verify, "run_checks", run_checks_once)

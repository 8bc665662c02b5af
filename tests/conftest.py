"""Shared fixtures: one run of the default acceptance battery."""
import pytest

from cmcpinch import cli
from cmcpinch.numerics import DEFAULT_QUADRATURE, DEFAULT_ROOT
from cmcpinch.verify import run_checks


@pytest.fixture(scope="session")
def default_checks():
    """The acceptance battery at the default tolerances, run once."""
    return run_checks()


@pytest.fixture
def shared_verify(default_checks, monkeypatch):
    """The verify command, answering the default tolerances from one run.

    Any other configuration still runs the battery, so a flag or variable
    that does not resolve to the defaults still shows in the output.
    """
    real = cli.run_checks

    def run_checks_once(quad, root):
        if (quad, root) == (DEFAULT_QUADRATURE, DEFAULT_ROOT):
            return list(default_checks)
        return real(quad, root)

    monkeypatch.setattr(cli, "run_checks", run_checks_once)

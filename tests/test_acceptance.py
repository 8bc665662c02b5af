"""Acceptance gate: every verification check must pass at defaults.

Each criterion gets its own parametrized test so the report shows one
pass/fail line per check id.  The whole battery runs once per session
(conftest.default_checks).
"""
import pytest

CHECK_IDS = [f"AC{i}" for i in range(1, 17)]


@pytest.fixture(scope="module")
def results(default_checks):
    out = {res.check_id: res for res in default_checks}
    assert sorted(out) == sorted(CHECK_IDS)
    return out


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_acceptance(check_id, results):
    res = results[check_id]
    status = "PASS" if res.passed else "FAIL"
    print(f"{check_id}: {status} (worst residual ratio "
          f"{res.worst_ratio:.3g}) {res.description}")
    assert res.passed, (
        f"{check_id} failed with ratio {res.worst_ratio:.3g}: "
        f"{res.description} [{res.detail}]")
    assert res.worst_ratio <= 1.0

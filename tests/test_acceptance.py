"""Acceptance gate: every verification check must pass at defaults.

Each criterion gets its own parametrized test so the report shows one
pass/fail line per check id.  The whole battery runs once per session
(conftest.default_checks).  The registry tests below call the entries
of verify.CHECKS directly.
"""
import math

import pytest

from cmcpinch import verify
from cmcpinch.freeboundary import AnalysisReport, VERDICT_NO_ORTHOGONAL
from cmcpinch.numerics import DEFAULT_QUADRATURE, DEFAULT_ROOT

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


def test_checks_are_registered_in_battery_order():
    assert [cid for cid, _ in verify.CHECKS] == CHECK_IDS


def test_each_check_maps_a_context_to_its_result():
    ctx = verify._Context(DEFAULT_QUADRATURE, DEFAULT_ROOT)
    for check_id, run in verify.CHECKS:
        res = run(ctx)
        assert isinstance(res, verify.CheckResult)
        assert res.check_id == check_id


# the checks that read a fixed example's classify report
PORTION_CHECKS = ["AC4", "AC12", "AC13", "AC15", "AC16"]


@pytest.mark.parametrize("check_id", PORTION_CHECKS)
def test_a_check_that_raises_fails_under_its_own_description(
        check_id, results, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("classify broke")

    monkeypatch.setattr(verify, "classify", broken)
    run = dict(verify.CHECKS)[check_id]
    res = run(verify._Context(DEFAULT_QUADRATURE, DEFAULT_ROOT))
    assert res == verify.CheckResult(
        check_id, results[check_id].description, False, math.inf,
        "ZeroDivisionError: classify broke")


@pytest.mark.parametrize("check_id", PORTION_CHECKS)
def test_an_example_that_is_not_pinched_names_its_verdict(
        check_id, results, monkeypatch):
    def not_pinched(params, root):
        return AnalysisReport(params=params, verdict=VERDICT_NO_ORTHOGONAL)

    monkeypatch.setattr(verify, "classify", not_pinched)
    run = dict(verify.CHECKS)[check_id]
    res = run(verify._Context(DEFAULT_QUADRATURE, DEFAULT_ROOT))
    assert res.description == results[check_id].description
    assert (res.passed, res.worst_ratio) == (False, math.inf)
    assert res.detail.startswith("ValueError: ")
    assert VERDICT_NO_ORTHOGONAL in res.detail

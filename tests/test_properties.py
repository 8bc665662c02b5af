"""Property tests over many decades of H and B (needs hypothesis).

H is drawn log-uniform in [1e-6, 1e6] and B log-uniform in [1e-9, 1e9]
or within 10^[-15, -1] of the degenerate B = 1, on either side; B = 1
itself is invalid input (exit 2) and left out.  The examples are
derandomized, so a run is repeatable.
"""
import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cmcpinch.cli import main  # noqa: E402
from cmcpinch.delaunay import DelaunayParams  # noqa: E402
from cmcpinch.freeboundary import VERDICT_PINCHED, classify  # noqa: E402

VERDICTS = {"PinchedFreeBoundaryPortion", "NoOrthogonalIntersection",
            "Cylinder"}
# exit codes the README documents besides 0: numerical failure and no
# portion; 1 (verification) and 2 (invalid input) cannot apply here
DOCUMENTED_FAILURES = {3, 4}
MIN_GAP_BOUND = -1e-8

mean_curvatures = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
shapes = st.one_of(
    st.floats(-9.0, 9.0).map(lambda e: 10.0 ** e),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-15.0, -1.0)).map(
        lambda sd: 1.0 + sd[0] * 10.0 ** sd[1])).filter(lambda b: b != 1.0)
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


@SETTINGS
@given(h=mean_curvatures, b=shapes)
def test_every_input_gets_a_verdict_or_a_documented_exit(h, b):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--H", repr(h), "--B", repr(b),
                     "--format", "json"])
    if code == 0:
        assert json.loads(out.getvalue())["verdict"] in VERDICTS
    else:
        assert code in DOCUMENTED_FAILURES, err.getvalue()
        assert err.getvalue().startswith("error: ")


@SETTINGS
@given(h1=mean_curvatures, h2=mean_curvatures, b=shapes)
def test_verdict_does_not_depend_on_h(h1, h2, b):
    assert (classify(DelaunayParams(h1, b)).verdict
            == classify(DelaunayParams(h2, b)).verdict)


@SETTINGS
@given(h=mean_curvatures, b=shapes)
def test_pinched_min_gap_is_nonnegative(h, b):
    rep = classify(DelaunayParams(h, b))
    if rep.verdict == VERDICT_PINCHED:
        assert rep.portion.min_gap >= MIN_GAP_BOUND
        # the gap grid holds the neck s = 0, where the gap is exactly 0
        assert rep.portion.min_gap <= 0.0

"""The sampled oracle for the freeboundary theorem.

On every portion the proof's hypotheses hold (the proof is in the
cmcpinch.freeboundary docstring): u <= 0 on an unduloid and u >= 0 on a
nodoid, k1 u >= 0 and lambda2 >= 0, so the gap is >= 0, and 0 at the
neck, and every point lies in the ball of radius R0, which the profile
meets orthogonally at s_bar.  build_portion samples none of this; the
tests sample it here, at AC4's PORTION_SAMPLES points and bounds.
"""
import numpy as np

from cmcpinch.curvature import analyze_point
from cmcpinch.delaunay import NODOID, profile
from cmcpinch.verify import PORTION_SAMPLES

MIN_GAP_BOUND = -1e-8
# relative excess of |P|^2 over R0^2 allowed on a portion
ENCLOSURE_REL_TOL = 1e-9
# |u(s_bar)| / R0, the orthogonality residual's scale; the two ends may
# have the wrong sign of u, and of k1 u, up to it
RESIDUAL_REL_TOL = 5e-11
# R0 |x'(s_bar)| / x(s_bar) is 1 where P(s_bar) is along the tangent
TANGENT_TOL = 1e-6


def sampled_min_gap(params, portion) -> float:
    """The least gap at PORTION_SAMPLES points of [-s_bar, s_bar].

    Asserts each hypothesis above on the samples, each message naming
    params and the subcheck: the sign of u for the family, k1 u >= 0,
    lambda2 >= 0, gap >= MIN_GAP_BOUND, (x/R0)^2 + (z/R0)^2 <= 1 + 1e-9,
    |u(s_bar)|/R0 <= RESIDUAL_REL_TOL and R0 |x'(s_bar)|/x(s_bar) = 1
    within TANGENT_TOL.  The ball is read in units of R0, so that no
    square overflows at any H.
    """
    R0 = portion.R0
    ss = np.linspace(-portion.s_bar, portion.s_bar, PORTION_SAMPLES)
    st = profile(params, ss)
    pa = analyze_point(st)
    end_slack = RESIDUAL_REL_TOL * R0
    # the wrong sign of u allowed at each sample: end_slack at the ends
    slack = np.zeros(PORTION_SAMPLES)
    slack[[0, -1]] = end_slack
    u = pa.support if params.family == NODOID else -pa.support
    assert np.all(u >= -slack), (params, "sign of u")
    assert np.all(pa.k1 * pa.support >= -slack * np.abs(pa.k1)), (
        params, "k1 u >= 0")
    assert pa.lambda2.min() >= 0.0, (params, "lambda2 >= 0")
    assert pa.gap.min() >= MIN_GAP_BOUND, (params, "gap >= -1e-8")
    assert np.all((st.x / R0) ** 2 + (st.z / R0) ** 2
                  <= 1.0 + ENCLOSURE_REL_TOL), (params, "ball")
    for i in (0, -1):
        assert abs(pa.support[i]) <= end_slack, (params, "|u(s_bar)|/R0")
        assert abs(R0 * abs(st.dx[i]) / st.x[i] - 1.0) <= TANGENT_TOL, (
            params, "R0 |x'(s_bar)|/x(s_bar) = 1")
    return float(pa.gap.min())

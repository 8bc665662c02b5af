"""The sampled oracle for the freeboundary theorem.

On every portion the gap is >= 0, and 0 at the neck, and every point
lies in the ball of radius R0 (the proof is in the cmcpinch.freeboundary
docstring).  build_portion no longer samples either fact; the tests
sample them here, at AC4's PORTION_SAMPLES points and bounds.
"""
import numpy as np

from cmcpinch.curvature import analyze_point
from cmcpinch.delaunay import profile, z_many
from cmcpinch.verify import PORTION_SAMPLES

MIN_GAP_BOUND = -1e-8
# relative excess of |P|^2 over R0^2 allowed on a portion
ENCLOSURE_REL_TOL = 1e-9


def sampled_min_gap(params, portion) -> float:
    """The least gap at PORTION_SAMPLES points of [-s_bar, s_bar].

    Asserts that no sampled gap is below MIN_GAP_BOUND and that every
    sample lies in the ball of radius R0, 1e-9 relative.
    """
    ss = np.linspace(-portion.s_bar, portion.s_bar, PORTION_SAMPLES)
    st = profile(params, ss, z_many(params, ss))
    gap = analyze_point(st).gap
    assert gap.min() >= MIN_GAP_BOUND
    assert np.all(st.x * st.x + st.z * st.z
                  <= portion.R0 * portion.R0 * (1.0 + ENCLOSURE_REL_TOL))
    return float(gap.min())

"""Delaunay surface portions with free boundary in a ball.

Construct constant mean curvature surfaces of revolution (cylinders,
unduloids, nodoids), find the symmetric portions that meet a centred
sphere orthogonally, and verify the pointwise pinching inequality

    |Phi|^2 <x, N>^2  <=  (1/2) (2 + H <x, N>)^2

over those portions, together with the sequence of points where it
fails outside them.
"""
from .curvature import analyze_point
from .delaunay import DelaunayParams, eval_state, profile, z_many, z_of
from .freeboundary import (VERDICT_CYLINDER, VERDICT_NO_ORTHOGONAL,
                           VERDICT_PINCHED, NoRootError, build_portion,
                           classify, find_sbar, nodoid_find_rbar,
                           violation_points)
from .mesh import revolve
from .numerics import (DEFAULT_ROOT, IterationLimitError, NonFiniteError,
                       NoSignChangeError, RootConfig)
from .verify import run_checks

__version__ = "0.1.0"

# the README's library paragraph documents exactly these names
__all__ = [
    "DEFAULT_ROOT", "DelaunayParams", "IterationLimitError",
    "NoRootError", "NoSignChangeError", "NonFiniteError", "RootConfig",
    "VERDICT_CYLINDER", "VERDICT_NO_ORTHOGONAL", "VERDICT_PINCHED",
    "analyze_point", "build_portion", "classify", "eval_state", "find_sbar",
    "nodoid_find_rbar", "profile", "revolve", "run_checks",
    "violation_points", "z_many", "z_of",
]

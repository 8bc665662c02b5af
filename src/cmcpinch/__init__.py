"""Delaunay surface portions with free boundary in a ball.

Construct constant mean curvature surfaces of revolution (cylinders,
unduloids, nodoids), find the symmetric portions that meet a centred
sphere orthogonally, and verify the pointwise pinching inequality

    |Phi|^2 <x, N>^2  <=  (1/2) (2 + H <x, N>)^2

over those portions, together with the sequence of points where it
fails outside them.  classify is the one route to a portion; the module
functions build_portion and eval_state are not exported.
"""
from ._np import lazy as _lazy
from .curvature import analyze_point
from .delaunay import DelaunayParams, profile, z_many, z_of
from .freeboundary import (VERDICT_CYLINDER, VERDICT_NO_ORTHOGONAL,
                           VERDICT_PINCHED, NoRootError, classify,
                           violation_points)
from .numerics import (DEFAULT_ROOT, IterationLimitError, NonFiniteError,
                       NoSignChangeError, RootConfig)

__version__ = "0.1.0"

# the README's library paragraph documents exactly these names
__all__ = [
    "DEFAULT_ROOT", "DelaunayParams", "IterationLimitError",
    "NoRootError", "NoSignChangeError", "NonFiniteError", "RootConfig",
    "VERDICT_CYLINDER", "VERDICT_NO_ORTHOGONAL", "VERDICT_PINCHED",
    "analyze_point", "classify", "profile", "revolve", "run_checks",
    "violation_points", "z_many", "z_of",
]

# revolve and run_checks are bound on first read, so import cmcpinch runs
# neither mesh nor verify
_DEFERRED = {"revolve": _lazy("cmcpinch.mesh"),
             "run_checks": _lazy("cmcpinch.verify")}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(_DEFERRED[name], name)
    return value

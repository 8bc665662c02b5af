"""Delaunay surface portions with free boundary in a ball.

Construct constant mean curvature surfaces of revolution (cylinders,
unduloids, nodoids), find the symmetric portions that meet a centred
sphere orthogonally, and verify the pointwise pinching inequality

    |Phi|^2 <x, N>^2  <=  (1/2) (2 + H <x, N>)^2

over those portions, together with the sequence of points where it
fails outside them.
"""
from .curvature import (PointAnalysis, analyze_point, assemble_analysis,
                        principal_curvatures, support_function)
from .delaunay import (CYLINDER, NODOID, UNDULOID, DelaunayParams,
                       GeneratrixState, eval_state, profile, z_many, z_of)
from .freeboundary import (VERDICT_CYLINDER, VERDICT_INVALID,
                           VERDICT_NO_ORTHOGONAL, VERDICT_PINCHED,
                           AnalysisReport, FreeBoundaryPortion,
                           NoRootError, ViolationPoint,
                           build_portion, check_profile_conditions, classify,
                           find_n0, find_sbar, g_function, nodoid_find_rbar,
                           nodoid_r0, s0, violation_points, z0)
from .mesh import TriangleMesh, export_obj, export_obj_scene, revolve, sphere
from .numerics import (DEFAULT_QUADRATURE, DEFAULT_ROOT, IterationLimitError,
                       NoSignChangeError, QuadratureConfig, RootConfig,
                       SubdivisionLimitError, find_root, integrate)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "CheckResult", "CYLINDER", "DEFAULT_QUADRATURE",
    "DEFAULT_ROOT", "DelaunayParams",
    "FreeBoundaryPortion", "GeneratrixState", "IterationLimitError",
    "NODOID", "NoRootError", "NoSignChangeError", "PointAnalysis",
    "QuadratureConfig", "RootConfig", "SubdivisionLimitError",
    "TriangleMesh", "UNDULOID", "VERDICT_CYLINDER", "VERDICT_INVALID",
    "VERDICT_NO_ORTHOGONAL", "VERDICT_PINCHED", "ViolationPoint",
    "analyze_point", "assemble_analysis", "build_portion",
    "check_profile_conditions", "classify", "eval_state", "export_obj",
    "export_obj_scene", "find_n0", "find_root", "find_sbar", "g_function",
    "integrate", "nodoid_find_rbar", "nodoid_r0", "principal_curvatures",
    "profile", "revolve", "run_checks", "s0", "sphere", "support_function",
    "violation_points", "z0", "z_many", "z_of",
]

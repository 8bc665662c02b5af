"""Pointwise curvature, support function, and the pinching gap.

For a profile point with unit tangent (x', z') and outward normal
N = (-z', x') rotated into the surface normal, the principal curvatures
of the revolved surface are

    k1 = x' z'' - x'' z'        (meridian direction)
    k2 = z' / x                 (parallel direction)

and k1 + k2 = H identically.  The support function u = <position, N>
restricted to the profile plane is u = x' z - x z'.  The quantities
derived from these:

    lambda1 = 1 + k1 u,  lambda2 = 1 + k2 u
        eigenvalues of the Hessian of |position|^2 / 2 on the surface
    phi_sq = (k1 - k2)^2 / 2
        squared norm of the traceless second fundamental form
    gap = (2 + (k1 + k2) u)^2 / 2 - phi_sq u^2 = 2 lambda1 lambda2
        the pinching quantity; gap >= 0 is the pinching inequality

The gap is computed as the product 2 lambda1 lambda2, with lambda2 in
the factored form x' (x x' + z z') / x, which is 1 + k2 u once
x'^2 + z'^2 = 1 is used.  x x' + z z' = (|position|^2 / 2)', and on a
portion both of its terms and x' have the sign of s, so lambda2 >= 0
there with no cancellation.  The difference form cancels O(B^2) terms:
at B = 1e12 it is off by about 2e8 where the true minimum is about
2.85.  The verify battery's AC5 keeps it as the identity it checks.

A sphere of radius rho tangent from inside has k1 = k2 = 1/rho and
u = -rho, which gives gap = 0: spheres sit exactly on the equality case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delaunay import GeneratrixState


@dataclass(frozen=True)
class PointAnalysis:
    """Curvature and gap data, floats or arrays like the state analysed."""

    s: float
    k1: float
    k2: float
    mean_curv: float
    support: float
    lambda1: float
    lambda2: float
    phi_sq: float
    gap: float


def principal_curvatures(st: GeneratrixState) -> tuple[float, float]:
    k1 = st.dx * st.ddz - st.ddx * st.dz
    k2 = st.dz / st.x
    return k1, k2


def support_function(st: GeneratrixState) -> float:
    """u = <position, normal> for the profile point st."""
    return st.dx * st.z - st.x * st.dz


def analyze_point(st: GeneratrixState) -> PointAnalysis:
    """Curvature and gap data at the profile point st, or at each point of
    an array state.  Only st is read; on a Delaunay profile mean_curv
    reproduces the surface's H up to rounding."""
    k1, k2 = principal_curvatures(st)
    u = support_function(st)
    lambda1 = 1.0 + k1 * u
    lambda2 = st.dx * (st.x * st.dx + st.z * st.dz) / st.x
    # float_power calls C pow as float ** does; ** on arrays multiplies,
    # which differs in the last bit for ~1 argument in 1000 and would
    # split array and scalar phi_sq
    phi_sq = 0.5 * np.float_power(k1 - k2, 2.0)
    return PointAnalysis(s=st.s, k1=k1, k2=k2, mean_curv=k1 + k2, support=u,
                         lambda1=lambda1, lambda2=lambda2, phi_sq=phi_sq,
                         gap=2.0 * lambda1 * lambda2)

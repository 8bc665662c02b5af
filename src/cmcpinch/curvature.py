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

from ._record import Record
from .delaunay import GeneratrixState


class PointAnalysis(Record):
    """Curvature and gap data, floats or arrays like the state analysed."""

    __slots__ = _fields = ("k1", "k2", "mean_curv", "support", "lambda1",
                           "lambda2", "phi_sq", "gap")

    def __init__(self, k1: float, k2: float, mean_curv: float,
                 support: float, lambda1: float, lambda2: float,
                 phi_sq: float, gap: float) -> None:
        self.k1 = k1
        self.k2 = k2
        self.mean_curv = mean_curv
        self.support = support
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.phi_sq = phi_sq
        self.gap = gap


def support_function(st: GeneratrixState) -> float:
    """u = <position, normal> for the profile point st."""
    return st.dx * st.z - st.x * st.dz


def analyze_point(st: GeneratrixState) -> PointAnalysis:
    """Curvature and gap data at the profile point st, or at each point of
    an array state.  Only st is read; on a Delaunay profile mean_curv
    reproduces the surface's H up to rounding."""
    k1 = st.dx * st.ddz - st.ddx * st.dz
    k2 = st.dz / st.x
    u = support_function(st)
    lambda1 = 1.0 + k1 * u
    lambda2 = st.dx * (st.x * st.dx + st.z * st.dz) / st.x
    d = k1 - k2
    phi_sq = 0.5 * (d * d)
    return PointAnalysis(k1=k1, k2=k2, mean_curv=k1 + k2, support=u,
                         lambda1=lambda1, lambda2=lambda2, phi_sq=phi_sq,
                         gap=2.0 * lambda1 * lambda2)

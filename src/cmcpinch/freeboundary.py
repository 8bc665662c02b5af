"""Free boundary portions in a ball and the pinching verdict.

A portion of a Delaunay surface between arc-length values -sb and +sb
meets the sphere of radius R0 = |(x(sb), z(sb))| orthogonally exactly
when the support function vanishes at sb.  With z'(sb) != 0 that is the
same as a zero of

    g(s) = x(s) - (x'(s) / z'(s)) z(s),

since u = x' z - x z' = -z' g.  This module locates such zeros, builds
the resulting portion, checks the pointwise pinching gap over it, and
produces the sequence of points outside the portion where the gap goes
negative.

Unduloid dichotomy (0 < B < 1).  Let s0 = arccos(B) / H be the first
positive zero of x'' (the inflection of the profile radius) and
z0 = (1 - B^2) / (H B).  Then g(s0) <= 0 exactly when z(s0) >= z0, and:

* z(s0) <  z0: g > 0 on (0, s0]; no orthogonal crossing, no portion.
* z(s0) >= z0: g crosses zero at a unique sb in (0, s0], giving a free
  boundary portion on [-sb, sb].

Nodoid case (B > 1).  On the inner branch (0, r0) with
r0 = arccos(1/B) / H, g decreases from (B - 1)/H > 0 to -infinity, so a
root rb always exists and the portion is [-rb, rb].

Violation sequence (unduloid, B > 0).  At t_n = (2 n pi - arccos B) / H
the meridian curvature contribution gives lambda1 = 1 exactly, while
lambda2 = B H (B/H - z(t_n)), so the gap = 2 lambda1 lambda2 is negative
exactly where z(t_n) > B/H.  That holds from n = 1 on: n0, the first such
index, is 1, and the pinching inequality fails at every t_n outside the
portion.  Proof: with c = cos(H s), z' = (1 - B c) / sqrt(1 + B^2 - 2 B c)
is positive, and where c <= 0

    2 (1 - B c)^2 - (1 + B^2 - 2 B c) = (1 - B^2) - 2 B c + 2 B^2 c^2 > 0,

so z' > 1/sqrt(2) on [pi/2, 3pi/2] / H.  That interval lies in [0, t_1]
because arccos B < pi/2, hence H z(t_1) > pi/sqrt(2) > 1 > B, and z(t_n)
only grows with n.

Canonical units.  The surface (H, B) is the surface (1, B) scaled by
1/H, and the verdict, lambda1, lambda2 and the gap do not change under
dilation.  classify and the crossing finder therefore solve at H = 1 and
divide every length (s0, z0, z(s0), sb, R0, the residual u(sb), t_n) by
H, so a verdict depends on B alone and the root tolerance bounds H s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .curvature import analyze_point, support_function
from .delaunay import (CYLINDER, NODOID, UNDULOID, DelaunayParams,
                       GeneratrixState, eval_state, profile, z_many, z_of)
from .numerics import (DEFAULT_ROOT, IterationLimitError, RootConfig,
                       find_root)

VERDICT_PINCHED = "PinchedFreeBoundaryPortion"
VERDICT_NO_ORTHOGONAL = "NoOrthogonalIntersection"
VERDICT_CYLINDER = "Cylinder"
VERDICT_INVALID = "Invalid"

# uniform gap samples over [-sb, sb]; odd, so the centre sample is the
# neck s = 0, where lambda2 (and with it the gap) is exactly 0
GAP_SAMPLES = 2049


class NoRootError(ValueError):
    """The requested orthogonal-crossing root does not exist."""


class EnclosureError(RuntimeError):
    """A sampled portion point fell outside the bounding ball."""


class ViolationPoint(NamedTuple):
    n: int
    t: float
    lambda2: float
    gap: float


@dataclass(frozen=True)
class FreeBoundaryPortion:
    """A symmetric profile arc meeting its bounding sphere orthogonally."""

    s_bar: float
    R0: float
    scaled_params: DelaunayParams
    min_gap: float
    orthogonality_residual: float


@dataclass(frozen=True)
class AnalysisReport:
    params: DelaunayParams
    verdict: str
    s0: Optional[float] = None
    r0: Optional[float] = None
    z0: Optional[float] = None
    z_at_s0: Optional[float] = None
    portion: Optional[FreeBoundaryPortion] = None
    violations: list[ViolationPoint] = field(default_factory=list)
    n0: Optional[int] = None

    def at(self, H: float) -> AnalysisReport:
        """The report of the same shape B at mean curvature H.

        Every length is divided by k = H / params.H; the verdict, n0, the
        gaps and lambda2 are dilation-invariant.  From an H = 1 report,
        k is H itself, which is how classify builds every report.  A
        length that is not a finite float at H raises OverflowError.
        """
        k = H / self.params.H

        def length(v: Optional[float]) -> Optional[float]:
            return None if v is None else _scaled_length(v, k)

        p = self.portion
        if p is not None:
            r0 = length(p.R0)
            p = replace(p, s_bar=length(p.s_bar), R0=r0,
                        scaled_params=DelaunayParams(H * r0, self.params.B),
                        orthogonality_residual=length(
                            p.orthogonality_residual))
        return replace(
            self, params=DelaunayParams(H, self.params.B),
            s0=length(self.s0), r0=length(self.r0), z0=length(self.z0),
            z_at_s0=length(self.z_at_s0), portion=p,
            violations=[v._replace(t=length(v.t)) for v in self.violations])


def _scaled_length(length: float, k: float) -> float:
    """length / k, the length on the surface dilated by 1/k.

    Raises OverflowError where the quotient is not a finite float (H =
    1e-310 makes every length of an H = 1 report inf), so no command
    prints inf or nan for a valid input.
    """
    out = length / k
    if not math.isfinite(out):
        raise OverflowError(f"the length {length!r} / {k!r} is not a "
                            "finite float")
    return out


def g_function(st: GeneratrixState) -> float:
    """g = x - (x'/z') z, zero iff u is; ZeroDivisionError where z' = 0."""
    if np.any(st.dz == 0.0):
        raise ZeroDivisionError("g is undefined where z' = 0")
    return st.x - (st.dx / st.dz) * st.z


def s0(params: DelaunayParams) -> float:
    """First positive zero of x'' for an unduloid: arccos(B) / H."""
    if params.family != UNDULOID:
        raise ValueError("s0 is defined for unduloids only")
    return math.acos(params.B) / params.H


def z0(params: DelaunayParams) -> float:
    """Height threshold (1 - B^2) / (H B) of the unduloid dichotomy."""
    if params.family != UNDULOID:
        raise ValueError("z0 is defined for unduloids only")
    return (1.0 - params.B * params.B) / (params.H * params.B)


def _g_of_s(params: DelaunayParams):
    def g(s: float) -> float:
        return g_function(eval_state(params, s))
    return g


def find_sbar(params: DelaunayParams,
              root_cfg: RootConfig = DEFAULT_ROOT) -> float:
    """Orthogonal-crossing arc length sb in (0, s0] for an unduloid.

    Raises NoRootError when z(s0) < z0, which is exactly the case g > 0
    throughout (0, s0].  The root search runs to bracket collapse, so
    sb carries x_tol accuracy in the units of params; classify and the
    CLI call it at H = 1 only, where x_tol bounds H sb.
    """
    s_top = s0(params)
    if z_of(params, s_top) < z0(params):
        raise NoRootError(
            "no orthogonal sphere crossing: z(s0) < (1 - B^2)/(H B)")
    return find_root(_g_of_s(params), 0.0, s_top, root_cfg)


def nodoid_r0(params: DelaunayParams) -> float:
    """End of the inner nodoid branch: arccos(1/B) / H, where z' = 0."""
    if params.family != NODOID:
        raise ValueError("r0 is defined for nodoids only")
    return math.acos(1.0 / params.B) / params.H


def nodoid_find_rbar(params: DelaunayParams,
                     root_cfg: RootConfig = DEFAULT_ROOT) -> float:
    """Orthogonal-crossing arc length rb in (0, r0) for a nodoid.

    g(0) = (B - 1)/H > 0 and g -> -infinity approaching r0, so a root
    always exists; the upper bracket end is walked toward r0 until g
    turns negative.  Where the walk ends with g still positive (seen
    for B from 1e16 on) it raises IterationLimitError: the crossing
    exists but was not found.
    """
    r_top = nodoid_r0(params)
    g = _g_of_s(params)
    hi = r_top * (1.0 - 1e-3)
    for _ in range(60):
        if g(hi) <= 0.0:
            break
        hi = r_top - 0.5 * (r_top - hi)
    else:
        raise IterationLimitError(
            "could not bracket the nodoid crossing below r0")
    return find_root(g, 0.0, hi, root_cfg)


def check_profile_conditions(st: GeneratrixState) -> tuple[bool, bool, bool]:
    """Pointwise sufficient conditions (c1, c2, c3) for the gap bound.

    c1: z' != 0 and x'' g >= -1
    c2: z' == 0 (within 1e-12) and z z'' >= -1
    c3: -x x'^2 <= z' x' z

    (c1 or c2) together with c3 imply gap >= 0 at the point.  For an
    array state the three are boolean arrays.
    """
    g, off_zero_set = _g_off_zero_set(st)
    c1 = off_zero_set & (st.ddx * g >= -1.0)
    c2 = ~off_zero_set & (st.z * st.ddz >= -1.0)
    c3 = -st.x * st.dx * st.dx <= st.dz * st.dx * st.z
    return c1, c2, c3


def _g_off_zero_set(st: GeneratrixState):
    """g, and where |z'| >= 1e-12; g is meaningless elsewhere."""
    off = np.abs(st.dz) >= 1e-12
    return g_function(replace(st, dz=np.where(off, st.dz, 1.0))), off


def _find_crossing(params: DelaunayParams, root_cfg: RootConfig
                   ) -> tuple[float, float, float]:
    """sb, R0 and the residual |u(sb)| of the orthogonal crossing.

    They are solved on the H = 1 surface of params.B, where x_tol bounds
    H sb, and divided by H.  Raises NoRootError where there is none,
    ValueError when x_tol is so wide that the search stops at s = 0,
    which is never a root: g(0) = |1 - B| / H > 0, and OverflowError
    when a length divided by H is not a finite float.
    """
    unit = DelaunayParams(1.0, params.B)
    family = params.family
    if family == UNDULOID:
        sb = find_sbar(unit, root_cfg)
    elif family == NODOID:
        sb = nodoid_find_rbar(unit, root_cfg)
    else:
        raise NoRootError(
            "a cylinder never meets a centred sphere orthogonally")
    if sb == 0.0:
        raise ValueError(f"root tolerance x_tol={root_cfg.x_tol!r} stopped "
                         "the crossing search at s = 0, which is no crossing")
    boundary = eval_state(unit, sb)
    H = params.H
    return tuple(_scaled_length(v, H) for v in (
        sb, math.hypot(boundary.x, boundary.z),
        abs(support_function(boundary))))


def build_portion(params: DelaunayParams,
                  root_cfg: RootConfig = DEFAULT_ROOT) -> FreeBoundaryPortion:
    """Locate the crossing, measure R0, and scan the gap over the portion.

    The crossing comes from _find_crossing (solved at H = 1).  The gap
    is sampled in one array pass at GAP_SAMPLES uniform points over
    [-sb, sb], and min_gap is their minimum.  The centre sample is the
    neck s = 0, where x' = 0 makes lambda2 and the gap exactly 0.  Every
    sample is checked to lie inside the ball of radius R0 (1e-9 relative
    tolerance); a point outside raises EnclosureError since the
    construction guarantees containment.
    """
    sb, r0, residual = _find_crossing(params, root_cfg)

    ss = np.linspace(-sb, sb, GAP_SAMPLES)
    st = profile(params, ss, z_many(params, ss))
    outside = st.x * st.x + st.z * st.z > r0 * r0 * (1.0 + 1e-9)
    if outside.any():
        s_out = float(ss[outside.argmax()])
        raise EnclosureError(
            f"portion sample at s={s_out!r} lies outside radius {r0!r}")
    gaps = analyze_point(params, st).gap
    scaled = DelaunayParams(params.H * r0, params.B)
    return FreeBoundaryPortion(s_bar=sb, R0=r0, scaled_params=scaled,
                               min_gap=float(gaps.min()),
                               orthogonality_residual=residual)


def violation_points(params: DelaunayParams, count: int
                     ) -> list[ViolationPoint]:
    """First `count` members of the violation sequence t_n.

    t_n = (2 n pi - arccos B) / H, so H t_n / 2 = n pi - arccos(B) / 2 and
    z(t_n) is the closed form's G(-arccos(B) / 2) / H plus n periods of
    2 G(pi/2) / H each.
    """
    if params.family != UNDULOID:
        raise ValueError("the violation sequence needs an unduloid with B > 0")
    if count < 1:
        raise ValueError("count must be at least 1")
    acb = math.acos(params.B)
    n = np.arange(1, count + 1)
    t = (2.0 * math.pi * n - acb) / params.H
    pa = analyze_point(params, profile(params, t, z_many(params, t)))
    return [ViolationPoint(n=k, t=tk, lambda2=l2, gap=gap)
            for k, tk, l2, gap in zip(n.tolist(), t.tolist(),
                                      pa.lambda2.tolist(), pa.gap.tolist())]


def find_n0(params: DelaunayParams) -> int:
    """Smallest n with z(t_n) > B/H, i.e. the first negative-gap index.

    It is 1 for every unduloid: z' > 1/sqrt(2) on [pi/2, 3pi/2] / H,
    which lies inside [0, t_1], so H z(t_1) > pi/sqrt(2) > B (module
    docstring).  No height is evaluated.
    """
    if params.family != UNDULOID:
        raise ValueError("the violation sequence needs an unduloid with B > 0")
    return 1


def classify(params: DelaunayParams,
             root_cfg: RootConfig = DEFAULT_ROOT) -> AnalysisReport:
    """Full analysis of one parameter pair, in canonical units.

    The report is built once for the H = 1 surface of params.B and
    returned as report.at(params.H), every length divided by H, so the
    verdict depends on B alone and root_cfg.x_tol bounds H sb.
    Cylinders never cross a centred sphere orthogonally (u = -1/H is
    constant), unduloids go through the z(s0) vs z0 dichotomy, nodoids
    always produce a portion.  For a pinched unduloid the report also
    carries the violation sequence through n0 + 2.
    """
    unit = DelaunayParams(1.0, params.B)
    family = params.family
    if family == CYLINDER:
        report = AnalysisReport(params=unit, verdict=VERDICT_CYLINDER)
    elif family == UNDULOID:
        s_top = s0(unit)
        z_thresh = z0(unit)
        z_at_top = z_of(unit, s_top)
        if z_at_top < z_thresh:
            report = AnalysisReport(params=unit,
                                    verdict=VERDICT_NO_ORTHOGONAL,
                                    s0=s_top, z0=z_thresh, z_at_s0=z_at_top)
        else:
            n0 = find_n0(unit)
            report = AnalysisReport(
                params=unit, verdict=VERDICT_PINCHED, s0=s_top, z0=z_thresh,
                z_at_s0=z_at_top, portion=build_portion(unit, root_cfg),
                violations=violation_points(unit, n0 + 2), n0=n0)
    else:
        report = AnalysisReport(params=unit, verdict=VERDICT_PINCHED,
                                r0=nodoid_r0(unit),
                                portion=build_portion(unit, root_cfg))
    return report.at(params.H)

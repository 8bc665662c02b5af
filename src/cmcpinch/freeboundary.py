"""Free boundary portions in a ball and the pinching verdict.

A portion of a Delaunay surface between arc-length values -sb and +sb
meets the sphere of radius R0 = |(x(sb), z(sb))| orthogonally exactly
when the support function

    u(s) = x'(s) z(s) - x(s) z'(s)

vanishes at sb.  This module solves u = 0, builds the resulting
portion, on which the pinching gap is nonnegative by the theorem below,
and produces the sequence of points outside the portion where the gap
goes negative.

Unduloid dichotomy (0 < B < 1).  Let s0 = arccos(B) / H be the first
positive zero of x'' (the inflection of the profile radius) and
z0 = (1 - B^2) / (H B).  At s0, x' = B and x = z' = sqrt(1 - B^2) / H,
so u(s0) = B (z(s0) - z0), and:

* z(s0) <  z0: u < 0 on [0, s0]; no orthogonal crossing, no portion.
* z(s0) >= z0: u rises from u(0) = (B - 1)/H < 0 to u(s0) >= 0 and
  crosses zero at a unique sb in (0, s0], giving a free boundary
  portion on [-sb, sb].

The sign of F(B) = z(s0) - z0 at H = 1 is that of z(s0) - z0 at any H
(canonical units, below).  F < 0 on (0, B*) and F > 0 on (B*, 1), with
B* = 0.76589502387205679258...: F changes sign once on a 20,200-point
grid of (0, 1), stdlib decimal decides the floats around B*, and B* is
the mpmath cell "threshold" of tests/golden/reference.json.  That is
evidence, not yet a certificate.  Near B*, F is about 0.88 (B - B*),
below the rounding of z(s0) - z0 (at 0.7658950238720567 F is -1.19e-16
and the float difference 0.0), so classify decides by B > B_STAR_FLOOR,
the largest float below B*, which is exact, and still reports z(s0) and
z0.

Nodoid case (B > 1).  On the inner branch (0, r0) with
r0 = arccos(1/B) / H, u falls from u(0) = (B - 1)/H > 0 to
u(r0) = x' z < 0, so a root rb always exists and the portion is
[-rb, rb].

The solve (classify).  The bracket is [0, s0] or [0, r0], with no walk
toward r0.  Each step is a Newton step on u, with u' = x'' z - x z''
from the same profile evaluation, safeguarded by bisection
(numerics.find_root).  It runs in neck units: the neck radius is
a = |1 - B| / H, and with l = min(1, |1 - B|) / H the bracket closes to
x_tol * l, so sb and R0 carry x_tol relative accuracy however close B
is to 1.  As B -> 1, sb / a -> sinh t0 and R0 / a -> sqrt(cosh^2 t0 +
t0^2) with t0 tanh t0 = 1, the critical catenoid's crossing, and the
first point tried is SINH_T0 * l.  classify keeps each profile state by
s for one call, seeded with the dichotomy's s0 state, so no height is
evaluated twice; the root's state gives R0 and u(sb).

Every portion is pinched, with min gap 0 at the neck, and lies in its
ball.  At H = 1, with c = cos s: x, z', x'' are even and x', z odd, so
u, k1, lambda1, lambda2 are even and [0, sb] suffices.  Unit speed
(x' x'' + z' z'' = 0) gives k1 = -x'' / z'; u(0) = B - 1 and
u' = x'' z - x z''; x'' has the sign of (1 - B c)(c - B), z' that of
1 - B c and z'' that of sin s (B - c).

* Unduloid, sb in (0, s0]: c >= B on [0, sb], so x'' >= 0, z' > 0,
  z >= 0, z'' <= 0.  Then k1 <= 0 and u' >= 0: u rises from B - 1 < 0
  to u(sb) = 0, so u <= 0.
* Nodoid, rb in (0, r0): c > 1/B, so 1 - B c < 0 and c - B < 0, giving
  x'' > 0, z' < 0, z <= 0, z'' >= 0.  Then k1 > 0 and u' <= 0: u falls
  from B - 1 > 0 to u(rb) = 0, so u >= 0.

So k1 u >= 0 and lambda1 = 1 + k1 u >= 1.  x' = B sin s / sqrt(Q) >= 0
and z z' >= 0, so x x' + z z' >= 0 and lambda2 = x' (x x' + z z') / x
>= 0, zero only at the neck s = 0.  The gap 2 lambda1 lambda2 is thus
>= 0 on the portion and 0 only at s = 0, and (|P|^2)' = 2 (x x' + z z')
gives |P| <= |P(sb)| = R0.  This is the H > 0 counterpart of the
equality case of Ambrozio and Nunes' gap theorem (arXiv:1608.05689),
and why the pinching bound is sharp.  The hypotheses hold by
construction: find_root returns a point of its bracket, [0, s0] or
[0, r0] (r0 itself only for a tolerance about as wide as the bracket),
and classify rejects sb = 0.  At the computed sb, u is the reported
residual, not 0, so lambda1 is 1 within |k1| times it.  AC4 and
tests/sampled_portion.py sample the gap and the ball as an oracle, AC13
checks the hypotheses and k1 u >= 0, lambda2 >= 0 on the nodoid
example, and tests/test_reference.py checks them at 50 digits.

Violation sequence (unduloid, B > 0).  At t_n = (2 n pi - arccos B) / H
x'' = z'' = 0 and x' = -B, z' = H x, so lambda1 = 1 and lambda2 =
B (B - H z(t_n)), the closed forms violation_points returns (the general
kernel is the tests' oracle).  z is odd and rises by z(2 pi / H) over
each period, so with s0 = arccos(B) / H

    z(t_n) = n z(2 pi / H) - z(s0),

and two heights give the whole sequence (_sequence, at H = 1).  The gap
2 lambda2 is negative exactly where z(t_n) > B/H, which holds from n = 1
on, so n0 = 1.  Proof: with c = cos(H s), z' = (1 - B c) / sqrt(1 + B^2
- 2 B c) is positive, and where c <= 0

    2 (1 - B c)^2 - (1 + B^2 - 2 B c) = (1 - B^2) - 2 B c + 2 B^2 c^2 > 0,

so z' > 1/sqrt(2) on [pi/2, 3pi/2] / H.  That interval lies in [0, t_1]
because arccos B < pi/2, hence H z(t_1) > pi/sqrt(2) > 1 > B, and z(t_n)
only grows with n, by z(2 pi / H) > 0 a step.

Canonical units.  The surface (H, B) is the surface (1, B) scaled by
1/H; the verdict, lambda1, lambda2, the gap and the portion dilated into
the unit ball (mean curvature H R0, half-length sb / R0) do not change.
classify is the one solve, at H = 1; AnalysisReport.at divides each
length (s0, z0, z(s0), sb, R0, the residual u(sb), t_n) by H and copies
the rest, so those invariants are the H = 1 floats at every H, and the
root tolerance bounds H s / min(1, |1 - B|).  Its n0 is the theorem's
1.  build_portion is its portion.  find_sbar, nodoid_find_rbar (its sb)
and find_n0 (1) have no caller here; bench/tracing.py wraps them by name.
"""
from __future__ import annotations

import math
from typing import Optional

from ._record import Record
from .curvature import support_function
from .delaunay import (CYLINDER, NODOID, UNDULOID, DelaunayParams,
                       eval_state, z_of)
from .numerics import DEFAULT_ROOT, RootConfig, find_root

VERDICT_PINCHED = "PinchedFreeBoundaryPortion"
VERDICT_NO_ORTHOGONAL = "NoOrthogonalIntersection"
VERDICT_CYLINDER = "Cylinder"
VERDICT_INVALID = "Invalid"
# sinh t0, where t0 tanh t0 = 1: the crossing of the critical catenoid in
# units of its neck radius, the B -> 1 limit of sb / a
SINH_T0 = 1.50887956153832
# the largest float below B*, the zero of z(s0) - z0 at H = 1: the
# unduloids with a portion are exactly B > B_STAR_FLOOR
B_STAR_FLOOR = 0.7658950238720568


class NoRootError(ValueError):
    """The requested orthogonal-crossing root does not exist."""


class ViolationPoint(Record):
    __slots__ = _fields = ("n", "t", "lambda2", "gap")

    def __init__(self, n: int, t: float, lambda2: float, gap: float) -> None:
        self.n = n
        self.t = t
        self.lambda2 = lambda2
        self.gap = gap


class FreeBoundaryPortion(Record):
    """A symmetric profile arc meeting its bounding sphere orthogonally;
    scaled_params and s_bar_scaled are the arc in the unit ball, at H = 1."""

    __slots__ = _fields = ("s_bar", "R0", "scaled_params", "s_bar_scaled",
                           "orthogonality_residual")
    min_gap = 0.0  # 0 by theorem, attained at the neck

    def __init__(self, s_bar: float, R0: float,
                 scaled_params: DelaunayParams, s_bar_scaled: float,
                 orthogonality_residual: float) -> None:
        self.s_bar = s_bar
        self.R0 = R0
        self.scaled_params = scaled_params
        self.s_bar_scaled = s_bar_scaled
        self.orthogonality_residual = orthogonality_residual


def _length(key: str, v: Optional[float], k: float,
            size: bool = False) -> Optional[float]:
    """The length v of a report at k times its mean curvature, v / k.

    Raises OverflowError naming the report key where v / k is not a
    finite float, or where a size (sb, R0) underflows to 0.
    """
    if v is None:
        return None
    out = v / k
    if not math.isfinite(out):
        raise OverflowError(f"{key} = {v!r} / {k!r} is not a finite float")
    if size and out == 0.0:
        raise OverflowError(f"{key} = {v!r} / {k!r} underflows to 0")
    return out


class AnalysisReport(Record):
    """The verdict on params and the numbers behind it; violations is a
    new empty list unless given."""

    __slots__ = _fields = ("params", "verdict", "s0", "r0", "z0", "z_at_s0",
                           "portion", "violations", "n0")

    def __init__(self, params: DelaunayParams, verdict: str,
                 s0: Optional[float] = None, r0: Optional[float] = None,
                 z0: Optional[float] = None,
                 z_at_s0: Optional[float] = None,
                 portion: Optional[FreeBoundaryPortion] = None,
                 violations: Optional[list[ViolationPoint]] = None,
                 n0: Optional[int] = None) -> None:
        self.params = params
        self.verdict = verdict
        self.s0 = s0
        self.r0 = r0
        self.z0 = z0
        self.z_at_s0 = z_at_s0
        self.portion = portion
        self.violations = [] if violations is None else violations
        self.n0 = n0

    def at(self, H: float) -> AnalysisReport:
        """The report of the same shape B at mean curvature H.

        Every length is divided by k = H / params.H; all else, the unit-ball
        scaled_params and s_bar_scaled included, is dilation-invariant and
        copied.  From an H = 1 report, k is H itself, as classify builds
        every report.  A length that is not a finite float at H (H =
        1e-310 makes every length of an H = 1 report inf), or a size, sb
        or R0, of 0, raises OverflowError naming it by its report key, so
        no command prints inf, nan or a portion of no size for a valid
        input.
        """
        k = H / self.params.H
        # lengths in report key order (sBar, R0, the residual, s0, r0, z0,
        # zAtS0, t_n), each record's arguments in its _fields order: the
        # first length to fail names the error
        p = self.portion
        if p is not None:
            p = FreeBoundaryPortion(
                _length("sBar", p.s_bar, k, size=True),
                _length("R0", p.R0, k, size=True),
                p.scaled_params, p.s_bar_scaled,
                _length("orthogonalityResidual", p.orthogonality_residual,
                        k))
        return AnalysisReport(
            DelaunayParams(H, self.params.B), self.verdict,
            _length("s0", self.s0, k), _length("r0", self.r0, k),
            _length("z0", self.z0, k), _length("zAtS0", self.z_at_s0, k),
            p,
            [ViolationPoint(v.n, _length(f"violations n={v.n} t", v.t, k),
                            v.lambda2, v.gap) for v in self.violations],
            self.n0)


def _u_of_s(params: DelaunayParams, states: dict):
    # u = x' z - x z' and u' = x'' z - x z'', one profile per s, in states
    def u(s: float) -> tuple[float, float]:
        st = states.get(s)
        if st is None:
            st = states[s] = eval_state(params, s)
        return support_function(st), st.ddx * st.z - st.x * st.ddz
    return u


def find_sbar(params: DelaunayParams,
              root_cfg: RootConfig = DEFAULT_ROOT) -> float:
    """The crossing sb in (0, s0] of an unduloid (module docstring)."""
    if params.family != UNDULOID:
        raise ValueError("find_sbar is defined for unduloids only")
    return build_portion(params, root_cfg).s_bar


def nodoid_find_rbar(params: DelaunayParams,
                     root_cfg: RootConfig = DEFAULT_ROOT) -> float:
    """The crossing rb in (0, r0) of a nodoid (module docstring)."""
    if params.family != NODOID:
        raise ValueError("nodoid_find_rbar is defined for nodoids only")
    return build_portion(params, root_cfg).s_bar


def build_portion(params: DelaunayParams,
                  root_cfg: RootConfig = DEFAULT_ROOT) -> FreeBoundaryPortion:
    """classify(params, root_cfg).portion, the one solve of the crossing.

    Raises NoRootError naming the verdict where classify reports no
    portion, and whatever classify raises.
    """
    rep = classify(params, root_cfg)
    if rep.portion is None:
        raise NoRootError(f"(H, B) = ({params.H!r}, {params.B!r}) is "
                          f"{rep.verdict}, not {VERDICT_PINCHED}")
    return rep.portion


def _sequence(unit: DelaunayParams, z_s0: float, count: int
              ) -> list[ViolationPoint]:
    # t_1..t_count at H = 1, where z(t_n) = n z(2 pi) - z(s0): the rise
    # z(2 pi) is the one height evaluated here
    B, acb, rise = unit.B, math.acos(unit.B), z_of(unit, 2.0 * math.pi)
    points = []
    for n in range(1, count + 1):
        lambda2 = B * (B - (n * rise - z_s0))
        points.append(ViolationPoint(n, 2.0 * math.pi * n - acb, lambda2,
                                     2.0 * lambda2))
    return points


def violation_points(params: DelaunayParams, count: int
                     ) -> list[ViolationPoint]:
    """First `count` members of the violation sequence t_n.

    t_n = (2 n pi - arccos B) / H, where the module docstring gives
    lambda1 = 1 exactly; each point carries that closed form,
    lambda2 = B (B - H z(t_n)) and gap = 2 lambda2.  Two heights at H = 1,
    z(s0) and the period's rise z(2 pi), give every z(t_n), so lambda2
    and the gap are the H = 1 floats at every H, as classify reports them.
    """
    if params.family != UNDULOID:
        raise ValueError("the violation sequence needs an unduloid with B > 0")
    if count < 1:
        raise ValueError("count must be at least 1")
    unit = DelaunayParams(1.0, params.B)
    return [ViolationPoint(v.n, v.t / params.H, v.lambda2, v.gap)
            for v in _sequence(unit, z_of(unit, math.acos(unit.B)), count)]


def find_n0(params: DelaunayParams) -> int:
    """Smallest n with z(t_n) > B/H, i.e. the first negative-gap index.

    It is 1 for every unduloid: z' > 1/sqrt(2) on [pi/2, 3pi/2] / H,
    which lies inside [0, t_1], so H z(t_1) > pi/sqrt(2) > B (module
    docstring), and classify sets that 1 itself.
    """
    if params.family != UNDULOID:
        raise ValueError("the violation sequence needs an unduloid with B > 0")
    return 1


def classify(params: DelaunayParams,
             root_cfg: RootConfig = DEFAULT_ROOT) -> AnalysisReport:
    """Full analysis of one parameter pair, in canonical units.

    The report is built once for the H = 1 surface of params.B and
    returned as report.at(params.H), every length divided by H, so the
    verdict depends on B alone and root_cfg.x_tol bounds
    H sb / min(1, |1 - B|).  Cylinders never cross a centred sphere
    orthogonally (u = -1/H is constant), unduloids go through the z(s0)
    vs z0 dichotomy, decided as B > B_STAR_FLOOR, nodoids always produce
    a portion.  For a pinched unduloid the report also carries n0 = 1,
    the module docstring's theorem, and the violation sequence through
    n0 + 2.  This is the only dichotomy test and the one solve of the
    crossing, each height evaluated once.  Raises ValueError when x_tol
    stops the search at s = 0 and OverflowError when a length over H is
    inf, nan or, for sb and R0, 0.
    """
    B, unit = params.B, DelaunayParams(1.0, params.B)
    family = params.family
    if family == CYLINDER:
        return AnalysisReport(unit, VERDICT_CYLINDER).at(params.H)
    s0 = r0 = z0 = z_at_s0 = violations = n0 = None
    if family == UNDULOID:
        top = s0 = math.acos(B)
        # one s0 state: the reported z(s0) and the search's u(s0)
        states = {top: eval_state(unit, top)}
        z0, z_at_s0 = (1.0 - B * B) / B, states[top].z
        if B <= B_STAR_FLOOR:
            return AnalysisReport(unit, VERDICT_NO_ORTHOGONAL, s0, r0, z0,
                                  z_at_s0).at(params.H)
    else:
        top = r0 = math.acos(1.0 / B)
        states = {}
    # the zero of u in [0, top] in neck units (module docstring): with
    # neck = min(1, |1 - B|) the bracket closes to x_tol * neck and the
    # first point tried after the ends is SINH_T0 * neck; states keeps
    # every state the search evaluates, the root's too
    neck = min(1.0, abs(1.0 - B))
    cfg = RootConfig(max(root_cfg.x_tol * neck, math.ulp(0.0)),
                     root_cfg.max_iterations)
    sb = find_root(_u_of_s(unit, states), 0.0, top, cfg, SINH_T0 * neck)
    if family == UNDULOID:
        violations, n0 = _sequence(unit, z_at_s0, 3), 1
    # s = 0, where u = B - 1 != 0, is no crossing
    if sb == 0.0:
        raise ValueError(f"root tolerance x_tol={root_cfg.x_tol!r} stopped "
                         "the crossing search at s = 0, which is no crossing")
    boundary = states[sb]
    R0 = math.hypot(boundary.x, boundary.z)
    portion = FreeBoundaryPortion(sb, R0, DelaunayParams(R0, B), sb / R0,
                                  abs(support_function(boundary)))
    return AnalysisReport(unit, VERDICT_PINCHED, s0, r0, z0, z_at_s0,
                          portion, violations, n0).at(params.H)

"""The acceptance battery, one registration per check.

Each check is declared once, by the _check decorator, with its id and
description; registration appends it to CHECKS, so the battery runs in
declaration order.  A check body receives the shared _Context and a
_Ratios collector and returns only its detail string (or None).  It
reports a worst residual *ratio*: the largest observed residual divided
by that subcheck's tolerance.  A ratio at or below 1 passes.  Structural
requirements (verdict strings, mesh topology) contribute ratio 0 when
satisfied and infinity when not.  A body that raises fails with ratio
infinity, under its own id and description, and the exception as its
detail.

The checks deliberately follow independent routes where the point is
redundancy: the closed-form height is checked against the fixed-grid
composite Simpson rule (numerics.integrate, used only here) on z' in
its cos form, which shares no code with the closed form or with
profile's half-angle z'; the closed-form derivatives are compared
against central differences; the mesh check re-parses the exported OBJ
text rather than trusting the arrays it came from.  AC1-AC3, AC11 and
AC13 read s0, z0, z(s0), n0, t_n and r0 from the examples' classify
reports, the ones analyze prints; AC11 checks the bound
H z(t_1) > pi/sqrt(2) > B that makes n0 = 1.

AC5-AC8 share one seeded sample set of 1000 points over all three
families (_Context.sample_rows), drawn as four seeded columns (family
pick, B, H, s), evaluated as arrays with per-row (H, B) and bounded a
table at a time; AC8 evaluates s + h and s - h as the two halves of
one more array call.  AC4 and AC13 read their boundary and neck points
from their own grids, and AC9 and AC10 evaluate their points as one
array each; AC11 and AC15 evaluate their few points through the float
path, eval_state, and tests hold the float and array paths equal bit
for bit.  AC16 hands np.loadtxt each OBJ block as lines, split from one
latin-1 decode of its bytes.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from ._np import np
from .curvature import PointAnalysis, analyze_point
from .delaunay import (DelaunayParams, GeneratrixState, eval_state, profile,
                       z_of)
from .freeboundary import (AnalysisReport, FreeBoundaryPortion,
                           build_portion, classify)
from .mesh import export_obj, revolve
from .numerics import DEFAULT_ROOT, RootConfig, integrate

EXAMPLE = DelaunayParams(0.1, 0.9)
NODOID_EXAMPLE = DelaunayParams(1.0, 1.5)
# points of [-sb, sb] where AC4 samples the gap, an oracle for min_gap = 0
PORTION_SAMPLES = 2049

# reference values for the (H, B) = (0.1, 0.9) worked example
S0_REF = 4.51026
Z0_REF = 19.0 / 9.0
Z_AT_S0_REF = 2.71697

# z(2.0) frozen from a 10^6-panel composite Simpson rule;
# tests/test_reference.py holds each within 1e-12 of mpmath
Z2_ORACLE_PAIRS = [
    ((0.1, 0.3), 1.997602923785724),
    ((0.1, 0.9), 1.5430733456176617),
    ((0.1, 1.5), -1.8903313685563665),
    ((1.0, 0.3), 1.9397928252889742),
    ((1.0, 0.9), 1.256203318159944),
    ((1.0, 1.5), 0.06574153375893992),
]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    passed: bool
    worst_ratio: float
    detail: str = ""


class _Ratios:
    """Collects residual/tolerance ratios and boolean requirements."""

    def __init__(self) -> None:
        self.worst = 0.0
        self.ok = True

    def bound(self, residual, tol) -> None:
        """Bound a float or a table; a ratio that is not finite is inf."""
        q = np.abs(residual) / tol
        ratio = float(np.where(np.isfinite(q), q, math.inf).max())
        self.worst = max(self.worst, ratio)
        self.ok = self.ok and ratio <= 1.0

    def require(self, condition: bool) -> None:
        if not condition:
            self.worst = math.inf
            self.ok = False


class _Shapes(NamedTuple):
    """One H and one B per sample row, read as params by profile."""

    H: np.ndarray
    B: np.ndarray


class _Context:
    """Tolerances and the inputs several checks share, each built once.

    A cached property that raises is not cached, so every check that
    reads it fails with the same exception.
    """

    def __init__(self, root: RootConfig) -> None:
        self.root = root

    @cached_property
    def example(self) -> AnalysisReport:
        return classify(EXAMPLE, self.root)

    @cached_property
    def nodoid(self) -> AnalysisReport:
        return classify(NODOID_EXAMPLE, self.root)

    # a report without a portion re-solves, so NoRootError names its verdict
    @cached_property
    def example_portion(self) -> FreeBoundaryPortion:
        return self.example.portion or build_portion(EXAMPLE, self.root)

    @cached_property
    def nodoid_portion(self) -> FreeBoundaryPortion:
        return self.nodoid.portion or build_portion(NODOID_EXAMPLE, self.root)

    @cached_property
    def sample_rows(self) -> tuple[_Shapes, GeneratrixState, PointAnalysis]:
        """1000 random rows over all families, as one array state.

        Four seeded columns of uniform draws give each row its family
        pick, B (0 for a cylinder), H and s in (-span, span); z, the
        profile and the analysis then run once on arrays with per-row H
        and B.
        """
        pick, u_b, u_h, u_s = np.random.default_rng(20260819).random(
            (4, 1000))
        b = np.where(pick < 0.1, 0.0,
                     np.where(pick < 0.55, 0.05 + 0.85 * u_b,
                              1.15 + 1.35 * u_b))
        h = 0.2 + 1.8 * u_h
        span = np.minimum(6.0, 2.0 * math.pi / h)
        s = span * (2.0 * u_s - 1.0)
        shapes = _Shapes(h, b)
        st = profile(shapes, s)
        return shapes, st, analyze_point(st)


# (check id, run(ctx) -> CheckResult) in battery order, filled by _check
CHECKS: list[tuple[str, Callable[[_Context], CheckResult]]] = []


def _check(check_id: str, description: str):
    """Register fn(ctx, r) -> detail as the next check of the battery."""
    def register(fn: Callable[[_Context, _Ratios], Optional[str]]):
        def run(ctx: _Context) -> CheckResult:
            r = _Ratios()
            try:
                detail = fn(ctx, r) or ""
            except Exception as exc:
                return CheckResult(check_id, description, False, math.inf,
                                   f"{type(exc).__name__}: {exc}")
            return CheckResult(check_id, description, r.ok, r.worst, detail)
        CHECKS.append((check_id, run))
        return fn
    return register


@_check("AC1", "s0(0.1, 0.9) matches 4.51026 within 1e-4")
def _check_s0_reference(ctx: _Context, r: _Ratios) -> str:
    val = ctx.example.s0
    r.bound(val - S0_REF, 1e-4)
    return f"s0={val:.12g}"


@_check("AC2", "z0(0.1, 0.9) equals 19/9 within 1e-12")
def _check_z0_reference(ctx: _Context, r: _Ratios) -> str:
    val = ctx.example.z0
    r.bound(val - Z0_REF, 1e-12)
    return f"z0={val:.17g}"


def _simpson_dz(
        params: DelaunayParams) -> Callable[[np.ndarray], np.ndarray]:
    """z' as (1 - B cos Hs) / sqrt(1 + B^2 - 2 B cos Hs), for the
    Simpson oracle; it shares no code with the closed-form height."""
    def dz(u: np.ndarray) -> np.ndarray:
        c = np.cos(params.H * u)
        return (1.0 - params.B * c) / np.sqrt(
            1.0 + params.B * params.B - 2.0 * params.B * c)
    return dz


@_check("AC3", "z(s0) for (0.1, 0.9) matches 2.71697 within 1e-4")
def _check_z_at_s0_reference(ctx: _Context, r: _Ratios) -> str:
    val = ctx.example.z_at_s0
    r.bound(val - Z_AT_S0_REF, 1e-4)
    simpson = integrate(_simpson_dz(EXAMPLE), 0.0, ctx.example.s0)
    r.bound(simpson - Z_AT_S0_REF, 1e-4)
    return f"z(s0)={val:.12g}"


@_check("AC4", "example portion: pinched, |u(sb)| <= 1e-8, minGap >= -1e-8, "
               "boundary gap 2 +- 1e-6, neck gap 0 +- 1e-10")
def _check_example_portion(ctx: _Context, r: _Ratios) -> str:
    p = ctx.example_portion
    r.bound(p.orthogonality_residual, 1e-8)
    ss = np.linspace(-p.s_bar, p.s_bar, PORTION_SAMPLES)
    st = profile(EXAMPLE, ss)
    gap = analyze_point(st).gap
    min_gap = float(gap.min())
    r.bound(min(min_gap, 0.0), 1e-8)
    # the grid ends at -+sb exactly, and its odd count puts s = 0 mid-way
    r.bound(gap[[0, -1]] - 2.0, 1e-6)
    r.bound(gap[PORTION_SAMPLES // 2], 1e-10)
    return f"sBar={p.s_bar:.12g} R0={p.R0:.12g} minGap={min_gap:.3e}"


@_check("AC5", "gap = 2 lambda1 lambda2 within 1e-10 on 1000 samples")
def _check_gap_identity(ctx: _Context, r: _Ratios) -> None:
    _, _, pa = ctx.sample_rows
    # the reported gap is the product 2 lambda1 lambda2; the check holds
    # it to the difference form, so it is not vacuous.  float_power is C
    # pow, as float ** is; ** on arrays would multiply (see curvature)
    u = pa.support
    difference = (0.5 * np.float_power(2.0 + pa.mean_curv * u, 2.0)
                  - pa.phi_sq * u * u)
    r.bound(pa.gap - difference, 1e-10)


@_check("AC6", "k1 + k2 = H within 1e-8 on the sample set")
def _check_cmc_identity(ctx: _Context, r: _Ratios) -> None:
    shapes, _, pa = ctx.sample_rows
    r.bound(pa.mean_curv - shapes.H, 1e-8)


@_check("AC7", "x'^2 + z'^2 = 1 within 1e-12 on the sample set")
def _check_arc_length(ctx: _Context, r: _Ratios) -> None:
    _, st, _ = ctx.sample_rows
    r.bound(st.dx * st.dx + st.dz * st.dz - 1.0, 1e-12)


@_check("AC8", "closed-form x', x'', z', z'' match central differences "
               "(h=1e-5) to 1e-6 relative")
def _check_derivatives(ctx: _Context, r: _Ratios) -> None:
    h = 1e-5
    shapes, st, _ = ctx.sample_rows
    # s + h and s - h as the two halves of one 2n-row call
    n = len(st.s)
    both = profile(_Shapes(np.tile(shapes.H, 2), np.tile(shapes.B, 2)),
                   np.concatenate((st.s + h, st.s - h)))
    for values, closed in ((both.x, st.dx), (both.dx, st.ddx),
                           (both.z, st.dz), (both.dz, st.ddz)):
        fd = (values[:n] - values[n:]) / (2.0 * h)
        r.bound(fd - closed, 1e-6 * np.maximum(1.0, np.abs(closed)))


@_check("AC9", "neck gap vanishes within 1e-12 on 20 unduloids")
def _check_neck_gap(ctx: _Context, r: _Ratios) -> None:
    shapes = _Shapes(np.repeat([0.1, 1.0], 10),
                     np.tile(np.linspace(0.05, 0.95, 10), 2))
    r.bound(analyze_point(profile(shapes, np.zeros(20))).gap, 1e-12)


@_check("AC10", "cylinder gap and lambda2 vanish within 1e-12 at 100 points")
def _check_cylinder(ctx: _Context, r: _Ratios) -> None:
    shapes = _Shapes(np.repeat([1.0, 0.7], 50), np.zeros(100))
    pa = analyze_point(profile(shapes, np.tile(np.linspace(-5.0, 5.0, 50), 2)))
    r.bound(pa.gap, 1e-12)
    r.bound(pa.lambda2, 1e-12)


@_check("AC11", "n0 is the first index with z(t_n) > B/H, the gap there is "
                "negative, and lambda1(t_n) = 1 within 1e-10")
def _check_violation_sequence(ctx: _Context, r: _Ratios) -> str:
    n0, points = ctx.example.n0, ctx.example.violations
    r.require(z_of(EXAMPLE, points[n0 - 1].t) > EXAMPLE.B / EXAMPLE.H)
    # the proof's bound makes t_1 the first such point, so n0 must be 1
    r.require(n0 == 1 and EXAMPLE.H * z_of(EXAMPLE, points[0].t)
              > math.pi / math.sqrt(2.0) > EXAMPLE.B)
    for pt in points:
        pa = analyze_point(eval_state(EXAMPLE, pt.t))
        r.bound(pa.lambda1 - 1.0, 1e-10)
        r.require(pt.n != n0 or pa.gap < 0.0)
    return f"n0={n0} gap(t_n0)={points[n0 - 1].gap:.6g}"


@_check("AC12", "gaps agree within 1e-9 at 100 corresponding points and the "
                "rescaled portion has R0 = 1 within 1e-10")
def _check_dilation(ctx: _Context, r: _Ratios) -> str:
    p = ctx.example_portion
    r.bound(build_portion(p.scaled_params, ctx.root).R0 - 1.0, 1e-10)
    ss = np.linspace(-p.s_bar, p.s_bar, 100)
    gaps = analyze_point(profile(EXAMPLE, ss)).gap
    scaled = analyze_point(profile(p.scaled_params, ss / p.R0)).gap
    r.bound(np.abs(gaps - scaled).max(), 1e-9)
    return f"scaled H={p.scaled_params.H:.12g}"


@_check("AC13", "nodoid (1, 1.5): rb in (0, r0), |u(rb)|/R0 <= 5e-11, "
                "x'' > 0, z' < 0, x' z <= 0, k1 u >= 0, lambda2 >= 0, "
                "gap >= -1e-8")
def _check_nodoid(ctx: _Context, r: _Ratios) -> str:
    # the hypotheses of the freeboundary docstring's portion proof and
    # its two conclusions, k1 u >= 0 (lambda1 >= 1) and lambda2 >= 0
    p = ctx.nodoid_portion
    rb = p.s_bar
    r_top = ctx.nodoid.r0
    r.require(0.0 < rb < r_top)
    st = profile(NODOID_EXAMPLE, np.linspace(-rb, rb, 1000))
    pa = analyze_point(st)
    # the grid ends at rb exactly
    r.bound(pa.support[-1] / p.R0, 5e-11)
    r.require(bool(np.all((st.ddx > 0.0) & (st.dz < 0.0)
                          & (st.dx * st.z <= 0.0)
                          & (pa.k1 * pa.support >= 0.0)
                          & (pa.lambda2 >= 0.0))))
    r.bound(min(pa.gap.min(), 0.0), 1e-8)
    return f"rb={rb:.12g} r0={r_top:.12g}"


@_check("AC14", "closed-form z(2.0) matches 1e4-panel composite Simpson "
                "within 1e-9 on six parameter pairs")
def _check_quadrature_oracle(ctx: _Context, r: _Ratios) -> None:
    for (h, b), frozen in Z2_ORACLE_PAIRS:
        params = DelaunayParams(h, b)
        simpson = integrate(_simpson_dz(params), 0.0, 2.0)
        r.bound(z_of(params, 2.0) - simpson, 1e-9)
        # the frozen constant guards against both routes drifting together
        r.bound(simpson - frozen, 1e-9)


@_check("AC15", "the boundary circle is radial: R0 |x'(sb)| / x(sb) = 1 "
                "within 1e-6 for both example portions")
def _check_radial_boundary(ctx: _Context, r: _Ratios) -> None:
    for params, p in ((EXAMPLE, ctx.example_portion),
                      (NODOID_EXAMPLE, ctx.nodoid_portion)):
        st = eval_state(params, p.s_bar)
        r.bound(p.R0 * abs(st.dx) / st.x - 1.0, 1e-6)


def _read_block(block: bytes, tag: bytes, kind, shape) -> np.ndarray:
    """The rows of one block of records tagged ``tag``, read by one
    np.loadtxt call with the tag as a field of the record."""
    # latin-1 passes each byte on as one character, so the parser sees
    # and rejects a non-ASCII byte; a final newline leaves a blank line
    lines = block.decode("latin-1").split("\n")
    # a longer tag is cut to three bytes, which no block's tag equals
    table = np.loadtxt(lines, ndmin=1,
                       dtype=[("tag", "S3"), ("row", kind, shape)])
    if not (table["tag"] == tag).all():
        raise ValueError(f"a record in the {tag.decode()} block has "
                         f"another tag")
    return table["row"]


def _parse_obj(data: bytes):
    """The v, vn and f blocks of one exported object, found in the order
    export_obj writes them and each read by one np.loadtxt call.  Its C
    parser raises on a field that is not a number and on a record with
    a field too many or too few; a record tagged for another block, a
    missing block and a face whose normal index differs from its vertex
    index raise too.  f keeps its vertex indices."""
    vn = data.find(b"\nvn ") + 1
    f = data.find(b"\nf ", vn) + 1
    if not 0 < vn < f:
        raise ValueError("the OBJ lacks its vn or f block")
    vs = _read_block(data[:vn], b"v", float, 3)
    vns = _read_block(data[vn:f], b"vn", float, 3)
    # "i//i" tokens: vertex and normal index
    faces = _read_block(data[f:].replace(b"//", b" "), b"f", np.int64,
                        (3, 2))
    if not (faces[..., 0] == faces[..., 1]).all():
        raise ValueError("a face's normal index differs from its vertex "
                         "index")
    return vs, vns, faces[..., 0]


@_check("AC16", "OBJ re-parses: boundary rings at radius R0 +- 1e-6, all "
                "vertices inside the ball, unit normals, Euler "
                "characteristic 0")
def _check_mesh_export(ctx: _Context, r: _Ratios) -> str:
    p = ctx.example_portion
    n_mer, n_par = 64, 64
    m = revolve(EXAMPLE, -p.s_bar, p.s_bar, n_mer, n_par)
    sink = io.BytesIO()
    export_obj(m, sink)
    vs, vns, faces = _parse_obj(sink.getvalue())
    r.require(vs.shape == m.vertices.shape)
    r.require(vns.shape == m.normals.shape)
    r.require(faces.shape == m.triangles.shape)
    radii = np.linalg.norm(vs, axis=1)
    r.bound(float(radii.max()) / p.R0 - 1.0, 1e-6)
    first_ring = radii[:n_par]
    last_ring = radii[-n_par:]
    for ring in (first_ring, last_ring):
        r.bound(float(np.abs(ring - p.R0).max()), 1e-6)
    norm_len = np.linalg.norm(vns, axis=1)
    r.bound(float(np.abs(norm_len - 1.0).max()), 1e-9)
    # one integer key per undirected edge, from its lower and higher end
    a, b, c = faces.T
    ends = np.concatenate((a, b, c)), np.concatenate((b, c, a))
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    base = lo.min()
    keys = (lo - base) * (hi.max() - base + 1) + (hi - base)
    keys.sort()
    n_edges = 1 + np.count_nonzero(np.diff(keys))
    euler = len(vs) - n_edges + len(faces)
    r.require(euler == 0)
    return f"V={len(vs)} E={n_edges} F={len(faces)} chi={euler}"


def run_checks(root_cfg: Optional[RootConfig] = None) -> list[CheckResult]:
    """Run every registered check; one that raises is a failed result."""
    ctx = _Context(root_cfg or DEFAULT_ROOT)
    return [run(ctx) for _, run in CHECKS]

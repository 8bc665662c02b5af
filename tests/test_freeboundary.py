import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from cmcpinch.curvature import analyze_point, support_function
from cmcpinch.delaunay import DelaunayParams, eval_state, profile, z_of
from cmcpinch.numerics import find_root, integrate
from cmcpinch import curvature, delaunay, freeboundary, numerics, verify
from cmcpinch.freeboundary import (VERDICT_CYLINDER, VERDICT_NO_ORTHOGONAL,
                                   VERDICT_PINCHED, NoRootError,
                                   build_portion, classify, find_n0,
                                   find_sbar, nodoid_find_rbar,
                                   violation_points)
from report_grid import report_inputs
from sampled_portion import sampled_min_gap

EXAMPLE = DelaunayParams(0.1, 0.9)
NODOID_EX = DelaunayParams(1.0, 1.5)

# frozen from an independent bisection/quadrature computation
SBAR_GOLDEN = 1.7576056770276693
R0_GOLDEN = 2.3975840691447803
SCALED_H_GOLDEN = 0.23975840691447803
SBAR_SCALED_GOLDEN = 0.7330736384374661
RBAR_GOLDEN = 0.47899833600628366
T1_GOLDEN = 58.32158495383323
LAMBDA2_T1_GOLDEN = -3.1635820425103582
GAP_T1_GOLDEN = -6.3271640850207165


@pytest.fixture(scope="module")
def example_portion():
    return build_portion(EXAMPLE)


@pytest.fixture(scope="module")
def nodoid_portion():
    return build_portion(NODOID_EX)


def test_s0_example_value():
    assert classify(EXAMPLE).s0 == pytest.approx(4.510268117962624, rel=1e-14)


def test_s0_special_angle():
    # B = 1/2 puts the inflection at arccos(1/2)/H
    assert classify(DelaunayParams(2.0, 0.5)).s0 == pytest.approx(
        math.pi / 6.0, rel=1e-14)


def test_s0_is_first_ddx_zero():
    top = classify(EXAMPLE).s0
    for s in np.linspace(1e-3, top * 0.999, 200):
        assert profile(EXAMPLE, float(s)).ddx > 0.0
    assert profile(EXAMPLE, top).ddx == pytest.approx(
        0.0, abs=1e-13)
    assert profile(EXAMPLE, top * 1.01).ddx < 0.0


def test_z0_example_value():
    assert classify(EXAMPLE).z0 == pytest.approx(19.0 / 9.0, abs=1e-12)


def test_dichotomy_matches_u_sign():
    # u(s0) = B (z(s0) - z0), so z(s0) >= z0 exactly when u(s0) >= 0
    for b in (0.3, 0.5, 0.7, 0.75, 0.8, 0.9, 0.95):
        params = DelaunayParams(1.0, b)
        rep = classify(params)
        top = rep.s0
        u = support_function(eval_state(params, top))
        dichotomy = z_of(params, top) - rep.z0
        assert u == pytest.approx(b * dichotomy, rel=1e-12, abs=1e-15)
        assert (u >= 0.0) == (dichotomy >= 0.0)


def test_u_rises_toward_s0():
    # u' = x'' z - x z'' >= 0 on [0, s0], from u(0) = (B - 1)/H < 0
    top = classify(EXAMPLE).s0
    u0, u_half, u_top = (support_function(eval_state(EXAMPLE, s))
                         for s in (0.0, top / 2.0, top))
    assert u0 == pytest.approx((EXAMPLE.B - 1.0) / EXAMPLE.H, rel=1e-12)
    assert u0 < u_half < u_top
    assert u_top > 0.0


def test_find_sbar_golden():
    assert find_sbar(EXAMPLE) == pytest.approx(SBAR_GOLDEN, abs=1e-9)


def test_sbar_is_orthogonal(example_portion):
    st = eval_state(EXAMPLE, example_portion.s_bar)
    assert abs(support_function(st)) <= 1e-10
    # |g(sb)| <= 1e-10 with g = -u/z', written without g
    assert abs(support_function(st)) <= 1e-10 * abs(st.dz)


def test_find_sbar_no_root():
    with pytest.raises(NoRootError):
        find_sbar(DelaunayParams(1.0, 0.5))


def test_find_sbar_wrong_family():
    with pytest.raises(ValueError):
        find_sbar(DelaunayParams(1.0, 0.0))
    with pytest.raises(ValueError):
        find_sbar(NODOID_EX)


def test_nodoid_r0_special_angle():
    assert classify(DelaunayParams(1.0, 2.0)).r0 == pytest.approx(
        math.pi / 3.0, rel=1e-14)


def test_nodoid_branch_end():
    r_top = classify(NODOID_EX).r0
    assert profile(NODOID_EX, r_top).dz == pytest.approx(
        0.0, abs=1e-12)
    # z decreasing and radius strictly convex on the inner branch
    for s in np.linspace(1e-3, r_top * 0.999, 200):
        st = profile(NODOID_EX, float(s))
        assert st.dz < 0.0
        assert st.ddx > 0.0


def test_nodoid_r0_wrong_family():
    with pytest.raises(ValueError):
        nodoid_find_rbar(DelaunayParams(1.0, 0.0))


def test_nodoid_rbar_golden():
    rb = nodoid_find_rbar(NODOID_EX)
    assert rb == pytest.approx(RBAR_GOLDEN, abs=1e-9)
    assert 0.0 < rb < classify(NODOID_EX).r0


def test_nodoid_rbar_is_orthogonal(nodoid_portion):
    st = eval_state(NODOID_EX, nodoid_portion.s_bar)
    assert abs(support_function(st)) <= 1e-10


def test_profile_conditions_cylinder():
    # k1 = 0 and x' = 0: k1 u >= 0 and lambda2 >= 0 hold with equality
    pa = analyze_point(eval_state(DelaunayParams(1.0, 0.0), 1.3))
    assert pa.k1 * pa.support == 0.0
    assert pa.lambda2 == 0.0


def test_profile_conditions_hold_on_example_portion(example_portion):
    # the portion proof's conclusions: k1 u >= 0, so lambda1 >= 1, and
    # lambda2 >= 0 at every sample of [-sb, sb]
    sb = example_portion.s_bar
    ss = np.linspace(-sb, sb, 400)
    pa = analyze_point(profile(EXAMPLE, ss))
    assert np.all(pa.k1 * pa.support >= 0.0)
    assert np.all(pa.lambda1 >= 1.0)
    assert np.all(pa.lambda2 >= 0.0)


def test_profile_conditions_fail_at_violation_point():
    # lambda2 >= 0 fails at t_1, outside the portion
    pt = violation_points(EXAMPLE, 1)[0]
    assert analyze_point(eval_state(EXAMPLE, pt.t)).lambda2 < 0.0


def test_profile_conditions_zero_set_branch():
    # z' = 0 at the nodoid branch end r0, where g has its pole; u = x' z
    # stays finite and negative there, the bracket end of the solve on u
    st = eval_state(NODOID_EX, classify(NODOID_EX).r0)
    assert st.dz == pytest.approx(0.0, abs=1e-12)
    u = support_function(st)
    assert u == pytest.approx(st.dx * st.z, rel=1e-12)
    assert u < 0.0


def test_build_portion_example(example_portion):
    p = example_portion
    assert p.s_bar == pytest.approx(SBAR_GOLDEN, abs=1e-9)
    assert p.R0 == pytest.approx(R0_GOLDEN, abs=1e-9)
    assert sampled_min_gap(EXAMPLE, p) == pytest.approx(0.0, abs=1e-10)
    assert p.orthogonality_residual <= 1e-10
    assert p.scaled_params.H == pytest.approx(SCALED_H_GOLDEN, abs=1e-9)
    assert p.scaled_params.B == 0.9


def test_build_portion_nodoid(nodoid_portion):
    p = nodoid_portion
    assert p.s_bar == pytest.approx(RBAR_GOLDEN, abs=1e-9)
    sampled_min_gap(NODOID_EX, p)
    assert p.R0 > profile(NODOID_EX, p.s_bar).x


def test_boundary_gap_is_two(example_portion, nodoid_portion):
    # u = 0 at the crossing, so the gap reduces to (1/2) * 2^2
    for params, p in ((EXAMPLE, example_portion),
                      (NODOID_EX, nodoid_portion)):
        for sb in (p.s_bar, -p.s_bar):
            pa = analyze_point(eval_state(params, sb))
            assert pa.gap == pytest.approx(2.0, abs=1e-6)


def test_build_portion_cylinder_raises():
    # no portion: one NoRootError (a ValueError) naming classify's verdict
    for b, verdict in ((0.0, VERDICT_CYLINDER), (0.5, VERDICT_NO_ORTHOGONAL)):
        with pytest.raises(NoRootError) as info:
            build_portion(DelaunayParams(1.0, b))
        assert str(info.value) == (f"(H, B) = (1.0, {b!r}) is {verdict}, "
                                   f"not {VERDICT_PINCHED}")


def test_portion_stays_inside_ball(example_portion):
    p = example_portion
    ss = np.linspace(-p.s_bar, p.s_bar, 500)
    for s in ss.tolist():
        st = profile(EXAMPLE, s)
        assert st.x ** 2 + st.z ** 2 <= p.R0 ** 2 * (1.0 + 1e-9)


def test_scale_to_unit_ball(example_portion):
    # dilation by 1/R0: mean curvature H R0, same B, boundary at sb / R0,
    # both the floats of the H = 1 solve
    p = example_portion
    unit = build_portion(DelaunayParams(1.0, 0.9))
    assert p.scaled_params.H == pytest.approx(SCALED_H_GOLDEN, abs=1e-9)
    assert p.scaled_params.H.hex() == unit.R0.hex()
    assert p.scaled_params.B == 0.9
    assert p.s_bar_scaled == pytest.approx(SBAR_SCALED_GOLDEN, abs=1e-9)
    assert p.s_bar_scaled.hex() == (unit.s_bar / unit.R0).hex()
    assert p.s_bar_scaled == pytest.approx(p.s_bar / p.R0, rel=1e-15)


def test_rescaled_portion_has_unit_radius(example_portion):
    p = example_portion
    rescaled = build_portion(p.scaled_params)
    assert rescaled.R0 == pytest.approx(1.0, abs=1e-10)
    assert rescaled.s_bar == pytest.approx(p.s_bar / p.R0, abs=1e-10)


def test_gap_is_dilation_invariant(example_portion):
    p = example_portion
    scaled = p.scaled_params
    ss = np.linspace(-p.s_bar, p.s_bar, 25)
    for s in ss.tolist():
        g1 = analyze_point(profile(EXAMPLE, s)).gap
        g2 = analyze_point(profile(scaled, s / p.R0)).gap
        assert g1 == pytest.approx(g2, abs=1e-9)


def test_geodesic_curvature_of_boundary(example_portion, nodoid_portion):
    # after rescaling to the unit ball the boundary circle has geodesic
    # curvature 1, i.e. R0 |x'(sb)| = x(sb)
    for params, p in ((EXAMPLE, example_portion),
                      (NODOID_EX, nodoid_portion)):
        st = profile(params, p.s_bar)
        assert p.R0 * abs(st.dx) / st.x == pytest.approx(1.0, abs=1e-6)


def test_violation_t1_golden():
    pts = violation_points(EXAMPLE, 3)
    assert pts[0].n == 1
    assert pts[0].t == pytest.approx(T1_GOLDEN, rel=1e-12)
    assert pts[0].lambda2 == pytest.approx(LAMBDA2_T1_GOLDEN, abs=1e-9)
    assert pts[0].gap == pytest.approx(GAP_T1_GOLDEN, abs=1e-9)


def test_violation_closed_forms():
    # violation_points returns the closed form lambda2 = B (B - H z(t_n)),
    # gap = 2 lambda2; the general kernel at the same float t_n is its
    # oracle, with lambda1 = 1, x'' = 0 and x' = -B there
    for pt in violation_points(EXAMPLE, 4):
        st = eval_state(EXAMPLE, pt.t)
        assert analyze_point(st).lambda1 == pytest.approx(
            1.0, abs=1e-10)
        assert st.ddx == pytest.approx(0.0, abs=1e-10)
        assert st.dx == pytest.approx(-EXAMPLE.B, abs=1e-11)
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = DelaunayParams(
            10.0 ** rng.uniform(-3.0, 3.0),
            1.0 - 10.0 ** rng.uniform(-6.0, math.log10(1.0 - 0.766)))
        pts = violation_points(params, 3)
        t = np.array([pt.t for pt in pts])
        pa = analyze_point(profile(params, t))
        for pt, lambda2, gap in zip(pts, pa.lambda2, pa.gap):
            assert pt.lambda2 == pytest.approx(lambda2, rel=1e-9), params
            assert pt.gap == pytest.approx(gap, rel=1e-9), params


def test_violation_alternate_closed_form():
    # (2 n pi - arccos B)/H == -arcsin(-B)/H + (4n - 1) pi/(2H)
    for n in (1, 2, 3, 7):
        t_a = (2.0 * math.pi * n - math.acos(EXAMPLE.B)) / EXAMPLE.H
        t_b = (-math.asin(-EXAMPLE.B)
               + (4.0 * n - 1.0) * math.pi / 2.0) / EXAMPLE.H
        assert t_a == pytest.approx(t_b, rel=1e-13)


def test_violation_sequence_descends():
    pts = violation_points(EXAMPLE, 5)
    for a, b in zip(pts, pts[1:]):
        assert b.t > a.t
        assert b.lambda2 < a.lambda2
        assert b.gap < a.gap


def test_find_n0_example():
    n0 = find_n0(EXAMPLE)
    assert n0 == 1
    pts = violation_points(EXAMPLE, 1)
    assert pts[0].gap < 0.0
    assert z_of(EXAMPLE, pts[0].t) > EXAMPLE.B / EXAMPLE.H


def test_find_n0_marks_first_negative_gap():
    for b in (0.1, 0.5, 0.9, 0.99):
        params = DelaunayParams(0.5, b)
        n0 = find_n0(params)
        pts = violation_points(params, n0 + 1)
        assert pts[n0 - 1].gap < 0.0
        if n0 > 1:
            assert pts[n0 - 2].gap >= 0.0


@pytest.mark.parametrize("quad_cfg", [numerics.SIMPSON_PANELS, 10, 1],
                         ids=["quad_cfg0", "quad_cfg1", "quad_cfg2"])
def test_first_violation_height_clears_threshold(quad_cfg, monkeypatch):
    # find_n0 returns 1 because H z(t_1) >= pi/sqrt(2) > 1 > B; check
    # the bound on the closed-form height over many decades of H, B up to
    # 1 - 1e-7, and on verify's Simpson oracle, also on coarse grids of
    # quad_cfg panels
    monkeypatch.setattr(numerics, "SIMPSON_PANELS", quad_cfg)
    rng = np.random.default_rng(3)
    cases = [(1.0, 1e-12), (1.0, 1.0 - 1e-7), (1e-6, 0.5), (1e6, 0.5)]
    cases += [(10.0 ** rng.uniform(-6.0, 6.0),
               1.0 - 10.0 ** rng.uniform(-7.0, 0.0)) for _ in range(400)]
    for h, b in cases:
        params = DelaunayParams(h, b)
        t1 = (2.0 * math.pi - math.acos(b)) / h
        simpson = integrate(verify._simpson_dz(params), 0.0, t1)
        for z1 in (z_of(params, t1), simpson):
            assert h * z1 >= math.pi / math.sqrt(2.0), (h, b)
            assert z1 > b / h


def test_pinched_reports_violate_from_n_equals_one():
    rng = np.random.default_rng(5)
    pinched = 0
    for _ in range(400):
        params = DelaunayParams(10.0 ** rng.uniform(-1.0, 1.0),
                                0.99 * (1.0 - rng.random()))
        rep = classify(params)
        if rep.verdict == VERDICT_PINCHED:
            pinched += 1
            assert rep.n0 == 1
            assert rep.violations[0].gap < 0.0, params
    assert pinched >= 50


def test_violation_wrong_family():
    with pytest.raises(ValueError):
        violation_points(DelaunayParams(1.0, 0.0), 2)
    with pytest.raises(ValueError):
        violation_points(NODOID_EX, 2)
    with pytest.raises(ValueError):
        find_n0(NODOID_EX)
    with pytest.raises(ValueError):
        violation_points(EXAMPLE, 0)


def test_classify_example():
    rep = classify(EXAMPLE)
    assert rep.verdict == VERDICT_PINCHED
    assert rep.s0 == pytest.approx(4.510268117962624, rel=1e-12)
    assert rep.z0 == pytest.approx(19.0 / 9.0, abs=1e-12)
    assert rep.z_at_s0 == pytest.approx(2.7169705278161382, abs=1e-9)
    assert rep.r0 is None
    assert rep.portion is not None
    assert rep.n0 == 1
    assert len(rep.violations) == rep.n0 + 2
    assert rep.violations[rep.n0 - 1].gap < 0.0


def test_classify_cylinder():
    rep = classify(DelaunayParams(2.0, 0.0))
    assert rep.verdict == VERDICT_CYLINDER
    assert rep.s0 is None and rep.z0 is None and rep.portion is None
    assert rep.violations == [] and rep.n0 is None


def test_classify_no_orthogonal():
    rep = classify(DelaunayParams(1.0, 0.5))
    assert rep.verdict == VERDICT_NO_ORTHOGONAL
    assert rep.z_at_s0 < rep.z0
    assert rep.portion is None
    assert rep.violations == [] and rep.n0 is None


def test_classify_nodoid():
    rep = classify(NODOID_EX)
    assert rep.verdict == VERDICT_PINCHED
    assert rep.r0 == pytest.approx(math.acos(1.0 / NODOID_EX.B) / NODOID_EX.H,
                                   rel=1e-14)
    assert rep.s0 is None and rep.z0 is None
    assert rep.portion is not None
    assert rep.violations == []


def test_verdict_depends_only_on_shape():
    # both sides of the dichotomy scale as 1/H, so H never flips it
    for h in (0.25, 1.0, 4.0):
        assert classify(
            DelaunayParams(h, 0.7)).verdict == VERDICT_NO_ORTHOGONAL
        assert classify(DelaunayParams(h, 0.8)).verdict == VERDICT_PINCHED


CANONICAL_SHAPES = [0.0, 0.3, 0.7, 0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 1e3]


@pytest.mark.parametrize("b", CANONICAL_SHAPES)
def test_classify_is_the_scaled_unit_report(b):
    # every report is the H = 1 report with each length divided by H,
    # bit for bit; verdicts, gaps, lambda2 and n0 are copied unchanged
    unit = classify(DelaunayParams(1.0, b))
    rng = np.random.default_rng(31)
    for h in [1.0, 1e-6, 1e6] + (10.0 ** rng.uniform(-6, 6, 6)).tolist():
        rep = classify(DelaunayParams(h, b))
        assert rep.params == DelaunayParams(h, b)
        assert (rep.verdict, rep.n0) == (unit.verdict, unit.n0)
        for name in ("s0", "r0", "z0", "z_at_s0"):
            u = getattr(unit, name)
            assert getattr(rep, name) == (None if u is None else u / h)
        assert (rep.portion is None) == (unit.portion is None)
        if rep.portion is not None:
            p, q = rep.portion, unit.portion
            assert p.s_bar == q.s_bar / h
            assert p.R0 == q.R0 / h
            assert p.orthogonality_residual == q.orthogonality_residual / h
            assert p.scaled_params.H.hex() == q.scaled_params.H.hex()
            assert p.scaled_params.B == b
            assert p.s_bar_scaled.hex() == q.s_bar_scaled.hex()
        assert len(rep.violations) == len(unit.violations)
        for v, w in zip(rep.violations, unit.violations):
            assert (v.n, v.t, v.lambda2, v.gap) == (w.n, w.t / h, w.lambda2,
                                                    w.gap)


@pytest.mark.parametrize("b", [0.9, 0.99, 1.5, 1e9])
@pytest.mark.parametrize("h", [1e-300, 1e-6, 0.1, 7.0, 1e6, 1e300])
def test_unit_ball_invariants_do_not_depend_on_h(h, b):
    # H R0 and sb / R0 are dilation-invariant, so the portion carries the
    # floats of the H = 1 solve at every H, bit for bit
    q = classify(DelaunayParams(1.0, b)).portion
    if not math.isfinite(q.R0 / h):
        # R0 ~ B - 1 at H = 1, so (1e-300, 1e9) has no report at all
        with pytest.raises(OverflowError, match="^R0 = "):
            classify(DelaunayParams(h, b))
        return
    p = classify(DelaunayParams(h, b)).portion
    assert (p.scaled_params.H.hex(), p.scaled_params.B.hex(),
            p.s_bar_scaled.hex()) == (q.scaled_params.H.hex(),
                                      q.scaled_params.B.hex(),
                                      q.s_bar_scaled.hex())


@pytest.mark.parametrize("field, key", [("s_bar", "sBar"), ("R0", "R0")])
def test_portion_of_no_size_raises_naming_the_length(field, key):
    # sb or R0 at 0 is a portion of no size, not a valid answer: .at
    # raises OverflowError (exit 3) naming it; other lengths may underflow
    unit = classify(DelaunayParams(1.0, 1.5))
    tiny = replace(unit, portion=replace(unit.portion, **{field: 5e-324}))
    with pytest.raises(OverflowError) as info:
        tiny.at(2.0)
    assert str(info.value) == f"{key} = 5e-324 / 2.0 underflows to 0"
    residual = replace(unit, portion=replace(
        unit.portion, orthogonality_residual=5e-324))
    assert residual.at(2.0).portion.orthogonality_residual == 0.0


def replace_at(rep, H):
    """AnalysisReport.at through dataclasses.replace and
    NamedTuple._replace: the oracle for the constructor-built one."""
    k = H / rep.params.H

    def length(key, v, size=False):
        if v is None:
            return None
        out = v / k
        if not math.isfinite(out):
            raise OverflowError(f"{key} = {v!r} / {k!r} is not a finite "
                                "float")
        if size and out == 0.0:
            raise OverflowError(f"{key} = {v!r} / {k!r} underflows to 0")
        return out

    p = rep.portion
    if p is not None:
        p = replace(p, s_bar=length("sBar", p.s_bar, size=True),
                    R0=length("R0", p.R0, size=True),
                    orthogonality_residual=length(
                        "orthogonalityResidual", p.orthogonality_residual))
    return replace(
        rep, params=DelaunayParams(H, rep.params.B),
        s0=length("s0", rep.s0), r0=length("r0", rep.r0),
        z0=length("z0", rep.z0),
        z_at_s0=length("zAtS0", rep.z_at_s0), portion=p,
        violations=[v._replace(t=length(f"violations n={v.n} t", v.t))
                    for v in rep.violations])


def report_bits(obj):
    """Every field of a report, recursively, each float by float.hex."""
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, report_bits(getattr(obj, f.name)))
            for f in dataclasses.fields(obj))
    if isinstance(obj, tuple):
        return (type(obj).__name__,) + tuple(
            (name, report_bits(v)) for name, v in zip(obj._fields, obj))
    if isinstance(obj, list):
        return [report_bits(v) for v in obj]
    return obj


def outcome(fn, *args):
    try:
        return report_bits(fn(*args))
    except OverflowError as exc:
        return f"OverflowError: {exc}"


def test_at_equals_the_replace_oracle_on_the_report_grid():
    # each field of the scaled report by float.hex, and each OverflowError
    # message, from the H = 1 report of every shape of the grid, and
    # classify at (H, B) is that same report
    for h, b in report_inputs():
        unit = classify(DelaunayParams(1.0, b))
        want = outcome(replace_at, unit, h)
        assert outcome(unit.at, h) == want, (h, b)
        assert outcome(classify, DelaunayParams(h, b)) == want, (h, b)
        assert outcome(unit.at(2.0).at, h) == outcome(
            replace_at, replace_at(unit, 2.0), h), (h, b)


@pytest.mark.parametrize("h, b, message", [
    (1.0, 5e-324, "z0 = inf / 1.0 is not a finite float"),
    (1e-310, 0.9, "sBar = 0.17576056770276918 / 1e-310 is not a finite "
                  "float"),
    (1e308, 0.9999999999999999,
     "sBar = 1.675192830606154e-16 / 1e+308 underflows to 0")])
def test_overflowing_length_message(h, b, message):
    # the first length to fail in report key order names the error
    with pytest.raises(OverflowError) as info:
        classify(DelaunayParams(h, b))
    assert str(info.value) == message


def test_crossing_is_solved_at_unit_scale(monkeypatch):
    # mesh (build_portion), analyze (classify) and the views find_sbar and
    # nodoid_find_rbar share the crossing: one root search per call, at
    # H = 1, with s_bar, R0, scaled_params and the residual bit for bit
    # those of classify's report
    roots = []

    def counting(f, a, b, cfg, x0):
        roots.append(b)
        return find_root(f, a, b, cfg, x0)

    monkeypatch.setattr(freeboundary, "find_root", counting)
    for params in (EXAMPLE, NODOID_EX, DelaunayParams(1e5, 0.95)):
        roots.clear()
        assert build_portion(params) == classify(params).portion
        assert len(roots) == 2
        assert roots[0] == roots[1] <= math.pi / 2
    # H log-uniform over 1e-6..1e6; pinched unduloids with 1 - B from 0.2
    # down to 1e-15 and nodoids with B - 1 from 1e-15 up to 1e15
    rng = np.random.default_rng(26)
    for _ in range(200):
        H = float(10.0 ** rng.uniform(-6.0, 6.0))
        if rng.random() < 0.5:
            B = 1.0 - float(10.0 ** rng.uniform(-15.0, math.log10(0.2)))
            view = find_sbar
        else:
            B = 1.0 + float(10.0 ** rng.uniform(-15.0, 15.0))
            view = nodoid_find_rbar
        params = DelaunayParams(H, B)
        roots.clear()
        sb = view(params)
        assert len(roots) == 1
        assert sb.hex() == classify(params).portion.s_bar.hex()


@pytest.mark.parametrize("b, count", [(0.9, 11), (1.5, 9), (0.5, 1),
                                      (0.0, 0)])
def test_classify_evaluates_each_height_once(monkeypatch, b, count):
    # the dichotomy's state at s0 seeds the search, which keeps every
    # state it evaluates, so s0 and s_bar are not evaluated again: a
    # pinched unduloid takes s0, seven search points and t_1..t_3
    seen = []
    height = delaunay._height

    def recording(params, s):
        seen.append(s)
        return height(params, s)

    monkeypatch.setattr(delaunay, "_height", recording)
    classify(DelaunayParams(1.0, b))
    assert len(seen) == count
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("params", [EXAMPLE, NODOID_EX])
def test_build_portion_evaluates_no_gap(monkeypatch, params):
    # min_gap = 0 and |P| <= R0 are theorems and the violations are closed
    # forms, so neither build_portion nor classify evaluates a height
    # array or the curvature: freeboundary imports neither, and the
    # definitions raise
    def forbidden(*args):
        raise AssertionError("the portion or the violations were sampled")

    for name in ("analyze_point", "profile", "z_many"):
        assert not hasattr(freeboundary, name)
    monkeypatch.setattr(curvature, "analyze_point", forbidden)
    monkeypatch.setattr(delaunay, "z_many", forbidden)
    p = build_portion(params)
    assert p.min_gap == 0.0
    assert 0.0 < p.s_bar
    rep = classify(params)
    assert rep.verdict == VERDICT_PINCHED
    assert rep.portion == p
    assert len(rep.violations) == (3 if params.B < 1.0 else 0)


@pytest.mark.parametrize("b, h", [
    (b, h) for b in (1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-9, 1.0 + 1e-9)
    for h in (1.0, 1e-4)] + [
    (1.0 - 1e-12, 1e-6), (1.0 - 1e-15, 1.0), (1e12, 1.0)])
def test_near_degenerate_shapes_are_pinched(h, b):
    # |1 - B| down to 1e-15 and B up to 1e12: the neck is resolved, no
    # ZeroDivisionError, the sampled minimum gap is 0, at the neck s = 0,
    # and every sample lies in the ball
    rep = classify(DelaunayParams(h, b))
    assert rep.verdict == VERDICT_PINCHED
    assert sampled_min_gap(rep.params, rep.portion) == 0.0
    assert 0.0 < rep.portion.s_bar

import json
import math
import pathlib
import random
from decimal import Decimal

import numpy as np
import pytest

from cmcpinch.curvature import analyze_point, support_function
from cmcpinch.delaunay import DelaunayParams, eval_state, profile, z_of
from cmcpinch.numerics import find_root, integrate
from cmcpinch import curvature, delaunay, freeboundary, numerics, verify
from cmcpinch.freeboundary import (VERDICT_CYLINDER, VERDICT_NO_ORTHOGONAL,
                                   VERDICT_PINCHED, AnalysisReport,
                                   FreeBoundaryPortion, NoRootError,
                                   ViolationPoint, build_portion, classify,
                                   find_n0, find_sbar, nodoid_find_rbar,
                                   violation_points)
from records import replace
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


def _unduloid_grid():
    """Seeded unduloid B: uniform in (1e-6, 1 - 1e-6), and 10^-k and
    1 - 10^-k for k = 1 ... 12."""
    rng = random.Random(14)
    ends = [10.0 ** -k for k in range(1, 13)]
    return ([rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(276)]
            + ends + [1.0 - e for e in ends])


def test_u_peaks_at_s0():
    # the docstring's sign facts at H = 1: u' = x'' z - x z'' is positive
    # on (0, s0), vanishes at s0 and is negative on (s0, pi), and u < 0 on
    # (pi, 2 pi], so u(s0) = B (z(s0) - z0) is the maximum of u on
    # [0, 2 pi]: below B* no crossing, above it s_bar <= s0 <= s_2 < pi
    def du(st):
        return st.ddx * st.z - st.x * st.ddz

    for b in _unduloid_grid():
        params = DelaunayParams(1.0, b)
        top = classify(params).s0
        rising = profile(params, np.linspace(0.0, top, 258)[1:-1])
        falling = profile(params, np.linspace(top, math.pi, 258)[1:-1])
        beyond = profile(params, np.linspace(math.pi, 2.0 * math.pi, 257)[1:])
        assert np.all(du(rising) > 0.0), b
        assert np.all(du(falling) < 0.0), b
        assert np.all(support_function(beyond) < 0.0), b
        assert abs(du(eval_state(params, top))) <= 1e-15, b


# B* = 0.76589502387205679258..., the zero of F(B) = z(s0) - z0 at H = 1
# (mpmath at 40 digits, reference.json)
B_STAR = Decimal(json.loads((pathlib.Path(__file__).parent / "golden"
                             / "reference.json").read_text())
                 ["threshold"]["BStar"])


# the float below the float nearest B*: F = -1.19e-16 there, but the float
# z(s0) - z0 is 0.0
def test_float_below_the_threshold_has_no_portion():
    rep = classify(DelaunayParams(1.0, 0.7658950238720567))
    assert rep.verdict == VERDICT_NO_ORTHOGONAL
    assert rep.z_at_s0 is not None and rep.z0 is not None


def _floats_around(b, count):
    below = above = b
    out = [b]
    for _ in range(count):
        below = math.nextafter(below, 0.0)
        above = math.nextafter(above, 2.0)
        out += [below, above]
    return sorted(out)


def test_the_threshold_float_brackets_b_star():
    assert (Decimal(freeboundary.B_STAR_FLOOR) < B_STAR
            < Decimal(math.nextafter(freeboundary.B_STAR_FLOOR, 2.0)))


def test_the_floats_around_b_star_have_a_portion_exactly_above_it():
    for b in _floats_around(freeboundary.B_STAR_FLOOR, 60):
        rep = classify(DelaunayParams(1.0, b))
        pinched = Decimal(b) > B_STAR
        assert rep.verdict == (VERDICT_PINCHED if pinched
                               else VERDICT_NO_ORTHOGONAL), b
        assert (rep.portion is not None) == pinched, b


# (H, B) shapes with the number of them reported Pinched: the 121 floats
# around the float nearest B*, which is below it, so the 60 above it;
# 1 -+ 10^-k; nodoids up to 7e15;
# H from 1e-300 to 1e150, above which phi_sq = (k1 - k2)^2 / 2 is no float
HARD_SHAPES = {
    "near-B*": ([(1.0, b) for b in _floats_around(0.7658950238720568, 60)],
                60),
    "1-+10^-k": ([(1.0, 1.0 + sign * 10.0 ** -k) for k in range(1, 16)
                  for sign in (-1.0, 1.0)], 30),
    "nodoids": ([(1.0, 10.0 ** k) for k in range(1, 16)] + [(1.0, 7e15)],
                16),
    "H-decades": ([(10.0 ** e, b) for e in range(-300, 151, 50)
                   for b in (0.9, 1.5)], 20),
}


@pytest.mark.parametrize("name", HARD_SHAPES)
def test_portion_hypotheses_on_hard_shapes(name):
    """Every reported portion of the hard shapes holds the proof's
    hypotheses at PORTION_SAMPLES points (tests/sampled_portion.py).

    A wrong verdict can go unseen here: at 0.7658950238720567, below B*,
    a portion that classify once reported held every sampled hypothesis.
    """
    shapes, pinched = HARD_SHAPES[name]
    seen = 0
    for h, b in shapes:
        params = DelaunayParams(h, b)
        rep = classify(params)
        if rep.verdict == VERDICT_PINCHED:
            assert sampled_min_gap(params, rep.portion) <= 0.0
            seen += 1
    assert seen == pinched


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


@pytest.mark.parametrize("panels", [numerics.SIMPSON_PANELS, 10, 1],
                         ids=["panels10000", "panels10", "panels1"])
def test_first_violation_height_clears_threshold(panels, monkeypatch):
    # find_n0 returns 1 because H z(t_1) >= pi/sqrt(2) > 1 > B; check
    # the bound on the closed-form height over many decades of H, B up to
    # 1 - 1e-7, and on verify's Simpson oracle, also on coarse grids of
    # 10 and 1 panels
    monkeypatch.setattr(numerics, "SIMPSON_PANELS", panels)
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
    """AnalysisReport.at through records.replace: the oracle for the
    constructor-built one."""
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
        violations=[replace(v, t=length(f"violations n={v.n} t", v.t))
                    for v in rep.violations])


def report_bits(obj):
    """Every field of a report, recursively, each float by float.hex."""
    if isinstance(obj, float):
        return obj.hex()
    if hasattr(obj, "_fields"):
        return (type(obj).__name__,) + tuple(
            (name, report_bits(getattr(obj, name))) for name in obj._fields)
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


# a report's lengths by report key, in the order .at checks them
AT_KEYS = ["sBar", "R0", "orthogonalityResidual", "s0", "r0", "z0", "zAtS0",
           "violations n=1 t", "violations n=2 t", "violations n=3 t"]


def _unit_report(lengths):
    """An H = 1 report with every length 1.0 but those given by key."""
    v = dict.fromkeys(AT_KEYS, 1.0) | lengths
    unit = DelaunayParams(1.0, 0.9)
    portion = FreeBoundaryPortion(v["sBar"], v["R0"], unit, 1.0,
                                  v["orthogonalityResidual"])
    violations = [ViolationPoint(n, v[f"violations n={n} t"], -1.0, -2.0)
                  for n in (1, 2, 3)]
    return AnalysisReport(unit, VERDICT_PINCHED, v["s0"], v["r0"], v["z0"],
                          v["zAtS0"], portion, violations, 1)


@pytest.mark.parametrize("key, v, h, message", [
    ("sBar", 1e300, 1e-10, "sBar = 1e+300 / 1e-10 is not a finite float"),
    ("R0", 1e300, 1e-10, "R0 = 1e+300 / 1e-10 is not a finite float"),
    ("orthogonalityResidual", 1e300, 1e-10,
     "orthogonalityResidual = 1e+300 / 1e-10 is not a finite float"),
    ("s0", 1e300, 1e-10, "s0 = 1e+300 / 1e-10 is not a finite float"),
    ("r0", 1e300, 1e-10, "r0 = 1e+300 / 1e-10 is not a finite float"),
    ("z0", 1e300, 1e-10, "z0 = 1e+300 / 1e-10 is not a finite float"),
    ("zAtS0", 1e300, 1e-10, "zAtS0 = 1e+300 / 1e-10 is not a finite float"),
    ("violations n=3 t", 1e300, 1e-10,
     "violations n=3 t = 1e+300 / 1e-10 is not a finite float"),
    ("sBar", 1e-300, 1e100, "sBar = 1e-300 / 1e+100 underflows to 0"),
    ("R0", 1e-300, 1e100, "R0 = 1e-300 / 1e+100 underflows to 0")],
    ids=[f"{key}-inf" for key in AT_KEYS[:7]] + [
        "violations-n3-t-inf", "sBar-0", "R0-0"])
def test_at_names_the_first_length_to_fail(key, v, h, message):
    # the length alone, then with every later length in key order
    # failing too: either way the OverflowError names it
    for failing in ([key], AT_KEYS[AT_KEYS.index(key):]):
        with pytest.raises(OverflowError) as info:
            _unit_report(dict.fromkeys(failing, v)).at(h)
        assert str(info.value) == message
    assert _unit_report({}).at(h).portion.R0 == 1.0 / h


def test_crossing_is_solved_at_unit_scale(monkeypatch):
    # mesh (build_portion), analyze (classify) and the views find_sbar and
    # nodoid_find_rbar share the crossing: one root search per call, at
    # H = 1, with s_bar, R0, scaled_params and the residual bit for bit
    # those of classify's report.  Each search is in find_root's one
    # calling form: an ordered bracket from 0 and f giving (u, u')
    roots = []

    def counting(f, a, b, cfg, x0):
        assert a == 0.0 < b
        roots.append(b)

        def pair(x):
            y = f(x)
            assert type(y) is tuple and list(map(type, y)) == [float, float]
            return y
        return find_root(pair, a, b, cfg, x0)

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


@pytest.fixture
def heights(monkeypatch):
    # the arc lengths s of every height evaluated, in order
    seen = []
    height = delaunay._height

    def recording(params, s):
        seen.append(s)
        return height(params, s)

    monkeypatch.setattr(delaunay, "_height", recording)
    return seen


@pytest.mark.parametrize("b, count", [(0.9, 9), (1.5, 9), (0.5, 1),
                                      (0.0, 0)])
def test_classify_evaluates_each_height_once(heights, b, count):
    # the dichotomy's state at s0 seeds the search, which keeps every
    # state it evaluates, so s0 and s_bar are not evaluated again: a
    # pinched unduloid takes s0, seven search points and the period's
    # rise z(2π)
    seen = heights
    classify(DelaunayParams(1.0, b))
    assert len(seen) == count
    assert len(set(seen)) == len(seen)


def test_violation_points_are_the_classify_report_at_every_h():
    # one route to the sequence: violation_points gives classify's t_n,
    # lambda2 and gap bit for bit, and lambda2 is the H = 1 float at
    # every H, over decades of H and of 1 - B
    rng = random.Random(53)
    for _ in range(600):
        h = 10.0 ** rng.uniform(-3.0, 3.0)
        b = 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.234))
        params = DelaunayParams(h, b)
        unit = violation_points(DelaunayParams(1.0, b), 3)
        pts = violation_points(params, 3)
        assert [(v.t.hex(), v.lambda2.hex(), v.gap.hex()) for v in pts] == [
            (v.t.hex(), v.lambda2.hex(), v.gap.hex())
            for v in classify(params).violations], params
        assert [v.lambda2.hex() for v in pts] == [
            v.lambda2.hex() for v in unit], params


@pytest.mark.parametrize("count", [1, 50])
def test_violation_points_evaluate_two_heights(heights, count):
    # z(s0) and the period's rise z(2π) give z(t_n) for every n
    assert len(violation_points(DelaunayParams(0.3, 0.9), count)) == count
    assert len(heights) == 2


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

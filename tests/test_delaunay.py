import collections
import contextlib
import json
import math
import pathlib

import numpy as np
import pytest

from cmcpinch.delaunay import (CYLINDER, NODOID, UNDULOID, DelaunayParams,
                               GeneratrixState, eval_state, profile, z_many,
                               z_of)


def random_params(rng):
    pick = rng.random()
    if pick < 0.1:
        b = 0.0
    elif pick < 0.55:
        b = float(rng.uniform(0.05, 0.9))
    else:
        b = float(rng.uniform(1.1, 2.5))
    return DelaunayParams(float(rng.uniform(0.1, 2.0)), b)


def test_family_tags():
    assert DelaunayParams(1.0, 0.0).family == CYLINDER
    assert DelaunayParams(0.5, 0.3).family == UNDULOID
    assert DelaunayParams(2.0, 1.7).family == NODOID


def test_invalid_params_rejected():
    for h, b in ((0.0, 0.5), (-1.0, 0.5), (1.0, -0.1), (1.0, 1.0),
                 (math.nan, 0.5), (1.0, math.inf)):
        with pytest.raises(ValueError):
            DelaunayParams(h, b)


def test_unduloid_neck_state():
    st = eval_state(DelaunayParams(0.1, 0.9), 0.0)
    assert st.x == pytest.approx(1.0, rel=1e-14)  # (1 - B)/H
    assert st.z == 0.0
    assert st.dx == 0.0
    assert st.dz == pytest.approx(1.0, rel=1e-14)


def test_nodoid_neck_state():
    st = eval_state(DelaunayParams(1.0, 1.5), 0.0)
    assert st.x == pytest.approx(0.5, rel=1e-14)  # (B - 1)/H
    assert st.dz == pytest.approx(-1.0, rel=1e-14)  # inner branch descends


def test_cylinder_profile():
    params = DelaunayParams(0.5, 0.0)
    for s in (-3.0, 0.0, 1.7):
        st = eval_state(params, s)
        assert st.x == pytest.approx(2.0, rel=1e-14)
        assert st.z == pytest.approx(s, abs=1e-12)
        assert st.dx == 0.0
        assert st.ddx == 0.0
        assert st.dz == pytest.approx(1.0, rel=1e-14)


def test_inflection_state():
    # at s = arccos(B)/H the radius inflects: x'' = 0, x' = B
    params = DelaunayParams(0.1, 0.9)
    s_infl = math.acos(0.9) / 0.1
    st = profile(params, s_infl)
    assert st.x == pytest.approx(math.sqrt(1.0 - 0.81) / 0.1, rel=1e-12)
    assert st.dx == pytest.approx(0.9, rel=1e-12)
    assert st.dz == pytest.approx(math.sqrt(0.19), rel=1e-12)
    assert st.ddx == pytest.approx(0.0, abs=1e-14)


def test_bulge_radius():
    params = DelaunayParams(0.1, 0.9)
    st = profile(params, math.pi / 0.1)
    assert st.x == pytest.approx(19.0, rel=1e-12)  # (1 + B)/H
    assert st.dx == pytest.approx(0.0, abs=1e-12)


def test_arc_length_identity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        params = random_params(rng)
        st = profile(params, float(rng.uniform(-10.0, 10.0)))
        assert abs(st.dx ** 2 + st.dz ** 2 - 1.0) <= 1e-12


def test_parity():
    rng = np.random.default_rng(4)
    params = DelaunayParams(0.7, 0.6)
    for _ in range(200):
        s = float(rng.uniform(0.0, 8.0))
        a = profile(params, s)
        b = profile(params, -s)
        assert a.x == pytest.approx(b.x, rel=1e-14)
        assert a.dx == pytest.approx(-b.dx, rel=1e-14, abs=1e-15)
        assert a.dz == pytest.approx(b.dz, rel=1e-14)
        assert a.ddx == pytest.approx(b.ddx, rel=1e-14, abs=1e-15)
        assert a.ddz == pytest.approx(-b.ddz, rel=1e-14, abs=1e-15)


def test_z_is_odd():
    params = DelaunayParams(0.3, 0.8)
    for s in (0.5, 2.0, 7.3):
        assert z_of(params, -s) == pytest.approx(-z_of(params, s),
                                                 rel=1e-12, abs=1e-12)


def test_z_reference_height():
    # z at the inflection arc length of the worked example
    params = DelaunayParams(0.1, 0.9)
    val = z_of(params, math.acos(0.9) / 0.1)
    assert val == pytest.approx(2.7169705278161382, abs=1e-9)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(300):
        params = random_params(rng)
        s = float(rng.uniform(-5.0, 5.0))
        st = profile(params, s)
        plus = profile(params, s + h)
        minus = profile(params, s - h)
        fd_dx = (plus.x - minus.x) / (2.0 * h)
        fd_ddx = (plus.dx - minus.dx) / (2.0 * h)
        fd_ddz = (plus.dz - minus.dz) / (2.0 * h)
        assert fd_dx == pytest.approx(st.dx, rel=1e-6, abs=1e-6)
        assert fd_ddx == pytest.approx(st.ddx, rel=1e-6, abs=1e-6)
        assert fd_ddz == pytest.approx(st.ddz, rel=1e-6, abs=1e-6)


def test_phase_shifted_sine_form():
    # the radius can also be written with sin(Hs + 3pi/2) in place of
    # -cos(Hs); both evaluations must agree
    rng = np.random.default_rng(6)
    for _ in range(1000):
        pick = rng.random()
        b = float(rng.uniform(0.05, 0.9)) if pick < 0.5 else \
            float(rng.uniform(1.1, 2.5))
        params = DelaunayParams(float(rng.uniform(0.1, 2.0)), b)
        s = float(rng.uniform(-10.0, 10.0))
        st = profile(params, s)
        shifted = math.sin(params.H * s + 1.5 * math.pi)
        q_alt = 1.0 + b * b + 2.0 * b * shifted
        assert math.sqrt(q_alt) / params.H == pytest.approx(st.x, rel=1e-10)
        dz_alt = (1.0 + b * shifted) / math.sqrt(q_alt)
        assert dz_alt == pytest.approx(st.dz, rel=1e-9, abs=1e-10)


def _duplication_steps(monkeypatch, params, s):
    # steps of _carlson_fd's float loop at |H s| <= pi (one G, k = 0):
    # each step takes three square roots, the series after it two more
    calls = []
    sqrt = math.sqrt

    def counting(v):
        calls.append(v)
        return sqrt(v)

    with monkeypatch.context() as m:
        m.setattr(math, "sqrt", counting)
        z_of(params, s)
    return (len(calls) - 2) // 3


def test_z_many_matches_z_of(monkeypatch):
    # z_of runs _carlson_fd's float loop, z_many its array loop: each
    # element must get the float's bits (float.hex tells -0 from +0).
    # One array mixes elements that stop after 0 duplication steps (the
    # neck) with ones that run 10 (near B = 1), and arc lengths span
    # several periods (k != 0)
    rng = np.random.default_rng(8)
    head = [0.0, -0.0, 1e-300, -1e-12, 1e-6, -0.5, 3.0]
    for b in (0.0, 0.3, 0.9, 1.0 - 1e-15, 1.0 + 1e-9, 1.5, 1e9):
        for H in (1e-3, 0.4, 1.0, 7.0):
            params = DelaunayParams(H, b)
            ss = np.concatenate((head, rng.uniform(-30.0, 30.0, 40))) / H
            zs = z_many(params, ss)
            for s, z in zip(ss.tolist(), zs.tolist()):
                assert z_of(params, s).hex() == z.hex(), (b, H, s)
        steps = {_duplication_steps(monkeypatch, DelaunayParams(1.0, b), s)
                 for s in head}
        assert 0 in steps and max(steps) >= (10 if abs(b - 1.0) < 1e-8
                                             else 5), (b, steps)


def test_z_many_duplicates_and_zero():
    params = DelaunayParams(1.0, 1.5)
    zs = z_many(params, np.array([0.3, -0.2, 0.0, 0.3]))
    assert zs[0] == zs[3]
    assert zs[2] == 0.0


def _unique_knots_z_many(params, s_values):
    """z at the distinct knots (0 included), scattered back to s_values."""
    s_arr = np.asarray(s_values, dtype=float)
    knots = np.unique(np.concatenate((s_arr.ravel(), [0.0])))
    return z_many(params, knots)[np.searchsorted(knots, s_arr)]


@pytest.mark.parametrize("ss", [
    [0.3, -0.2, 0.0, 0.3],
    [-0.0, 0.7, 0.0, -0.0, -1.1, 0.7],
    [0.0, -0.0, 2.5, -2.5, 2.5],
    [-0.0],
    [0.0],
    [1.25, 1.25, 1.25],
    [[0.4, -0.0], [0.4, 3.0]],
    np.round(np.random.default_rng(3).uniform(-9.0, 9.0, 300), 1),
    np.concatenate((np.linspace(-4.0, 4.0, 9), -np.linspace(-4.0, 4.0, 9))),
], ids=["dup", "signed-zeros", "zero-first", "minus-zero", "zero", "triple",
        "2d", "rounded-300", "mirrored"])
@pytest.mark.parametrize("params", [DelaunayParams(1.0, 1.5),
                                    DelaunayParams(0.4, 0.7),
                                    DelaunayParams(2.0, 0.0)],
                         ids=["nodoid", "unduloid", "cylinder"])
def test_z_many_knots_bit_equal_to_unique(params, ss):
    # one closed form on arrays and on floats: equal bit for bit, in the
    # input's shape, across periods (|H s| up to 18); a duplicate or a
    # signed zero gets the bits of its distinct knot, and z(-0) is +0
    want = _unique_knots_z_many(params, ss)
    got = z_many(params, ss)
    assert got.shape == want.shape == np.shape(ss)
    assert got.tobytes() == want.tobytes()
    flat = np.ravel(np.asarray(ss, dtype=float))
    assert got.ravel().tolist() == [z_of(params, s) for s in flat.tolist()]


KERNEL = json.loads((pathlib.Path(__file__).parent / "golden"
                     / "reference.json").read_text())["kernel"]


@pytest.mark.parametrize("case", KERNEL["cases"],
                         ids=[c["B"] for c in KERNEL["cases"]])
def test_closed_form_height_matches_mpmath(case):
    # exact heights (tests/oracle/make_reference.py) at 10 arc lengths
    # from -7.5 to 40, several periods, for B from 1e-9 to 1e12
    params = DelaunayParams(float(KERNEL["H"]), float(case["B"]))
    ss = np.array([float(s) for s in KERNEL["s"]])
    exact = np.array([float(z) for z in case["z"]])
    got = z_many(params, ss)
    # z' is a unit-vector component, so |z| <= |s|: the relative error is
    # taken against |s| where z itself passes through 0 (nodoids)
    scale = np.maximum(np.abs(exact), np.abs(ss))
    assert np.all(np.abs(got - exact) <= 1e-14 * scale), got - exact
    assert got.tolist() == [z_of(params, s) for s in ss.tolist()]


@pytest.mark.parametrize("b", [1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 2.0 ** -52,
                               1.0 + 2.0 ** -52])
def test_near_degenerate_shape_has_finite_neck(b):
    # 1 + B^2 - 2 B cos(Hs) used to round to 0 at s = 0 and divide by it
    params = DelaunayParams(1.0, b)
    st = eval_state(params, 0.0)
    assert st.x == abs(1.0 - b)
    assert st.dz == math.copysign(1.0, 1.0 - b)
    st = profile(params, np.linspace(-1e-6, 1e-6, 101))
    assert np.all(np.isfinite([st.x, st.z, st.dx, st.dz, st.ddx, st.ddz]))
    assert np.all(st.x > 0.0)


def test_profile_arrays_match_eval_state():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = random_params(rng)
        ss = rng.uniform(-20.0, 20.0, 200)
        st = profile(params, ss)
        for i in range(len(ss)):
            one = profile(params, float(ss[i]))
            assert one == GeneratrixState(
                *(float(getattr(st, k)[i])
                  for k in ("s", "x", "z", "dx", "dz", "ddx", "ddz")))


@pytest.mark.parametrize("b", [0.0, 0.3, 0.9, 1.0 - 1e-15, 1.0 + 1e-9, 1.5,
                               1e9, 1e103])
def test_float_profile_is_the_array_profile_bit_for_bit(b):
    # eval_state runs profile's math path, cmd_profile and revolve its
    # numpy path: one set of formulas, so every field must agree to the
    # bit (float.hex tells -0 from +0 and calls every nan the same); at
    # B = 1e103, x'' and z'' overflow, which numpy alone warns about
    rng = np.random.default_rng(13)
    for H in (10.0 ** np.arange(-12, 13, 2)).tolist():
        params = DelaunayParams(H, b)
        ss = np.concatenate(([0.0, -0.0], rng.uniform(-20.0, 20.0, 60))) / H
        with (np.errstate(over="ignore", invalid="ignore") if b > 1e100
              else contextlib.nullcontext()):
            arrays = profile(params, ss)
        for i, s in enumerate(ss.tolist()):
            one = eval_state(params, s)
            for k in ("s", "x", "z", "dx", "dz", "ddx", "ddz"):
                got = getattr(one, k)
                assert type(got) is float
                assert got.hex() == float(getattr(arrays, k)[i]).hex(), (
                    H, s, k)


def test_per_element_shapes_match_the_float_path():
    # verify's sample set passes params whose H and B are arrays, one
    # shape per element of s: profile, through z_many, must give each
    # element the bits of eval_state, through z_of, on its own shape.  The
    # elements are shuffled so that neighbours differ in shape, stop the
    # duplication loop at different steps and lie in different periods
    # (k != 0)
    rng = np.random.default_rng(21)
    rows = [(H, b, s)
            for b in (0.0, 0.3, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 1e9)
            for H in (1e-3, 0.4, 1.0, 7.0)
            for s in [0.0, -0.0, *(rng.uniform(-30.0, 30.0, 8) / H)]]
    H, B, S = rng.permutation(np.array(rows)).T
    assert np.any(np.abs(H * S) > 2.0 * math.pi)
    shapes = collections.namedtuple("Shapes", "H B")(H, B)
    arrays = profile(shapes, S)
    for i, (h, b, s) in enumerate(zip(H.tolist(), B.tolist(), S.tolist())):
        one = eval_state(DelaunayParams(h, b), s)
        for k in ("s", "x", "z", "dx", "dz", "ddx", "ddz"):
            got = float(getattr(arrays, k)[i])
            assert getattr(one, k).hex() == got.hex(), (h, b, s, k)


def _periods(H, S):
    """k of delaunay._height: H s / 2 = k pi + r with |r| <= pi/2."""
    return (0.5 * (H * S) / math.pi + 0.5) // 1.0


def _per_row_shapes(case, rng):
    bs = np.array([0.0, 0.0, 0.3, 0.9, 1.5, 2.5, 1e9])
    H = rng.choice([0.2, 1.0, 7.0], 70)
    B = np.tile(bs, 10)
    if case == "necks":
        # AC9's kind: every row at its neck, or inside its first half-period
        S = np.concatenate(([0.0, -0.0] * 10,
                            rng.uniform(-0.45, 0.45, 50) * 2.0 * math.pi)) / H
    elif case == "periods":
        # every row past its first half-period, on either side
        S = (rng.choice([-1.0, 1.0], 70) * rng.uniform(1.1, 20.0, 70)
             * math.pi / H)
    else:
        # both kinds in one array, signed zeros among them, and a B whose
        # rise G(pi/2) overflows to inf: z_of is then +-inf near the neck,
        # at k = 0, where adding 0 * inf would give nan
        S = np.concatenate(([0.0, -0.0, 0.0, -0.0],
                            rng.uniform(-30.0, 30.0, 66))) / H
        B[[40, 41, 42]] = 5e102
        S[[40, 41, 42]] = np.array([0.004, -0.2, 30.0]) / H[[40, 41, 42]]
    return H, B, S


@pytest.mark.parametrize("case", ["mixed", "necks", "periods"])
def test_per_row_heights_are_z_of_row_by_row(case):
    # with per-row (H, B) only the rows with k != 0 evaluate and add the
    # period rise; each row must still get the bits z_of gives its shape
    # (float.hex tells -0 from +0), through z_many and through profile
    H, B, S = _per_row_shapes(case, np.random.default_rng(34))
    k = _periods(H, S)
    assert {"necks": not k.any(), "periods": k.all(),
            "mixed": k.any() and not k.all()}[case]
    assert np.any(B == 0.0)
    shapes = collections.namedtuple("Shapes", "H B")(H, B)
    with np.errstate(over="ignore", invalid="ignore"):
        got = z_many(shapes, S)
        st = profile(shapes, S)
    for i, (h, b, s) in enumerate(zip(H.tolist(), B.tolist(), S.tolist())):
        want = z_of(DelaunayParams(h, b), s).hex()
        assert got[i].hex() == float(st.z[i]).hex() == want, (h, b, s)


@pytest.mark.parametrize("b", [0.5, 1.5, 5e102])
def test_float_b_heights_are_z_of_where_the_rise_overflows(b):
    # a float B adds the period rise only past the first half-period too:
    # at B = 5e102, G(pi/2) overflows to inf, and a k = 0 element keeps
    # z_of's +-inf where adding 0 * inf would give nan.  A 0-d s (profile
    # at an int) takes the same branch
    params = DelaunayParams(1.0, b)
    ss = [0.004, -0.2, 30.0, -0.0, 10.0]
    assert set(_periods(1.0, np.array(ss)).tolist()) == {0.0, 5.0, 2.0}
    want = [z_of(params, s).hex() for s in ss]
    with np.errstate(over="ignore", invalid="ignore"):
        got = z_many(params, ss)
        st = profile(params, np.array(ss))
        zero_d = [float(profile(params, np.array(s)).z) for s in ss]
    assert [z.hex() for z in got.tolist()] == want
    assert [z.hex() for z in st.z.tolist()] == want
    assert [z.hex() for z in zero_d] == want


def test_eval_state_is_profile_at_z_of():
    # profile takes its own height, z_of at a float; eval_state converts s
    for b in (0.0, 0.7, 1.5):
        params = DelaunayParams(0.4, b)
        st = eval_state(params, 2)
        assert st == profile(params, 2.0)
        assert st.z == z_of(params, 2.0)
        assert type(st.s) is float

import math

import numpy as np
import pytest

from cmcpinch.curvature import (analyze_point, principal_curvatures,
                                support_function)
from cmcpinch.delaunay import (DelaunayParams, GeneratrixState, eval_state,
                               profile, z_many)


def random_params(rng):
    pick = rng.random()
    if pick < 0.1:
        b = 0.0
    elif pick < 0.55:
        b = float(rng.uniform(0.05, 0.9))
    else:
        b = float(rng.uniform(1.1, 2.5))
    return DelaunayParams(float(rng.uniform(0.2, 2.0)), b)


def test_cylinder_point():
    params = DelaunayParams(1.0, 0.0)
    st = eval_state(params, 0.7)
    k1, k2 = principal_curvatures(st)
    assert k1 == pytest.approx(0.0, abs=1e-15)
    assert k2 == pytest.approx(1.0, rel=1e-14)
    assert support_function(st) == pytest.approx(-1.0, rel=1e-14)
    pa = analyze_point(st)
    assert pa.lambda1 == pytest.approx(1.0, rel=1e-14)
    assert pa.lambda2 == pytest.approx(0.0, abs=1e-12)


def test_unduloid_neck_point():
    # k1 = -BH/(1-B), k2 = H/(1-B), u = -(1-B)/H at the neck
    params = DelaunayParams(0.1, 0.9)
    pa = analyze_point(eval_state(params, 0.0))
    assert pa.k1 == pytest.approx(-0.9, rel=1e-12)
    assert pa.k2 == pytest.approx(1.0, rel=1e-12)
    assert pa.support == pytest.approx(-1.0, rel=1e-12)
    assert pa.lambda1 == pytest.approx(1.9, rel=1e-12)
    assert pa.lambda2 == pytest.approx(0.0, abs=1e-12)
    assert pa.gap == pytest.approx(0.0, abs=1e-12)
    assert pa.s == 0.0


def test_nodoid_neck_point():
    params = DelaunayParams(1.0, 1.5)
    pa = analyze_point(eval_state(params, 0.0))
    assert pa.support == pytest.approx(0.5, rel=1e-14)
    assert pa.lambda2 == pytest.approx(0.0, abs=1e-13)
    assert pa.gap == pytest.approx(0.0, abs=1e-12)


def test_cmc_identity():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        params = random_params(rng)
        st = profile(params, float(rng.uniform(-6.0, 6.0)), 0.0)
        k1, k2 = principal_curvatures(st)
        assert k1 + k2 == pytest.approx(params.H, abs=1e-8)


def test_gap_identity():
    # the product gap == the difference form, and the factored lambda2
    # == 1 + k2 u, algebraically
    rng = np.random.default_rng(22)
    for _ in range(1000):
        params = random_params(rng)
        span = min(6.0, 2.0 * math.pi / params.H)
        st = eval_state(params, float(rng.uniform(-span, span)))
        pa = analyze_point(st)
        u = pa.support
        assert pa.gap == pytest.approx(
            0.5 * (2.0 + pa.mean_curv * u) ** 2 - pa.phi_sq * u * u,
            abs=1e-10)
        assert pa.lambda2 == pytest.approx(1.0 + pa.k2 * u, abs=1e-12)


def test_phi_sq_closed_form():
    # k1 - k2 = H (B^2 - 1)/Q, so phi_sq = H^2 (B^2-1)^2 / (2 Q^2);
    # in particular the profile is umbilic free whenever B != 1
    rng = np.random.default_rng(23)
    for _ in range(500):
        params = random_params(rng)
        if params.B == 0.0:
            continue
        s = float(rng.uniform(-8.0, 8.0))
        st = profile(params, s, 0.0)
        pa = analyze_point(st)
        q = 1.0 + params.B ** 2 - 2.0 * params.B * math.cos(params.H * s)
        expected = (params.H * (params.B ** 2 - 1.0) / q) ** 2 / 2.0
        assert pa.phi_sq == pytest.approx(expected, rel=1e-10)
        assert pa.phi_sq > 0.0


def test_sphere_is_the_equality_case():
    # the great circle (rho cos(s / rho), rho sin(s / rho)) at s = 0, with
    # k1 = k2 = 1/rho and u = -rho; analyze_point reads only the state
    for rho in (0.5, 1.0, 3.7):
        st = GeneratrixState(s=0.0, x=rho, z=0.0, dx=0.0, dz=1.0,
                             ddx=-1.0 / rho, ddz=0.0)
        pa = analyze_point(st)
        assert (pa.k1, pa.k2, pa.support) == (1.0 / rho, 1.0 / rho, -rho)
        assert pa.phi_sq == 0.0
        assert pa.lambda1 == pytest.approx(0.0, abs=1e-15)
        assert pa.lambda2 == pytest.approx(0.0, abs=1e-15)
        assert pa.gap == pytest.approx(0.0, abs=1e-14)


def test_distance_hessian_matches_lambda1():
    # second derivative of |position|^2 / 2 along the profile is lambda1
    params = DelaunayParams(0.1, 0.9)
    h = 1e-4
    for s in (0.3, 1.0, 2.5):
        ss = np.array([s - h, s, s + h])
        zs = z_many(params, ss)
        sts = [profile(params, float(ss[i]), float(zs[i]))
               for i in range(3)]
        phi = [0.5 * (t.x ** 2 + t.z ** 2) for t in sts]
        fd = (phi[0] - 2.0 * phi[1] + phi[2]) / (h * h)
        pa = analyze_point(sts[1])
        assert fd == pytest.approx(pa.lambda1, abs=5e-6)


def test_array_gaps_equal_scalar_gaps_bitwise():
    # the sampled oracles (array) and single-point checks (scalar) must
    # see the same gap
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = random_params(rng)
        ss = rng.uniform(-8.0, 8.0, 400)
        zs = rng.uniform(-3.0, 3.0, 400)
        arr = analyze_point(profile(params, ss, zs))
        for i in range(len(ss)):
            pa = analyze_point(
                profile(params, float(ss[i]), float(zs[i])))
            for field in ("k1", "k2", "support", "phi_sq", "gap"):
                assert getattr(pa, field) == getattr(arr, field)[i]


def test_mean_curv_reproduces_params():
    params = DelaunayParams(0.37, 1.9)
    pa = analyze_point(eval_state(params, 0.45))
    assert pa.mean_curv == pytest.approx(0.37, abs=1e-12)

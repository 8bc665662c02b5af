import math

import numpy as np
import pytest

from cmcpinch.numerics import (IterationLimitError, NoSignChangeError,
                               QuadratureConfig, RootConfig,
                               SubdivisionLimitError, find_root, integrate)


def test_linear_integrand_is_exact():
    assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_cosine_quarter_period():
    val = integrate(math.cos, 0.0, math.pi / 2)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_swapped_endpoints_negate_exactly():
    def f(x):
        return math.exp(-x * x)
    assert integrate(f, 2.0, -1.0) == -integrate(f, -1.0, 2.0)


def test_empty_interval():
    assert integrate(math.cos, 1.3, 1.3) == 0.0


def test_additivity():
    def f(x):
        return math.sin(3.0 * x) + x
    whole = integrate(f, 0.0, 5.0)
    parts = integrate(f, 0.0, 2.2) + integrate(f, 2.2, 5.0)
    assert abs(whole - parts) <= 2e-10


def test_random_cubics_integrate_exactly():
    # Simpson panels are exact on cubics, so only rounding remains
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(-2.0, 2.0, size=4)
        a, b = sorted(rng.uniform(-3.0, 3.0, size=2))

        def f(x):
            return c[0] + x * (c[1] + x * (c[2] + x * c[3]))

        exact = sum(c[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                    for k in range(4))
        assert integrate(f, a, b) == pytest.approx(exact, abs=1e-12)


def test_oscillatory_integrand():
    val = integrate(lambda x: math.sin(40.0 * x) ** 2, 0.0, 10.0)
    exact = 5.0 - math.sin(800.0) / 160.0
    assert val == pytest.approx(exact, abs=1e-9)


def test_subdivision_budget_error():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=0.0, max_subdivisions=3)
    with pytest.raises(SubdivisionLimitError):
        integrate(lambda x: math.sin(40.0 * x) ** 2, 0.0, 10.0, cfg)


def test_loose_tolerance_stops_early():
    # with abs_tol=1 the first panel is accepted; the result is the
    # Richardson-corrected two-half Simpson value, visibly inexact
    cfg = QuadratureConfig(abs_tol=1.0)
    crude = integrate(math.cos, 0.0, 0.75 * math.pi, cfg)
    exact = math.sin(0.75 * math.pi)
    assert abs(crude - exact) > 1e-7
    assert abs(crude - exact) < 1e-2


def test_rel_tol_drives_large_integrals():
    # the absolute branch is unreachable for an integral this large, so
    # termination must come from the relative one, and loosening rel_tol
    # must cut the amount of refinement
    calls = []

    def f(x):
        calls.append(x)
        return 1000.0 * math.exp(x / 25.0)

    exact = 25000.0 * (math.exp(4.0) - 1.0)
    tight = integrate(f, 0.0, 100.0,
                      QuadratureConfig(abs_tol=1e-300, rel_tol=1e-9))
    assert tight == pytest.approx(exact, rel=1e-8)
    tight_calls = len(calls)

    calls.clear()
    loose = integrate(f, 0.0, 100.0,
                      QuadratureConfig(abs_tol=1e-300, rel_tol=1e-4))
    assert loose == pytest.approx(exact, rel=1e-4)
    assert len(calls) < tight_calls


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=math.nan)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


def test_root_config_validation():
    with pytest.raises(ValueError):
        RootConfig(x_tol=0.0)
    with pytest.raises(ValueError):
        RootConfig(max_iterations=0)


def test_root_of_cosine():
    root = find_root(math.cos, 0.0, 2.0)
    assert root == pytest.approx(math.pi / 2, abs=1e-10)


def test_root_at_endpoint():
    assert find_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0


def test_root_reversed_bracket():
    root = find_root(math.cos, 2.0, 0.0)
    assert root == pytest.approx(math.pi / 2, abs=1e-10)


def test_no_sign_change():
    with pytest.raises(NoSignChangeError):
        find_root(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_zero_f_tol_collapses_bracket():
    # find_root has no residual tolerance: it stops at bracket collapse
    cfg = RootConfig(x_tol=1e-12)
    root = find_root(lambda x: math.exp(x) - 2.0, 0.0, 1.0, cfg)
    assert root == pytest.approx(math.log(2.0), abs=1e-12)


def test_iteration_budget_error():
    cfg = RootConfig(x_tol=1e-15, max_iterations=3)
    with pytest.raises(IterationLimitError):
        find_root(math.cos, 0.0, 3.0, cfg)


def test_random_brackets_converge():
    rng = np.random.default_rng(7)
    cfg = RootConfig(x_tol=1e-13)
    for _ in range(200):
        r = rng.uniform(-5.0, 5.0)
        a = r - rng.uniform(0.1, 3.0)
        b = r + rng.uniform(0.1, 3.0)

        def f(x):
            return (x - r) * (1.0 + (x - r) ** 2)

        assert abs(find_root(f, a, b, cfg) - r) <= 1e-12

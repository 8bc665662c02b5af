import math

import numpy as np
import pytest

from cmcpinch.delaunay import DelaunayParams
from cmcpinch.freeboundary import SINH_T0, _u_of_s
from cmcpinch.numerics import (DEFAULT_ROOT, SIMPSON_PANELS,
                               IterationLimitError, NonFiniteError,
                               NoSignChangeError, RootConfig, find_root,
                               integrate)


def test_linear_integrand_is_exact():
    assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_cosine_quarter_period():
    val = integrate(np.cos, 0.0, math.pi / 2)
    assert val == pytest.approx(1.0, abs=1e-15)


def test_empty_interval():
    assert integrate(np.cos, 1.3, 1.3) == 0.0


def test_additivity():
    def f(x):
        return np.sin(3.0 * x) + x
    whole = integrate(f, 0.0, 5.0)
    parts = integrate(f, 0.0, 2.2) + integrate(f, 2.2, 5.0)
    assert abs(whole - parts) <= 1e-14


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
        assert integrate(f, a, b) == pytest.approx(exact, abs=1e-13)


def test_integrand_is_called_once_on_the_grid():
    calls = []

    def f(x):
        calls.append(x)
        return np.ones_like(x)

    assert integrate(f, -1.0, 3.0) == pytest.approx(4.0, abs=1e-14)
    (grid,) = calls
    assert len(grid) == 2 * SIMPSON_PANELS + 1
    assert (grid[0], grid[-1]) == (-1.0, 3.0)
    assert np.all(np.diff(grid) > 0.0)


def test_oscillatory_integrand():
    # about 160 grid points a period: the fixed grid resolves it
    val = integrate(lambda x: np.sin(40.0 * x) ** 2, 0.0, 10.0)
    exact = 5.0 - math.sin(800.0) / 160.0
    assert val == pytest.approx(exact, abs=1e-9)


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


def test_non_finite_value_raises():
    # nan fails every sign test, so it must not reach the bracket logic
    def f(x):
        return math.nan if 0.4 < x < 0.6 else x - 0.5

    with pytest.raises(NonFiniteError, match="nan at x = 0.5"):
        find_root(f, 0.0, 1.0)
    with pytest.raises(NonFiniteError, match="inf at x = 0.0"):
        find_root(lambda x: math.inf if x == 0.0 else x, 0.0, 1.0)
    with pytest.raises(NonFiniteError, match="nan at x = 1.0"):
        find_root(lambda x: (x - 0.5) if x < 1.0 else math.nan, 0.0, 1.0)


def _recorded(f):
    points = {}

    def g(x):
        y = f(x)
        points[x] = y[0] if isinstance(y, tuple) else y
        return y
    return g, points


def _meets_termination_rule(root, points, tol):
    """root is an evaluated zero, or the end with the smaller |f| of a
    sign-changing pair of evaluated points at most tol apart."""
    if points[root] == 0.0:
        return True
    return any((fx > 0.0) != (points[root] > 0.0) and abs(x - root) <= tol
               and abs(points[root]) <= abs(fx) for x, fx in points.items())


def _u_bracket(b):
    # the unduloid's crossing in [0, s0] and the nodoid's in [0, r0]; at
    # B = 0.3 there is none in [0, s0], but there is one period on;
    # s0 = arccos(B) / H and r0 = arccos(1/B) / H
    p = DelaunayParams(1.0, b)
    if b == 0.3:
        return p, 2.0 * math.pi, 2.0 * math.pi + math.acos(p.B) / p.H
    return p, 0.0, math.acos(p.B if b < 1.0 else 1.0 / p.B) / p.H


# the most evaluations measured for one crossing on these shapes is 9; the
# secant-and-bisection step before the Newton step took about 30
NEWTON_CAP = 10


@pytest.mark.parametrize("b", [0.3, 0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 1e9])
def test_newton_step_on_u_within_evaluation_cap(b):
    # u and u' at H = 1, with the neck-unit tolerance and first point
    # that freeboundary uses
    p, lo, hi = _u_bracket(b)
    unit = min(1.0, abs(1.0 - b))
    tol = 1e-12 * unit
    f, points = _recorded(_u_of_s(p, {}))
    root = find_root(f, lo, hi, RootConfig(x_tol=tol), SINH_T0 * unit)
    assert lo < root < hi
    assert _meets_termination_rule(root, points, tol)
    assert len(points) <= NEWTON_CAP


def test_newton_step_on_a_polynomial_within_evaluation_cap():
    # Newton's own example, x^3 - 2x - 5, from the bracket ends alone
    f, points = _recorded(lambda x: (x ** 3 - 2.0 * x - 5.0,
                                     3.0 * x * x - 2.0))
    root = find_root(f, 2.0, 3.0)
    assert root == pytest.approx(2.0945514815423265, abs=1e-12)
    assert _meets_termination_rule(root, points, 1e-12)
    assert len(points) <= NEWTON_CAP


def test_first_point_is_tried_first_and_only_inside_the_bracket():
    f, points = _recorded(lambda x: (x - 0.3, 1.0))
    assert find_root(f, 0.0, 1.0, DEFAULT_ROOT, 0.3) == 0.3
    assert list(points) == [0.0, 1.0, 0.3]
    f, points = _recorded(lambda x: (x - 0.3, 1.0))
    find_root(f, 0.0, 1.0, DEFAULT_ROOT, 7.0)
    assert 7.0 not in points


def test_a_bracket_of_adjacent_floats_returns_the_smaller_residual():
    # x_tol below one ulp of the root: the bracket closes to two adjacent
    # floats, which cannot shrink, and the end with the smaller |f| is
    # the root
    f, points = _recorded(lambda x: (x * x - 2.0, 2.0 * x))
    root = find_root(f, 1.0, 2.0, RootConfig(x_tol=1e-300))
    assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
    other = [x for x in points if (points[x] > 0.0) != (points[root] > 0.0)
             and abs(x - root) == math.ulp(root)]
    assert len(other) == 1
    assert abs(points[root]) <= abs(points[other[0]])


def test_step_over_the_root_is_at_least_one_float():
    # the root 1 + 1e-17 lies between 1 and the next float; from f(1) the
    # Newton step and x_tol / 2 both leave 1 where it is, so the search
    # steps one float over the root, and that bracket cannot shrink
    f, points = _recorded(lambda x: (x - 1.0 - 1e-17, 1.0))
    assert find_root(f, 0.0, 2.0, RootConfig(x_tol=1e-300)) == 1.0
    assert list(points) == [0.0, 2.0, 1.0, math.nextafter(1.0, 2.0)]

"""Quadrature and root finding.

Two kernels:

* ``integrate``: the composite Simpson rule on SIMPSON_PANELS equal
  panels, forward over [a, b] with a <= b, one numpy evaluation of the
  integrand on the whole grid.  It is the verify battery's oracle for
  the closed-form height (AC3, AC14); no other path integrates.  The
  grid is fixed, so there is no tolerance and no error estimate: the
  panel count is sized by the rule's error against mpmath's z(2.0) (the
  ``z2Oracle`` cells of tests/golden/reference.json), at most 9.5e-16
  there, and 1.4e-15 at 10^6 panels, whose longer sums gather more
  rounding.
* ``find_root``: bracketed scalar root finding (the orthogonal crossing
  of every portion), a Newton step safeguarded by bisection.  It stops
  only on an exact zero of f or once the bracket is at most ``x_tol``
  wide; there is no residual test.  It is plain Python on purpose: the
  rest of the package needs exact control over its termination
  (bracket-width convergence, the iteration budget) rather than
  maximum speed.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

from ._np import np
from ._record import Record


class NoSignChangeError(ValueError):
    """Root bracket endpoints have the same sign."""


class IterationLimitError(RuntimeError):
    """Iteration budget exhausted before convergence."""


class NonFiniteError(ArithmeticError):
    """The root function is nan or infinite at a point of the search."""


class RootConfig(Record):
    __slots__ = _fields = ("x_tol", "max_iterations")

    def __init__(self, x_tol: float = 1e-12,
                 max_iterations: int = 200) -> None:
        if not x_tol > 0.0:
            raise ValueError("x_tol must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.x_tol = x_tol
        self.max_iterations = max_iterations


DEFAULT_ROOT = RootConfig()
SIMPSON_PANELS = 10 ** 4


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float,
              b: float) -> float:
    """The composite Simpson rule for f over [a, b], a <= b, on
    SIMPSON_PANELS equal panels.

    f maps an array of points to the integrand there; it is called once,
    on all 2 SIMPSON_PANELS + 1 grid points.
    """
    vals = f(np.linspace(a, b, 2 * SIMPSON_PANELS + 1))
    h = (b - a) / (2 * SIMPSON_PANELS)
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1::2].sum()
                            + 2.0 * vals[2:-1:2].sum()))


def _next_point(a, fa, da, b, fb, db, tol, prev, last):
    """The next point of find_root inside (a, b), and its step size."""
    width = b - a
    chord = (fb - fa) / width
    ends = ((a, fa, da), (b, fb, db))
    for end, fe, de in (ends if abs(fa) <= abs(fb) else ends[::-1]):
        slope = de if math.isfinite(de) and de != 0.0 else chord
        step = fe / slope
        if end - step == end or abs(step) < 0.5 * tol and last < 0.5 * tol:
            # Newton cannot get closer from this end: step over the root,
            # by x_tol / 2 or at least one float
            other = b if end == a else a
            x = end + math.copysign(0.5 * tol, other - end)
            if x == end:
                x = math.nextafter(end, other)
            return x, abs(x - end)
        if a < end - step < b and abs(step) <= 0.5 * prev:
            return end - step, abs(step)
    return a + 0.5 * width, 0.5 * width


def find_root(f: Callable, a: float, b: float,
              cfg: RootConfig = DEFAULT_ROOT,
              x0: Optional[float] = None) -> float:
    """Locate a root of f inside the bracket [a, b], a < b.

    f(x) returns the pair (f(x), f'(x)); it is called once per point.
    x0, where given inside the bracket, is the first point after the
    ends.  Each later step is a Newton step from a bracket end, the one
    with the smaller |f| first, along f' there, or along the chord
    through the two ends where f' is zero or not finite: for classify's
    u, every step from the end s = 0, where u' = 0.  It falls back to
    bisection when neither end's step lands inside the bracket at most
    half as long as the step before last.  Once the Newton step and the
    step before it are both below x_tol / 2, or the step cannot move the
    end, the next point is x_tol / 2 (at least one float) inside the
    bracket from that end, which closes the bracket over the root.

    Stops only where f is exactly zero, returning that x, or once the
    bracket is at most ``x_tol`` wide (or cannot shrink in floating
    point), returning the bracket end with the smaller |f|; there is no
    residual tolerance.  The endpoints are tried first, so an endpoint
    root is returned directly.  Raises NonFiniteError where f is nan or
    infinite, NoSignChangeError when f(a) and f(b) have the same
    (nonzero) sign and IterationLimitError when the budget runs out.
    A bracket with not a < b (reversed, empty or nan) raises ValueError
    before f is called.
    """
    if not a < b:
        raise ValueError(f"the bracket [{a!r}, {b!r}] is not ordered a < b")
    tol = cfg.x_tol

    def value_slope(x: float) -> tuple[float, float]:
        fx, dfx = f(x)
        if not math.isfinite(fx):
            raise NonFiniteError(f"the root search met f = {fx!r} at x = "
                                 f"{x!r}, not a finite value")
        return fx, dfx

    fa, da = value_slope(a)
    if fa == 0.0:
        return a
    fb, db = value_slope(b)
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChangeError(
            f"f({a!r})={fa!r} and f({b!r})={fb!r} have the same sign")

    # the sizes of the last two steps, for the bisection fallback
    prev = last = b - a
    x = math.nan if x0 is None else x0
    for _ in range(cfg.max_iterations):
        width = b - a
        if width <= tol:
            return a if abs(fa) <= abs(fb) else b
        if not (a < x < b):
            x, size = _next_point(a, fa, da, b, fb, db, tol, prev, last)
        else:
            size = width
        if not (a < x < b):
            # bracket already at float resolution
            return a if abs(fa) <= abs(fb) else b
        prev, last = last, size
        fx, dfx = value_slope(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa, da = x, fx, dfx
        else:
            b, fb, db = x, fx, dfx
        x = math.nan
    raise IterationLimitError(
        f"no convergence in {cfg.max_iterations} iterations "
        f"(bracket [{a!r}, {b!r}])")

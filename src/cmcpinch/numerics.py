"""Scalar quadrature and root finding.

Two kernels:

* ``integrate``: globally adaptive Simpson quadrature, used only as the
  verify battery's oracle for the closed-form height (AC3, AC8, AC14);
  no other path integrates.  The interval is covered by three-point
  Gauss-Lobatto (Simpson) panels; each panel carries a Richardson error
  estimate from comparing one against two Simpson applications, the
  worst panel is split first, and the loop stops once the summed
  estimate meets ``max(abs_tol, rel_tol * |I|)``.
* ``find_root``: bracketed scalar root finding (the orthogonal crossing
  of every portion), a Newton step safeguarded by bisection.  It stops
  only on an exact zero of f or once the bracket is at most ``x_tol``
  wide; there is no residual test.

Both are plain Python on purpose: the rest of the package needs exact
control over the termination semantics (subdivision budget errors, the
behaviour at loose tolerances, bracket-width convergence) rather than
maximum speed.

The panel estimate is trusted as-is, so a loose tolerance really does
accept the first panel; that is relied on by the forced-failure mode of
the verification command.  The flip side is the usual adaptive-Simpson
caveat: an integrand that aliases at the five initial samples (many
periods per interval) can fool the estimate, so oscillatory integrals
should be split at the period scale by the caller.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


class SubdivisionLimitError(RuntimeError):
    """Quadrature could not meet the tolerance within the panel budget."""


class NoSignChangeError(ValueError):
    """Root bracket endpoints have the same sign."""


class IterationLimitError(RuntimeError):
    """Iteration budget exhausted before convergence."""


class NonFiniteError(ArithmeticError):
    """The root function is nan or infinite at a point of the search."""


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 100_000

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol >= 0.0:
            raise ValueError("rel_tol must be nonnegative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class RootConfig:
    x_tol: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not self.x_tol > 0.0:
            raise ValueError("x_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()
DEFAULT_ROOT = RootConfig()


class _Panel(NamedTuple):
    lo: float
    hi: float
    flo: float
    flm: float
    fmid: float
    frm: float
    fhi: float
    s_left: float
    s_right: float
    value: float
    err: float


def _make_panel(f: Callable[[float], float], lo: float, hi: float,
                flo: float, fmid: float, fhi: float, coarse: float) -> _Panel:
    # coarse is the one-shot Simpson value on [lo, hi]; the refined value
    # is the two-half composite plus its Richardson correction.
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    rm = 0.5 * (mid + hi)
    flm = f(lm)
    frm = f(rm)
    h12 = (hi - lo) / 12.0
    s_left = h12 * (flo + 4.0 * flm + fmid)
    s_right = h12 * (fmid + 4.0 * frm + fhi)
    fine = s_left + s_right
    err = abs(fine - coarse) / 15.0
    value = fine + (fine - coarse) / 15.0
    return _Panel(lo, hi, flo, flm, fmid, frm, fhi, s_left, s_right, value, err)


def integrate(f: Callable[[float], float], a: float, b: float,
              cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integrate f over [a, b] to the configured tolerance.

    Swapped endpoints negate the result exactly.  Raises
    SubdivisionLimitError when the summed panel error estimate still
    exceeds ``max(abs_tol, rel_tol * |I|)`` after ``max_subdivisions``
    panel splits.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, cfg)

    fa = f(a)
    fmid = f(0.5 * (a + b))
    fb = f(b)
    coarse = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    root = _make_panel(f, a, b, fa, fmid, fb, coarse)

    total = root.value
    err_sum = root.err
    heap = [(-root.err, 0, root)]
    seq = 1
    splits = 0
    while err_sum > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if splits >= cfg.max_subdivisions:
            raise SubdivisionLimitError(
                f"error estimate {err_sum:.3e} after {splits} subdivisions "
                f"(abs_tol={cfg.abs_tol:.3e}, rel_tol={cfg.rel_tol:.3e})")
        _, _, p = heapq.heappop(heap)
        mid = 0.5 * (p.lo + p.hi)
        left = _make_panel(f, p.lo, mid, p.flo, p.flm, p.fmid, p.s_left)
        right = _make_panel(f, mid, p.hi, p.fmid, p.frm, p.fhi, p.s_right)
        total += left.value + right.value - p.value
        err_sum += left.err + right.err - p.err
        heapq.heappush(heap, (-left.err, seq, left))
        heapq.heappush(heap, (-right.err, seq + 1, right))
        seq += 2
        splits += 1
    return total


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
    """Locate a root of f inside the bracket [a, b].

    f(x) returns f's value, or the pair (f(x), f'(x)); it is called once
    per point.  x0, where given inside the bracket, is the first point
    after the ends.  Each later step is a Newton step from a bracket end,
    the one with the smaller |f| first, along f' where it is given and
    along the chord through the two ends otherwise.  It falls back to
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
    """
    if b < a:
        a, b = b, a
    tol = cfg.x_tol

    def value_slope(x: float) -> tuple[float, float]:
        y = f(x)
        fx, dfx = y if isinstance(y, tuple) else (y, math.nan)
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

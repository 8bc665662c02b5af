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
  of every portion), bisection with a secant acceleration step whenever
  the secant point falls inside the current bracket and keeps shrinking
  it.  It stops only on an exact zero of f or once the bracket is at
  most ``x_tol`` wide; there is no residual test.

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
from typing import Callable, NamedTuple


class SubdivisionLimitError(RuntimeError):
    """Quadrature could not meet the tolerance within the panel budget."""


class NoSignChangeError(ValueError):
    """Root bracket endpoints have the same sign."""


class IterationLimitError(RuntimeError):
    """Iteration budget exhausted before convergence."""


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


def find_root(f: Callable[[float], float], a: float, b: float,
              cfg: RootConfig = DEFAULT_ROOT) -> float:
    """Locate a root of f inside the bracket [a, b].

    Stops only where f is exactly zero, returning that x, or once the
    bracket is at most ``x_tol`` wide (or cannot shrink in floating
    point), returning the bracket end with the smaller |f|; there is no
    residual tolerance.  The endpoints are tried first, so an endpoint
    root is returned directly.  Raises NoSignChangeError when f(a) and
    f(b) have the same (nonzero) sign and IterationLimitError when the
    budget runs out.
    """
    if b < a:
        a, b = b, a
    fa = f(a)
    if fa == 0.0:
        return a
    fb = f(b)
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChangeError(
            f"f({a!r})={fa!r} and f({b!r})={fb!r} have the same sign")

    force_bisect = False
    for _ in range(cfg.max_iterations):
        width = b - a
        if width <= cfg.x_tol:
            return a if abs(fa) <= abs(fb) else b
        x = math.nan
        if not force_bisect and fb != fa:
            x = b - fb * (b - a) / (fb - fa)
        if not (a < x < b):
            x = a + 0.5 * width
        if not (a < x < b):
            # bracket already at float resolution
            return a if abs(fa) <= abs(fb) else b
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        # a secant step that failed to halve the bracket forces a
        # bisection next time, so the width halves at least every
        # second iteration
        force_bisect = (b - a) > 0.5 * width
    raise IterationLimitError(
        f"no convergence in {cfg.max_iterations} iterations "
        f"(bracket [{a!r}, {b!r}])")

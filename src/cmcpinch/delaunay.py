"""Delaunay generatrix evaluation.

A Delaunay surface is the surface of revolution with constant mean
curvature H > 0 (sum-of-principal-curvatures normalization) obtained by
rotating a profile curve ``s -> (x(s), z(s))`` around the z axis.  With
the arc-length parameter s centred on a neck (minimal radius) at
``s = 0, z = 0``, the profile has the closed form

    Q(s)   = 1 + B^2 - 2 B cos(H s)
    x(s)   = sqrt(Q(s)) / H
    x'(s)  = B sin(H s) / sqrt(Q(s))
    z'(s)  = (1 - B cos(H s)) / sqrt(Q(s))
    x''(s) = B H (1 - B cos(H s)) (cos(H s) - B) / Q(s)^(3/2)
    z''(s) = B^2 H sin(H s) (B - cos(H s)) / Q(s)^(3/2)
    z(s)   = integral of z' over [0, s]

The shape parameter B >= 0 selects the family: B = 0 is the right
cylinder of radius 1/H, 0 < B < 1 an unduloid, B > 1 a nodoid.  B = 1
degenerates to a string of spheres and is rejected.  x' and z' satisfy
x'^2 + z'^2 = 1 identically, so s really is arc length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, integrate

CYLINDER = "cylinder"
UNDULOID = "unduloid"
NODOID = "nodoid"


@dataclass(frozen=True)
class DelaunayParams:
    """Mean curvature H and shape parameter B of a Delaunay surface."""

    H: float
    B: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.H) and self.H > 0.0):
            raise ValueError("H must be positive and finite")
        if not (math.isfinite(self.B) and self.B >= 0.0):
            raise ValueError("B must be nonnegative and finite")
        if self.B == 1.0:
            raise ValueError("B = 1 is the degenerate string of spheres")

    @property
    def family(self) -> str:
        if self.B == 0.0:
            return CYLINDER
        return UNDULOID if self.B < 1.0 else NODOID


@dataclass(frozen=True)
class GeneratrixState:
    """Profile position and derivatives: floats (eval_state) or arrays."""

    s: float
    x: float
    z: float
    dx: float
    dz: float
    ddx: float
    ddz: float


def profile(params: DelaunayParams, s, z) -> GeneratrixState:
    """The module docstring's closed forms at arc lengths s, heights z."""
    H = params.H
    B = params.B
    s = np.asarray(s, dtype=float)
    c = np.cos(H * s)
    sn = np.sin(H * s)
    q = 1.0 + B * B - 2.0 * B * c
    rq = np.sqrt(q)
    return GeneratrixState(
        s=s, x=rq / H, z=np.asarray(z, dtype=float),
        dx=B * sn / rq,
        dz=(1.0 - B * c) / rq,
        ddx=B * H * (1.0 - B * c) * (c - B) / (q * rq),
        ddz=B * B * H * sn * (B - c) / (q * rq))


def _dz_integrand(params: DelaunayParams):
    # a float-only copy of profile's z' (a test holds them bit-equal):
    # integrate calls it ~10^4 times per classification, one point at a
    # time, at 0.3 us a call against 8 us for profile on one point
    H = params.H
    B = params.B

    def f(u: float) -> float:
        c = math.cos(H * u)
        return (1.0 - B * c) / math.sqrt(1.0 + B * B - 2.0 * B * c)

    return f


def z_of(params: DelaunayParams, s: float,
         cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Height z(s), the integral of z' from 0 to s."""
    return integrate(_dz_integrand(params), 0.0, s, cfg)


def eval_state(params: DelaunayParams, s: float,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE,
               *, z: Optional[float] = None) -> GeneratrixState:
    """Scalar view of profile at one s, with float fields.

    z needs one quadrature from 0; callers that already know it (batch
    evaluation, periodic offsets) can pass it to skip the integral.
    """
    if z is None:
        z = z_of(params, s, cfg)
    st = profile(params, s, z)
    return GeneratrixState(**{k: float(v) for k, v in vars(st).items()})


def z_many(params: DelaunayParams, s_values: Sequence[float],
           cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """z at many arc-length values via one pass of segment integrals.

    The values are integrated between consecutive sorted knots (with 0
    inserted) and accumulated, so n samples cost one quadrature per gap
    instead of one quadrature from the origin each.
    """
    s_arr = np.asarray(s_values, dtype=float)
    # np.unique would import numpy.ma (~16 ms) in every CLI process
    knots = np.sort(np.concatenate((s_arr.ravel(), [0.0])))
    knots = knots[np.concatenate(([True], knots[1:] != knots[:-1]))]
    f = _dz_integrand(params)
    segments = np.empty(len(knots) - 1)
    for i in range(len(knots) - 1):
        segments[i] = integrate(f, knots[i], knots[i + 1], cfg)
    cumulative = np.concatenate(([0.0], np.cumsum(segments)))
    origin = int(np.searchsorted(knots, 0.0))
    z_at_knots = cumulative - cumulative[origin]
    return z_at_knots[np.searchsorted(knots, s_arr)]

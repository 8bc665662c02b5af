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

z is an elliptic integral (K. Kenmotsu, Tohoku Math. J. 32, 1980) and is
evaluated in closed form through Carlson's R_F and R_D; see _height.
profile evaluates these forms, z by z_of or z_many, at one float s
(math) or at an array (numpy); eval_state is profile at one float.

The shape parameter B >= 0 selects the family: B = 0 is the right
cylinder of radius 1/H, 0 < B < 1 an unduloid, B > 1 a nodoid.  B = 1
degenerates to a string of spheres and is rejected.  x' and z' satisfy
x'^2 + z'^2 = 1 identically, so s really is arc length.
"""
from __future__ import annotations

import math
from typing import Sequence

from ._np import np
from ._record import Record


CYLINDER = "cylinder"
UNDULOID = "unduloid"
NODOID = "nodoid"


class DelaunayParams(Record):
    """Mean curvature H and shape parameter B of a Delaunay surface."""

    __slots__ = _fields = ("H", "B")

    def __init__(self, H: float, B: float) -> None:
        if not (math.isfinite(H) and H > 0.0):
            raise ValueError("H must be positive and finite")
        if not (math.isfinite(B) and B >= 0.0):
            raise ValueError("B must be nonnegative and finite")
        if B == 1.0:
            raise ValueError("B = 1 is the degenerate string of spheres")
        self.H = H
        self.B = B

    @property
    def family(self) -> str:
        if self.B == 0.0:
            return CYLINDER
        return UNDULOID if self.B < 1.0 else NODOID


class GeneratrixState(Record):
    """Profile position and derivatives: floats at a float s, else arrays."""

    __slots__ = _fields = ("s", "x", "z", "dx", "dz", "ddx", "ddz")

    def __init__(self, s: float, x: float, z: float, dx: float, dz: float,
                 ddx: float, ddz: float) -> None:
        self.s = s
        self.x = x
        self.z = z
        self.dx = dx
        self.dz = dz
        self.ddx = ddx
        self.ddz = ddz


def profile(params: DelaunayParams, s) -> GeneratrixState:
    """The module docstring's closed forms, z included, at arc lengths s.

    They are evaluated through h = sin(H s / 2): Q = (1 - B)^2 + 4 B h^2,
    1 - B cos(H s) = (1 - B) + 2 B h^2 and cos(H s) - B = (1 - B) - 2 h^2,
    so nothing cancels at the neck, where Q is (1 - B)^2 however close B
    is to 1.  A float s is evaluated with math and z_of into float fields,
    anything else as arrays with numpy and z_many; a test holds the two
    bit-equal.  Only params.H and params.B are read, and on arrays they
    may be arrays too.
    """
    H = params.H
    B = params.B
    if isinstance(s, float):
        xp, z = math, z_of(params, s)
    else:
        s = np.asarray(s, dtype=float)
        xp, z = np, z_many(params, s)
    hs = H * s
    sn = xp.sin(hs)
    h = xp.sin(0.5 * hs)
    hh = h * h
    om = 1.0 - B
    q = om * om + 4.0 * B * hh
    rq = xp.sqrt(q)
    one_minus_bc = om + 2.0 * B * hh
    c_minus_b = om - 2.0 * hh
    # s, x, z, dx, dz, ddx, ddz
    return GeneratrixState(
        s, rq / H, z, B * sn / rq, one_minus_bc / rq,
        B * H * one_minus_bc * c_minus_b / (q * rq),
        -B * B * H * sn * c_minus_b / (q * rq))


# Carlson's series is accurate to r = 2^-53 (DLMF 19.36.1-2) once the
# duplication loop reaches 4^-n Q < A_n, with Q = (3r)^(-1/6) times the
# spread of the arguments about A_0 for R_F and (r/4)^(-1/6) for R_D
_QF = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)
_QD = (0.25 * 2.0 ** -53) ** (-1.0 / 6.0)


def _carlson_fd(x, y, z, xp):
    """Carlson's R_F(x, y, z) and R_D(x, y, z) for x, y >= 0, z > 0.

    One duplication loop serves both (B. C. Carlson, Numer. Algorithms
    10, 1995; DLMF 19.36.1-2).  It stops once 4^-n Q < A_n holds for
    both means, where the spread in Q is |A_0 - x| + |A_0 - y| +
    |A_0 - z|: that bounds DLMF's maximum from above, so the loop stops
    no earlier than the stated rule (at most one step later).  The loop
    is written twice, with the same statements in the same order: plain
    on floats (xp is math), and on arrays through np.where, so
    each element stops at its own step and gets the bits of the float
    loop.  test_z_many_matches_z_of holds the two equal by float.hex.
    """
    sqrt = xp.sqrt
    af = (x + y + z) / 3.0
    ad = (x + y + 3.0 * z) / 5.0
    dxf, dyf = af - x, af - y
    dxd, dyd = ad - x, ad - y
    qf = _QF * (abs(dxf) + abs(dyf) + abs(af - z))
    qd = _QD * (abs(dxd) + abs(dyd) + abs(ad - z))
    fac = 1.0
    tail = 0.0
    going = (qf >= af) | (qd >= ad)
    if xp is math:
        while going:
            sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
            lam = sx * (sy + sz) + sy * sz
            tail += fac / (sz * (z + lam))
            fac = 0.25 * fac
            x = 0.25 * (x + lam)
            y = 0.25 * (y + lam)
            z = 0.25 * (z + lam)
            af = 0.25 * (af + lam)
            ad = 0.25 * (ad + lam)
            going = (fac * qf >= af) | (fac * qd >= ad)
    else:
        while np.any(going):
            sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
            lam = sx * (sy + sz) + sy * sz
            tail = np.where(going, tail + fac / (sz * (z + lam)), tail)
            fac = np.where(going, 0.25 * fac, fac)
            x = np.where(going, 0.25 * (x + lam), x)
            y = np.where(going, 0.25 * (y + lam), y)
            z = np.where(going, 0.25 * (z + lam), z)
            af = np.where(going, 0.25 * (af + lam), af)
            ad = np.where(going, 0.25 * (ad + lam), ad)
            going = (fac * qf >= af) | (fac * qd >= ad)
    X = dxf * fac / af
    Y = dyf * fac / af
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
          - 3.0 * e2 * e3 / 44.0) / sqrt(af)
    X = dxd * fac / ad
    Y = dyd * fac / ad
    Z = -(X + Y) / 3.0
    xy = X * Y
    zz = Z * Z
    e2 = xy - 6.0 * zz
    e3 = (3.0 * xy - 8.0 * zz) * Z
    e4 = 3.0 * (xy - zz) * zz
    e5 = xy * Z * zz
    rd = (fac / (ad * sqrt(ad)) * (
        1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
        + 3.0 * tail)
    return rf, rd


def _carlson_g(B: float, sr, cr, xp):
    """G(r) = 2 (1-B) sin r R_F + (4 B a / 3) sin^3 r R_D, a = (1-B)^2.

    The arguments are (a cos^2 r, a + 4 B sin^2 r, a), all nonnegative,
    so nothing cancels at the neck; H z = G(r) for |H s / 2| = |r| <= pi/2.
    """
    om = 1.0 - B
    a = om * om
    rf, rd = _carlson_fd(a * cr * cr, a + 4.0 * B * sr * sr, a, xp)
    return 2.0 * om * sr * rf + 4.0 * B * a / 3.0 * sr * sr * sr * rd


def _height(params: DelaunayParams, s):
    """z(s) in closed form (Kenmotsu), for a float or an array of floats.

    On an array s, params.H and params.B may be arrays too, one value per
    element of s (verify's sample set); each element gets the float bits.

    With H s / 2 = k pi + r, |r| <= pi/2, the integrand is pi-periodic in
    H s / 2, so z(s) = [G(r) + 2 k G(pi/2)] / H; 2 G(pi/2) / H is the
    height gained over one period 2 pi / H.  Only the elements with
    k != 0, past their first half-period, add that rise, so a k = 0
    element keeps G(r) where G(pi/2) overflows.  A float B evaluates its
    one G(pi/2) when any element needs it; a B array evaluates G(pi/2)
    on those elements' rows alone.
    """
    xp = math if isinstance(s, float) else np
    B = params.B
    theta = 0.5 * (params.H * s)
    k = (theta / math.pi + 0.5) // 1.0
    r = theta - k * math.pi
    g = _carlson_g(B, xp.sin(r), xp.cos(r), xp)
    if xp is math:
        if k:
            g += 2.0 * k * _carlson_g(B, 1.0, 0.0, math)
    else:
        on = k != 0.0
        if on.any():
            rise = (_carlson_g(B[on], 1.0, 0.0, np) if np.ndim(B)
                    else _carlson_g(B, 1.0, 0.0, math))
            # a 0-d s gives a numpy scalar, which takes no item assignment
            g = np.asarray(g)
            g[on] += 2.0 * k[on] * rise
    # + 0.0 makes z(-0) = +0, the empty integral, on every family
    return g / params.H + 0.0


def z_of(params: DelaunayParams, s: float) -> float:
    """Height z(s), the integral of z' from 0 to s, in closed form."""
    return _height(params, float(s))


def eval_state(params: DelaunayParams, s: float) -> GeneratrixState:
    """profile at the one float s, with float fields."""
    return profile(params, float(s))


def z_many(params: DelaunayParams, s_values: Sequence[float]) -> np.ndarray:
    """z at many arc-length values, elementwise equal to z_of."""
    return _height(params, np.asarray(s_values, dtype=float))

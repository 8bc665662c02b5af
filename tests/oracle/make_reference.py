"""Exact values of the numeric cells of the golden CLI outputs.

    python tests/oracle/make_reference.py

writes tests/golden/reference.json.  Everything here is computed with
mpmath at 50 digits from the definitions, independently of the package:

* the height z(s) is the integral of z' = (1 - B cos Hs) / sqrt(Q) with
  Q = 1 + B^2 - 2 B cos Hs, split at the necks s = 2 pi k / H (z' is
  sharp there when B is near 1), and cross-checked against the Carlson
  form built from mpmath's own elliprf/elliprd;
* sBar (and the nodoid's rb) is solved as the zero of the support
  function u = x' z - x z' in mpmath, starting from the printed value,
  and R0 = |(x, z)| there; which scan rows have a portion is decided by
  the dichotomy z(s0) >= z0 in mpmath and checked against the golden;
* minGap and orthogonalityResidual are exactly 0: u(sBar) = 0 by
  definition, the gap is 0 at the neck s = 0, and the script asserts
  that it is nonnegative on a grid over the portion;
* the mesh golden's v and vn records are the exact mesh: the profile at
  n equally spaced arc lengths over [-sBar, sBar] (sBar bracketed below
  s0 by bisection, then solved as above) revolved at the angles
  2 pi j / n, and the sphere of the exact radius R0 at the latitudes
  pi k / (n / 2); its normals are the unit position vectors.

The inputs are those the CLI used: the float values of H, B and of the
np.linspace sample grids, read from tests/test_golden_outputs.py.  The
mesh's arc lengths and angles are not inputs but derived values, so
they are taken exactly.  Each
value is written with 25 significant digits; the test that reads the
file (tests/test_reference.py) needs neither mpmath nor this script.
The "kernel" section holds z at 10 arc lengths for each of 11 shape
parameters B, from 1e-9 to 1e12 and within 1e-6 of 1, for the closed
form's own tests.  The "z2Oracle" section holds z(2.0) at the six (H, B)
pairs of verify's Z2_ORACLE_PAIRS, read from src/cmcpinch/verify.py,
for the test that sizes AC14's fixed-grid Simpson oracle.  The
"catenoidLimit" section holds the B -> 1 limit of the crossing in neck
units a = |1 - B| / H: with t0 tanh t0 = 1 (the critical catenoid's
crossing), sBar / a -> sinh t0 and R0 / a -> sqrt(cosh^2 t0 + t0^2),
with the first-order slopes d(sBar / a) / d(1 - B) and d(R0 / a) /
d(1 - B) on each side of B = 1, and C, the largest of their sizes.
The "threshold" section holds B*, the zero of F(B) = z(s0) - z0 at
H = 1 that splits the unduloids with a neck-centred portion, (B*, 1),
from those without, to THRESHOLD_DIGITS digits; F is evaluated by
quadrature and cross-checked against the Carlson form at the root.
"""
from __future__ import annotations

import ast
import json
import math
import pathlib
import sys

import mpmath as mp
import numpy as np

mp.mp.dps = 50

HERE = pathlib.Path(__file__).resolve().parent
TESTS = HERE.parent
VERIFY = TESTS.parent / "src" / "cmcpinch" / "verify.py"
OUTPUT = TESTS / "golden" / "reference.json"
DIGITS = 25

KERNEL_H = 0.7
KERNEL_B = [1e-9, 0.3, 0.9, 0.999, 1.0 - 1e-6, 1.0 + 1e-6, 1.001, 1.5,
            10.0, 1e6, 1e12]
KERNEL_S = [-7.5, -1.0, 1e-3, 0.5, math.pi / 2.0, 3.0, math.pi,
            2.0 * math.pi, 10.0, 40.0]


def _exact(v: float) -> mp.mpf:
    """The binary value of a float, exactly."""
    return mp.mpf(float(v))


def _text(v) -> str | None:
    return None if v is None else mp.nstr(v, DIGITS)


class Surface:
    """Profile of the Delaunay surface (H, B) in mpmath arithmetic."""

    def __init__(self, H: float, B: float) -> None:
        self.H = _exact(H)
        self.B = _exact(B)

    def _parts(self, s):
        c = mp.cos(self.H * s)
        q = 1 + self.B ** 2 - 2 * self.B * c
        return c, q

    def dz(self, s):
        c, q = self._parts(s)
        return (1 - self.B * c) / mp.sqrt(q)

    def z(self, s) -> mp.mpf:
        """Integral of z' over [0, s], split at every neck in between."""
        s = mp.mpf(s)
        if s == 0:
            return mp.mpf(0)
        period = 2 * mp.pi / self.H
        lo, hi = (0, s) if s > 0 else (s, 0)
        necks = [k * period for k in range(int(mp.ceil(lo / period)),
                                           int(mp.floor(hi / period)) + 1)]
        knots = sorted({mp.mpf(lo), mp.mpf(hi), *necks})
        val = mp.quad(self.dz, knots)
        return val if s > 0 else -val

    def z_carlson(self, s) -> mp.mpf:
        """The same height through mpmath's elliprf/elliprd."""
        B = self.B
        a = (1 - B) ** 2

        def G(r):
            sr, cr = mp.sin(r), mp.cos(r)
            x, y = a * cr ** 2, a + 4 * B * sr ** 2
            return (2 * (1 - B) * sr * mp.elliprf(x, y, a)
                    + 4 * B * a / 3 * sr ** 3 * mp.elliprd(x, y, a))

        theta = self.H * mp.mpf(s) / 2
        k = mp.nint(theta / mp.pi)
        return (G(theta - k * mp.pi) + 2 * k * G(mp.pi / 2)) / self.H

    def state(self, s) -> dict:
        """x, x', z, z', x'', z'' and the curvature quantities at s."""
        H, B = self.H, self.B
        s = mp.mpf(s)
        z = self.z(s)
        c, q = self._parts(s)
        sn = mp.sin(H * s)
        rq = mp.sqrt(q)
        x = rq / H
        dx = B * sn / rq
        dz = (1 - B * c) / rq
        ddx = B * H * (1 - B * c) * (c - B) / q ** mp.mpf(1.5)
        ddz = B ** 2 * H * sn * (B - c) / q ** mp.mpf(1.5)
        k1 = dx * ddz - ddx * dz
        k2 = dz / x
        u = dx * z - x * dz
        phi_sq = (k1 - k2) ** 2 / 2
        gap = (2 + (k1 + k2) * u) ** 2 / 2 - phi_sq * u ** 2
        return {"s": s, "x": x, "z": z, "dx": dx, "dz": dz, "ddx": ddx,
                "ddz": ddz, "k1": k1, "k2": k2, "u": u,
                "lambda1": 1 + k1 * u, "lambda2": 1 + k2 * u,
                "phiSq": phi_sq, "gap": gap,
                "g": None if dz == 0 else x - dx / dz * z}

    def crossing(self, guess: float) -> mp.mpf:
        """Zero of the support function u near the float guess."""
        sb = mp.findroot(lambda s: self.state(s)["u"], _exact(guess),
                         tol=mp.mpf(10) ** -45)
        assert abs(self.state(sb)["u"]) < mp.mpf(10) ** -40
        return sb

    def portion(self, guess: float) -> dict:
        """sBar, R0 and the exact minGap (0) and residual (0)."""
        sb = self.crossing(guess)
        st = self.state(sb)
        R0 = mp.sqrt(st["x"] ** 2 + st["z"] ** 2)
        assert self.state(0)["gap"] == 0
        for s in mp.linspace(-sb, sb, 21):
            assert self.state(s)["gap"] >= -mp.mpf(10) ** -40, s
        return {"sBar": sb, "R0": R0, "scaledH": self.H * R0,
                "sBarScaled": sb / R0, "minGap": mp.mpf(0),
                "orthogonalityResidual": mp.mpf(0)}

    def first_crossing(self) -> mp.mpf:
        """The unduloid's crossing in (0, s0], which needs no guess.

        u = -x < 0 at the neck and u = -z' g >= 0 at s0 when a portion
        exists; bisection brackets the zero to about 1e-15 and crossing()
        solves it to full precision.
        """
        assert 0 < self.B < 1
        lo, hi = mp.mpf(0), self.s0()
        assert self.state(hi)["u"] >= 0
        for _ in range(50):
            mid = (lo + hi) / 2
            if self.state(mid)["u"] < 0:
                lo = mid
            else:
                hi = mid
        return self.crossing(float((lo + hi) / 2))

    # unduloid dichotomy
    def s0(self):
        return mp.acos(self.B) / self.H

    def z0(self):
        return (1 - self.B ** 2) / (self.H * self.B)


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)
            if argv[i].startswith("--")}


def _golden_float(text: str, key: str) -> float | None:
    """A float cell of a key: value line in a text or JSON golden; None
    where the cell is null (JSON) or its line is left out (text)."""
    for line in text.splitlines():
        name, _, value = line.strip().strip(",").partition(":")
        if name.strip('"') == key:
            return None if value.strip() == "null" else float(value)
    return None


def analyze_reference(flags: dict, golden: str) -> dict:
    H, B = float(flags["--H"]), float(flags["--B"])
    surf = Surface(H, B)
    ref = {"H": surf.H, "B": surf.B}
    if B < 1.0:
        ref.update(s0=surf.s0(), z0=surf.z0(), zAtS0=surf.z(surf.s0()))
        # the dichotomy, decided here: a portion exists when z(s0) >= z0
        pinched = ref["zAtS0"] >= ref["z0"]
    else:
        ref["r0"] = mp.acos(1 / surf.B) / surf.H
        pinched = True
    printed_sbar = _golden_float(golden, "sBar")
    assert pinched == (printed_sbar is not None), flags
    if pinched:
        ref.update(surf.portion(printed_sbar))
    out = {k: _text(v) for k, v in ref.items()}
    if B < 1.0 and pinched:
        violations = []
        for n in (1, 2, 3):
            t = (2 * n * mp.pi - mp.acos(surf.B)) / surf.H
            st = surf.state(t)
            violations.append({"t": _text(t), "lambda2": _text(st["lambda2"]),
                               "gap": _text(st["gap"])})
        out["violations"] = violations
    return out


PROFILE_COLUMNS = ["s", "x", "z", "dx", "dz", "ddx", "ddz", "k1", "k2", "u",
                   "lambda1", "lambda2", "phiSq", "gap", "g"]


def profile_reference(flags: dict) -> list:
    surf = Surface(float(flags["--H"]), float(flags["--B"]))
    ss = np.linspace(float(flags["--s-min"]), float(flags["--s-max"]),
                     int(flags["--n"]))
    rows = []
    for s in ss.tolist():
        st = surf.state(_exact(s))
        rows.append([_text(st[c]) for c in PROFILE_COLUMNS])
    return rows


def scan_reference(flags: dict, golden: str) -> list:
    hs = np.linspace(float(flags["--H-min"]), float(flags["--H-max"]),
                     int(flags["--H-steps"]))
    bs = np.linspace(float(flags["--B-min"]), float(flags["--B-max"]),
                     int(flags["--B-steps"]))
    golden_rows = [line.split(",") for line in golden.splitlines()[1:]]
    rows = []
    for (h, b), cells in zip(((h, b) for h in hs.tolist()
                              for b in bs.tolist()), golden_rows):
        surf = Surface(h, b)
        row = [_text(surf.H), _text(surf.B), None, None, None, None, None,
               None]
        margin = surf.z(surf.s0()) - surf.z0() if 0.0 < b < 1.0 else None
        # the dichotomy, decided here: a portion exists for every nodoid
        # and for the unduloids with z(s0) >= z0
        assert bool(cells[5]) == (b > 1.0 or (margin is not None
                                               and margin >= 0)), cells
        row[4] = _text(margin)
        if cells[5]:
            p = surf.portion(float(cells[5]))
            row[5:] = [_text(p["sBar"]), _text(p["R0"]), _text(p["minGap"])]
        rows.append(row)
    return rows


def mesh_reference(flags: dict) -> dict:
    """Exact v and vn rows of the portion and sphere objects, by object."""
    surf = Surface(float(flags["--H"]), float(flags["--B"]))
    n = int(flags["--resolution"])
    assert "--include-sphere" in flags
    sb = surf.first_crossing()
    # cos and sin of 2 pi j / n, exact zeros included
    ring = [(mp.cospi(mp.mpf(2 * j) / n), mp.sinpi(mp.mpf(2 * j) / n))
            for j in range(n)]
    verts, normals = [], []
    for i in range(n):
        st = surf.state(-sb + 2 * sb * i / (n - 1))
        for c, s in ring:
            verts.append([st["x"] * c, st["x"] * s, st["z"]])
            normals.append([-st["dz"] * c, -st["dz"] * s, st["dx"]])
    st = surf.state(sb)
    R0 = mp.sqrt(st["x"] ** 2 + st["z"] ** 2)
    n_lat = max(n // 2, 2)
    units = [[0, 0, mp.mpf(1)]]
    for k in range(1, n_lat):
        sp, cp = mp.sinpi(mp.mpf(k) / n_lat), mp.cospi(mp.mpf(k) / n_lat)
        units.extend([sp * c, sp * s, cp] for c, s in ring)
    units.append([0, 0, mp.mpf(-1)])

    def rows(table):
        return [[_text(mp.mpf(v)) for v in row] for row in table]

    return {"portion": {"v": rows(verts), "vn": rows(normals)},
            "sphere": {"v": rows([[R0 * v for v in row] for row in units]),
                       "vn": rows(units)}}


def kernel_reference() -> dict:
    cases = []
    for b in KERNEL_B:
        surf = Surface(KERNEL_H, b)
        zs = []
        for s in KERNEL_S:
            z = surf.z(_exact(s))
            closed = surf.z_carlson(_exact(s))
            assert abs(z - closed) <= mp.mpf(10) ** -35 * max(1, abs(z)), \
                (b, s, z, closed)
            zs.append(_text(z))
        cases.append({"B": repr(b), "z": zs})
    return {"H": repr(KERNEL_H), "s": [repr(s) for s in KERNEL_S],
            "cases": cases}


# |1 - B| at which the first-order slopes of the catenoid limit are
# measured: the second-order term is below 1e-11 of the slope there
CATENOID_EPS = mp.mpf(10) ** -12


def catenoid_reference() -> dict:
    """The B -> 1 limit of sBar / a and R0 / a at H = 1, and its slopes."""
    t0 = mp.findroot(lambda t: t * mp.tanh(t) - 1, mp.mpf("1.2"))
    s_lim = mp.sinh(t0)
    r_lim = mp.sqrt(mp.cosh(t0) ** 2 + t0 ** 2)
    slopes = {}
    for side, sign in (("below", 1), ("above", -1)):
        surf = Surface(1.0, 1.0)
        surf.B = 1 - sign * CATENOID_EPS
        sb = mp.findroot(lambda s: surf.state(s)["u"], s_lim * CATENOID_EPS,
                         tol=mp.mpf(10) ** -45)
        st = surf.state(sb)
        # u is of order eps; the quadrature leaves about 1e-29 of it
        assert abs(st["u"]) < mp.mpf(10) ** -25 * CATENOID_EPS
        r0 = mp.sqrt(st["x"] ** 2 + st["z"] ** 2)
        # 1 - B = sign * eps
        slopes[side] = {
            "sBar": (sb / CATENOID_EPS - s_lim) / (sign * CATENOID_EPS),
            "R0": (r0 / CATENOID_EPS - r_lim) / (sign * CATENOID_EPS)}
    C = max(abs(v) for side in slopes.values() for v in side.values())
    return {"t0": _text(t0), "sBarOverA": _text(s_lim),
            "R0OverA": _text(r_lim),
            "slopes": {side: {k: _text(v) for k, v in cells.items()}
                       for side, cells in slopes.items()},
            "C": _text(C)}


THRESHOLD_DIGITS = 40


def threshold_reference() -> dict:
    """B* with F(B*) = z(s0) - z0 = 0 at H = 1."""

    def F(b, height="z"):
        surf = Surface(1.0, 1.0)
        surf.B = mp.mpf(b)
        return getattr(surf, height)(surf.s0()) - surf.z0()

    b_star = mp.findroot(F, (mp.mpf("0.76"), mp.mpf("0.77")),
                         solver="anderson", tol=mp.mpf(10) ** -45)
    assert abs(F(b_star, "z_carlson")) < mp.mpf(10) ** -42
    # a simple zero: F < 0 below B* and F > 0 above it
    assert F(b_star - mp.mpf(10) ** -20) < 0 < F(b_star + mp.mpf(10) ** -20)
    return {"H": "1.0", "digits": THRESHOLD_DIGITS,
            "BStar": mp.nstr(b_star, THRESHOLD_DIGITS)}


def _literal(path: pathlib.Path, name: str):
    """The literal assigned to a module-level name, read without import."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == name:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def golden_outputs() -> list:
    """FILE_OUTPUTS of tests/test_golden_outputs.py."""
    return _literal(TESTS / "test_golden_outputs.py", "FILE_OUTPUTS")


def z2_oracle_reference() -> list:
    """z(2.0) at each (H, B) of verify's Z2_ORACLE_PAIRS."""
    return [{"H": repr(h), "B": repr(b),
             "z": _text(Surface(h, b).z(_exact(2.0)))}
            for (h, b), _ in _literal(VERIFY, "Z2_ORACLE_PAIRS")]


def main() -> int:
    files = {}
    for name, argv in golden_outputs():
        flags = _flags(argv)
        golden = (TESTS / "golden" / name).read_text()
        if argv[0] == "analyze":
            files[name] = analyze_reference(flags, golden)
        elif argv[0] == "profile":
            files[name] = profile_reference(flags)
        elif argv[0] == "scan":
            files[name] = scan_reference(flags, golden)
        elif argv[0] == "mesh":
            files[name] = mesh_reference(flags)
    data = {"digits": mp.mp.dps, "files": files, "kernel": kernel_reference(),
            "z2Oracle": z2_oracle_reference(),
            "catenoidLimit": catenoid_reference(),
            "threshold": threshold_reference()}
    OUTPUT.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

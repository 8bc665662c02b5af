"""Golden numbers against their exact values.

tests/golden/reference.json holds the exact value of every numeric cell
of the analyze, profile and scan goldens, at the inputs the CLI used,
and of every v and vn component of the mesh golden (mpmath at 50
digits; tests/oracle/make_reference.py writes it).  The
byte tests in test_golden_outputs.py say that the output did not change;
these say how far each printed number is from the truth, so a change
that moves a last digit can be told from a regression.  The file's
"z2Oracle" cells, z(2.0) at the shapes of verify's AC14, size that
check's fixed-grid Simpson oracle, and the analyze golden's zAtS0 cell
holds the same rule at AC3's z(s0).  Its "catenoidLimit" cells are the
B -> 1 limit of the crossing in neck units, the critical catenoid, and
the first-order constant of the approach.

A cell passes within 4 units in the last printed significant digit of
its reference, the 12th (the OBJ's 9th), which allows 3.5 units of error
beyond the rounding of the print, or within ABS_FLOOR: exact zeros (the
minimum gap, the neck gap, the orthogonality residual, a mesh coordinate
at a right angle) and near-zero cells where O(1) terms cancel are judged
by the floor instead.
"""
import functools
import json
import math
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REFERENCE = json.loads((GOLDEN_DIR / "reference.json").read_text())

ABS_FLOOR = 1e-12
UNITS = 4


def printed_digits(name: str) -> int:
    """Significant digits of the golden's numbers (mesh.py prints 9)."""
    return 9 if name.endswith(".obj") else 12


def allowed(ref: float, digits: int = 12) -> float:
    """4 units in the last printed digit of ref, at least ABS_FLOOR."""
    if ref == 0.0:
        return ABS_FLOOR
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - (digits - 1))
    return max(UNITS * unit, ABS_FLOOR)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _keyed_cells(pairs, ref: dict):
    """(key, printed, reference) for the float cells of key: value pairs."""
    pairs = list(pairs)
    floats = {k for k, v in pairs if k not in ("n0", "violations")
              and _number(str(v)) is not None}
    assert floats == set(ref) - {"violations"}
    for key, value in pairs:
        if key in floats:
            yield key, str(value), ref[key]


def golden_cells(name: str, text: str):
    """(locator, printed cell, exact value text) for one golden file."""
    ref = REFERENCE["files"][name]
    if name.endswith(".json"):
        payload = json.loads(text)
        yield from _keyed_cells(payload.items(), ref)
        violations = payload["violations"]
        assert len(violations) == len(ref.get("violations", []))
        for i, (row, ref_row) in enumerate(zip(violations,
                                               ref.get("violations", []))):
            for key in ("t", "lambda2", "gap"):
                yield f"violations[{i}].{key}", repr(row[key]), ref_row[key]
    elif name.endswith(".obj"):
        obj, rows = None, {}
        for line in text.splitlines():
            tag, _, rest = line.partition(" ")
            if tag == "o":
                obj = rest
                rows.update({(obj, "v"): 0, (obj, "vn"): 0})
            elif tag in ("v", "vn"):
                i = rows[obj, tag]
                rows[obj, tag] += 1
                for axis, cell, exact in zip("xyz", rest.split(" "),
                                             ref[obj][tag][i]):
                    yield f"{obj} {tag}[{i}].{axis}", cell, exact
        assert rows == {(o, tag): len(table) for o, tables in ref.items()
                        for tag, table in tables.items()}
    elif name.endswith(".txt"):
        pairs = [line.split(": ", 1) for line in text.splitlines()
                 if ": " in line and not line.startswith(" ")]
        assert not any(line.startswith(" ") for line in text.splitlines())
        yield from _keyed_cells(pairs, ref)
    else:
        lines = text.splitlines()
        header = lines[0].split(",")
        assert len(lines) - 1 == len(ref)
        for i, (line, ref_row) in enumerate(zip(lines[1:], ref)):
            for col, cell, exact in zip(header, line.split(","), ref_row):
                if cell == "" or _number(cell) is None:
                    continue
                assert exact is not None, (name, i, col)
                yield f"row {i} {col}", cell, exact


GOLDENS = sorted(REFERENCE["files"])


def test_reference_covers_the_numeric_goldens():
    # the verify goldens print check ratios, rounding residuals that have
    # no exact value
    numeric = {p.name for p in GOLDEN_DIR.iterdir()
               if p.suffix in (".json", ".txt", ".csv", ".obj")
               and p.name != "reference.json"
               and p.stem != "verify"}
    assert set(GOLDENS) == numeric


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_cells_within_reference_bound(name):
    text = (GOLDEN_DIR / name).read_text()
    digits = printed_digits(name)
    checked = 0
    for where, printed, exact in golden_cells(name, text):
        ref = float(exact)
        assert abs(float(printed) - ref) <= allowed(ref, digits), (
            f"{name} {where}: {printed} vs exact {exact}")
        checked += 1
    assert checked > 0


def test_simpson_oracle_and_frozen_constants_within_1e_12_of_reference():
    # AC14 holds the closed form to the fixed-grid Simpson rule and the rule
    # to its frozen constants within 1e-9; at the panel count verify uses,
    # both lie much closer than that to z(2.0) in mpmath, so the panel
    # count loosens none of AC14's comparisons
    from cmcpinch.delaunay import DelaunayParams
    from cmcpinch.numerics import integrate
    from cmcpinch.verify import Z2_ORACLE_PAIRS, _simpson_dz
    cells = REFERENCE["z2Oracle"]
    assert [(float(c["H"]), float(c["B"])) for c in cells] == [
        pair for pair, _ in Z2_ORACLE_PAIRS]
    for cell, ((h, b), frozen) in zip(cells, Z2_ORACLE_PAIRS):
        ref = float(cell["z"])
        simpson = integrate(_simpson_dz(DelaunayParams(h, b)), 0.0, 2.0)
        assert abs(simpson - ref) <= 1e-12, (h, b, simpson, cell["z"])
        assert abs(frozen - ref) <= 1e-12, (h, b, frozen, cell["z"])


def test_simpson_oracle_at_s0_within_1e_12_of_reference():
    # AC3 holds the closed form and the Simpson rule to 2.71697 within
    # 1e-4; the rule's own z(s0) at (0.1, 0.9) is far closer to mpmath
    from cmcpinch.freeboundary import s0
    from cmcpinch.numerics import integrate
    from cmcpinch.verify import EXAMPLE, _simpson_dz
    cell = REFERENCE["files"]["analyze_H0.1_B0.9.json"]
    assert (float(cell["H"]), float(cell["B"])) == (EXAMPLE.H, EXAMPLE.B)
    simpson = integrate(_simpson_dz(EXAMPLE), 0.0, s0(EXAMPLE))
    assert abs(simpson - float(cell["zAtS0"])) <= 1e-12, simpson


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
@pytest.mark.parametrize("k", range(6, 16))
def test_crossing_tends_to_the_critical_catenoid(k, side):
    # in units of the neck radius a = |1 - B| (H = 1) the crossing tends
    # to the critical catenoid's, sBar / a -> sinh t0 and R0 / a ->
    # sqrt(cosh^2 t0 + t0^2) with t0 tanh t0 = 1, linearly in |1 - B|;
    # an absolute root tolerance read up to 20% off from |1 - B| = 1e-12
    from cmcpinch.delaunay import DelaunayParams
    from cmcpinch.freeboundary import SINH_T0, classify
    cells = REFERENCE["catenoidLimit"]
    assert SINH_T0 == pytest.approx(float(cells["sBarOverA"]), rel=1e-15)
    b = 1.0 + side * 10.0 ** -k
    a = abs(1.0 - b)
    portion = classify(DelaunayParams(1.0, b)).portion
    bound = float(cells["C"]) * a + 1e-10
    assert abs(portion.s_bar / a - float(cells["sBarOverA"])) <= bound
    assert abs(portion.R0 / a - float(cells["R0OverA"])) <= bound


# Pinched shapes at H = 1 for the 50-digit check of the freeboundary
# theorem: unduloids from just above the dichotomy threshold
# B* = 0.76589502387... up to 1 - 1e-6, nodoids from 1 + 1e-6 to 1e9
def _mp_dz(H, B):
    """z' = (1 - B cos Hs) / sqrt(Q) as a function of s, in mpmath."""
    import mpmath as mp

    def dz(s):
        c = mp.cos(H * s)
        return (1 - B * c) / mp.sqrt(1 + B * B - 2 * B * c)
    return dz


@functools.lru_cache(maxsize=None)
def _mp_period_height(H, B, dps):
    """The rise of z over one period 2 pi / H, at dps digits."""
    import mpmath as mp
    with mp.workdps(dps):
        return mp.quad(_mp_dz(H, B), [0, 2 * mp.pi / H])


def mp_state(H, B, s):
    """x, x', z, z', x'', z'' at s on the surface (H, B), in mpmath.

    z is the integral of z' = (1 - B cos Hs) / sqrt(Q) from 0, by
    quadrature of the definition, so it shares nothing with the
    package's Carlson form.  z' is 2 pi / H periodic and sharp at the
    necks s = 2 pi k / H for B near 1, so z(s) = k z(2 pi / H) plus the
    integral over [0, s - 2 pi k / H], each between two necks.
    """
    import mpmath as mp
    period = 2 * mp.pi / H
    k = mp.floor(s / period)
    z = mp.quad(_mp_dz(H, B), [0, s - k * period])
    if k:
        z += k * _mp_period_height(H, B, mp.mp.dps)
    c, sn = mp.cos(H * s), mp.sin(H * s)
    q = 1 + B * B - 2 * B * c
    rq = mp.sqrt(q)
    return (rq / H, B * sn / rq, z, (1 - B * c) / rq,
            B * H * (1 - B * c) * (c - B) / (q * rq),
            B * B * H * sn * (B - c) / (q * rq))


THEOREM_SHAPES = [0.76589503, 0.7659, 0.9, 0.999, 1.0 - 1e-6,
                  1.0 + 1e-6, 1.5, 10.0, 1e3, 1e6, 1e9]


def test_portion_theorem_holds_at_50_digits():
    # the inequalities the freeboundary docstring proves on [0, sb]:
    # k1 u >= 0 (so lambda1 >= 1), x' >= 0 and x x' + z z' >= 0 (so
    # lambda2 >= 0 and |P| <= R0), in mpmath at 50 digits, on the exact
    # crossing solved from the package's
    mp = pytest.importorskip("mpmath")
    from cmcpinch.delaunay import DelaunayParams
    from cmcpinch.freeboundary import VERDICT_PINCHED, classify

    def state(B, s):
        """x', x x' + z z', k1 and u at s on the H = 1 surface of B."""
        x, dx, z, dz, ddx, ddz = mp_state(1, B, s)
        return dx, x * dx + z * dz, dx * ddz - ddx * dz, dx * z - x * dz

    with mp.workdps(50):
        for b in THEOREM_SHAPES:
            rep = classify(DelaunayParams(1.0, b))
            assert rep.verdict == VERDICT_PINCHED, b
            B = mp.mpf(b)
            sb = mp.findroot(lambda s: state(B, s)[3],
                             mp.mpf(rep.portion.s_bar))
            top = rep.s0 if b < 1.0 else rep.r0
            assert 0 < sb <= top, b
            assert abs(state(B, sb)[3]) < mp.mpf(10) ** -40 * (1 + B), b
            samples = [sb * j / 12 for j in range(12)]
            for s in samples + [sb * (1 - mp.mpf(10) ** -20)]:
                dx, radial, k1, u = state(B, s)
                assert k1 * u >= 0, (b, s)
                assert dx >= 0 and radial >= 0, (b, s)


def test_violation_closed_form_holds_at_50_digits():
    # violation_points' lambda2 = B (B - H z(t_n)) against 1 + k2 u from
    # the definitions at the exact t_n = (2 n pi - arccos B) / H, mpmath
    # at 50 digits
    mp = pytest.importorskip("mpmath")
    from cmcpinch.delaunay import DelaunayParams
    from cmcpinch.freeboundary import violation_points

    with mp.workdps(50):
        for b in (0.766, 0.8, 0.9, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-6):
            for h in (1.0, 0.1):
                H, B = mp.mpf(h), mp.mpf(b)
                for pt in violation_points(DelaunayParams(h, b), 3):
                    t = (2 * pt.n * mp.pi - mp.acos(B)) / H
                    x, dx, z, dz, _, _ = mp_state(H, B, t)
                    exact = 1 + dz / x * (dx * z - x * dz)
                    assert abs(pt.lambda2 - exact) <= 1e-13 * abs(exact), (
                        h, b, pt.n)
                    assert pt.gap == 2.0 * pt.lambda2

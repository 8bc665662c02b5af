"""Golden numbers against their exact values.

tests/golden/reference.json holds the exact value of every numeric cell
of the analyze, profile and scan goldens, at the inputs the CLI used,
and of every v and vn component of the mesh golden (mpmath at 50
digits; tests/oracle/make_reference.py writes it).  The
byte tests in test_golden_outputs.py say that the output did not change;
these say how far each printed number is from the truth, so a change
that moves a last digit can be told from a regression.

A cell passes within 4 units in the last printed significant digit of
its reference, the 12th (the OBJ's 9th), which allows 3.5 units of error
beyond the rounding of the print, or within ABS_FLOOR: exact zeros (the
minimum gap, the neck gap, the orthogonality residual, a mesh coordinate
at a right angle) and near-zero cells where O(1) terms cancel are judged
by the floor instead.
"""
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


# Pinched shapes at H = 1 for the 50-digit check of the freeboundary
# theorem: unduloids from just above the dichotomy threshold
# B* = 0.76589502387... up to 1 - 1e-6, nodoids from 1 + 1e-6 to 1e9
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
        c, sn = mp.cos(s), mp.sin(s)
        q = 1 + B * B - 2 * B * c
        x = mp.sqrt(q)
        dx, dz = B * sn / x, (1 - B * c) / x
        ddx = B * (1 - B * c) * (c - B) / (q * x)
        ddz = B * B * sn * (B - c) / (q * x)
        # z by mpmath's Carlson integrals; |s| / 2 < pi / 2 on a portion
        a, r = (1 - B) ** 2, s / 2
        args = (a * mp.cos(r) ** 2, a + 4 * B * mp.sin(r) ** 2, a)
        z = (2 * (1 - B) * mp.sin(r) * mp.elliprf(*args)
             + 4 * B * a / 3 * mp.sin(r) ** 3 * mp.elliprd(*args))
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

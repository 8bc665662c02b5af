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

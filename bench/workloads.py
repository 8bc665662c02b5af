"""The four benchmark workloads: seeded CLI inputs and output checks.

A workload turns a seeded ``random.Random`` into an endless stream of
calls.  A call is one or more ``cmcpinch`` argv lists run back to back;
the program sees only those argv lists.  After a call the workload
checks what the program wrote and returns one outcome per op (the unit
the benchmark's throughput, latencies and failures count).

An op fails on an exception, an unexpected exit code, or output that
fails the workload's check.  Failures are named by kind.  The kinds in
``KNOWN_DEFECTS`` are robustness defects the program has today (exit 3
on a valid input, a Pinched verdict with a negative minimum gap); they
count as failed ops but do not make a run incorrect.  Any other kind
means the output is wrong and the run is reported as incorrect.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

PINCHED = "PinchedFreeBoundaryPortion"
NO_ORTHOGONAL = "NoOrthogonalIntersection"
CYLINDER = "Cylinder"
INVALID = "Invalid"

NUMERICAL_FAILURE = "numerical-failure"
NEGATIVE_MIN_GAP = "negative-min-gap"
KNOWN_DEFECTS = frozenset({NUMERICAL_FAILURE, NEGATIVE_MIN_GAP})

# the bound AC4 and AC13 put on the minimum gap of a pinched portion
MIN_GAP_BOUND = -1e-8
# H * sBar and H * R0 depend on B only
SCALE_INVARIANCE_RTOL = 1e-8
# values the CLI prints carry 12 significant digits
PRINT_RTOL = 1e-11

SCAN_COLUMNS = ["H", "B", "family", "verdict", "zAtS0MinusZ0", "sBar", "R0",
                "minGap"]
PROFILE_COLUMNS = ["s", "x", "z", "dx", "dz", "ddx", "ddz", "k1", "k2", "u",
                   "lambda1", "lambda2", "phiSq", "gap", "g"]


@dataclass(frozen=True)
class Sizes:
    """Work per call and per run; TINY keeps the self-test fast."""

    scan_h_steps: int
    scan_b_max: float
    scan_b_steps: int
    export_resolution: int
    export_profile_n: int
    setup_repeats: int
    # calls in a run = round(seconds * rate), at least 1, so the calls a
    # run makes, and so its attempted and failed ops, depend only on the
    # workload, the seed and the seconds, never on the host's speed
    calls_per_s: dict
    # the same for the traced block, which runs its calls twice
    trace_calls_per_s: dict


FULL = Sizes(scan_h_steps=2, scan_b_max=4.0, scan_b_steps=21,
             export_resolution=256, export_profile_n=8192, setup_repeats=8,
             calls_per_s={"scan-grid": 0.7, "analyze-wide": 28.0,
                          "export": 0.35, "verify": 0.65},
             trace_calls_per_s={"scan-grid": 0.2, "analyze-wide": 10.0,
                                "export": 0.2, "verify": 0.25})
TINY = Sizes(scan_h_steps=2, scan_b_max=2.0, scan_b_steps=11,
             export_resolution=16, export_profile_n=64, setup_repeats=1,
             calls_per_s={"scan-grid": 0.0, "analyze-wide": 0.0,
                          "export": 0.0, "verify": 0.0},
             trace_calls_per_s={"scan-grid": 0.0, "analyze-wide": 0.0,
                                "export": 0.0, "verify": 0.0})


class Result(NamedTuple):
    """What one CLI invocation left behind."""

    code: Optional[int]        # None when cli.main raised
    stdout: str
    stderr: str
    write_times: list          # perf_counter at each stdout write
    start: float
    end: float


class Outcome(NamedTuple):
    latency: Optional[float]   # seconds; None for ops that never ran
    failure: Optional[str]     # failure kind, None when the op passed
    shape: str                 # the op's shape parameter B, for reuse share


class Call(NamedTuple):
    argvs: list
    spec: dict                 # what the check needs to know


def family_of(b: float) -> str:
    if b == 0.0:
        return "cylinder"
    return "unduloid" if b < 1.0 else "nodoid"


def exit_failure(res: Result) -> str:
    if res.code is None:
        return "exception:" + res.stderr.split(":")[0]
    if res.code == 3:
        return NUMERICAL_FAILURE
    return f"exit-{res.code}"


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _float(cell) -> float:
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {cell!r}")
    return v


# -- scan-grid ---------------------------------------------------------

def check_scan_row(cells: list, h: float, b: float,
                   seen: dict) -> Optional[str]:
    """Check one scan CSV row for the grid point (h, b).

    seen maps the B cell to the verdict, H*sBar and H*R0 first reported
    for that B in this run; later rows of the same B must agree.
    """
    if len(cells) != len(SCAN_COLUMNS):
        return "bad-row"
    h_cell, b_cell, family, verdict, dichotomy, sbar, r0, min_gap = cells
    try:
        if not (_close(_float(h_cell), h, PRINT_RTOL)
                and _close(_float(b_cell), b, PRINT_RTOL)):
            return "wrong-grid-point"
        if b == 1.0:
            ok = (verdict == INVALID
                  and cells[2:3] + cells[4:] == [""] * 5)
            return None if ok else "wrong-verdict"
        if family != family_of(b):
            return "wrong-family"
        if family == "cylinder":
            ok = verdict == CYLINDER and cells[4:] == [""] * 4
            return None if ok else "wrong-verdict"
        if family == "unduloid":
            pinched = _float(dichotomy) >= 0.0
        elif dichotomy != "":
            return "bad-row"
        else:
            pinched = True
        if verdict != (PINCHED if pinched else NO_ORTHOGONAL):
            return "wrong-verdict"
        if not pinched:
            return None if cells[5:] == [""] * 3 else "bad-row"
        scaled = (h * _float(sbar), h * _float(r0))
        gap = _float(min_gap)
    except ValueError:
        return "bad-row"
    first = seen.setdefault(b_cell, (verdict, scaled))
    if first[0] != verdict:
        return "verdict-depends-on-H"
    if not all(_close(x, y, SCALE_INVARIANCE_RTOL)
               for x, y in zip(first[1], scaled)):
        return "shape-depends-on-H"
    if gap < MIN_GAP_BOUND:
        return NEGATIVE_MIN_GAP
    return None


class ScanGrid:
    name = "scan-grid"
    why = ("batch (H, B) sweep over every family and the invalid B = 1 "
           "row; each B repeats across H, so reuse based on H-invariance "
           "shows here")

    def __init__(self, sizes: Sizes, work_dir: str) -> None:
        self.h_steps = sizes.scan_h_steps
        self.b_max = sizes.scan_b_max
        self.b_steps = sizes.scan_b_steps
        self.bs = np.linspace(0.0, self.b_max, self.b_steps)
        if 1.0 not in self.bs:
            raise ValueError("the B grid must contain B = 1 exactly")

    def calls(self, rng) -> Iterator[Call]:
        while True:
            h_min = 10.0 ** rng.uniform(-1.0, 0.5)
            h_max = h_min * 10.0 ** rng.uniform(0.2, 1.0)
            argv = ["scan", "--H-min", repr(h_min), "--H-max", repr(h_max),
                    "--H-steps", str(self.h_steps), "--B-min", "0",
                    "--B-max", repr(self.b_max),
                    "--B-steps", str(self.b_steps)]
            hs = np.linspace(h_min, h_max, self.h_steps)
            grid = [(float(h), float(b)) for h in hs for b in self.bs]
            yield Call([argv], {"grid": grid})

    def check(self, call: Call, results: list, seen: dict) -> list:
        res = results[0]
        grid = call.spec["grid"]
        lines = res.stdout.splitlines()
        rows = list(csv.reader(lines))
        header_ok = bool(rows) and rows[0] == SCAN_COLUMNS
        rows = rows[1:] if header_ok else []
        # csv.writer writes each row with one write call
        times = (res.write_times if len(res.write_times) == len(lines)
                 else None)
        out = []
        for i, (h, b) in enumerate(grid):
            shape = repr(b)
            if i >= len(rows):
                failure = (exit_failure(res) if res.code != 0
                           else "missing-row")
                out.append(Outcome(None, failure, shape))
                continue
            latency = (times[i + 1] - times[i] if times
                       else (res.end - res.start) / len(grid))
            out.append(Outcome(latency, check_scan_row(rows[i], h, b, seen),
                               shape))
        if len(rows) > len(grid):
            out.append(Outcome(None, "extra-row", "extra"))
        if res.code == 0 and not header_ok:
            out = [o._replace(failure=o.failure or "bad-header")
                   for o in out]
        return out


# -- analyze-wide ------------------------------------------------------

def check_analyze_payload(payload: dict, h: float,
                          b: float) -> Optional[str]:
    """Check one `analyze --format json` report for (h, b)."""
    try:
        if not (_close(payload["H"], h, PRINT_RTOL)
                and _close(payload["B"], b, PRINT_RTOL)):
            return "wrong-parameters"
        family = payload["family"]
        verdict = payload["verdict"]
        if family != family_of(b):
            return "wrong-family"
        if family == "unduloid":
            z_top, z_thresh = payload["zAtS0"], payload["z0"]
            if verdict not in (PINCHED, NO_ORTHOGONAL):
                return "wrong-verdict"
            # both sides are printed to 12 digits; a tie is undecidable
            if (not _close(z_top, z_thresh, PRINT_RTOL)
                    and (verdict == PINCHED) != (z_top >= z_thresh)):
                return "wrong-verdict"
        elif verdict != PINCHED or payload["r0"] is None:
            return "wrong-verdict"
        portion = [payload[k] for k in ("sBar", "R0", "minGap")]
        if verdict != PINCHED:
            return None if portion == [None] * 3 else "bad-output"
        s_bar, r0, min_gap = (_float(v) for v in portion)
        if not (s_bar > 0.0 and r0 > 0.0):
            return "bad-output"
        if family == "nodoid" and not s_bar < payload["r0"]:
            return "crossing-outside-branch"
    except (KeyError, TypeError, ValueError):
        return "bad-output"
    if min_gap < MIN_GAP_BOUND:
        return NEGATIVE_MIN_GAP
    return None


class AnalyzeWide:
    name = "analyze-wide"
    why = ("independent single queries with H and B log-uniform over many "
           "decades, no shape repeats; per-call latency and the robustness "
           "defects")

    # per block of eight calls: two B < 1 (mostly cheap no-crossing
    # answers), five B > 1 (nodoid portion builds) and one B within
    # 1e-9..1e-1 of the degenerate B = 1.  Fixing the share of cheap
    # answers at a quarter keeps the latency median inside the portion
    # builds instead of jumping between the two classes from seed to
    # seed.
    STRATA = ["below"] * 2 + ["above"] * 5 + ["near"]

    def __init__(self, sizes: Sizes, work_dir: str) -> None:
        pass

    @staticmethod
    def draw(rng, stratum: str) -> tuple[float, float]:
        if stratum == "near":
            # below H = 1e-2 single calls near B = 1 take seconds, which
            # would let a seed's few draws there set the run's throughput
            h = 10.0 ** rng.uniform(-2.0, 2.0)
            d = 10.0 ** rng.uniform(-9.0, -1.0)
            return h, (1.0 - d if rng.random() < 0.5 else 1.0 + d)
        h = 10.0 ** rng.uniform(-6.0, 6.0)
        if stratum == "below":
            return h, 10.0 ** rng.uniform(-9.0, 0.0)
        return h, 10.0 ** rng.uniform(0.0, 9.0)

    def calls(self, rng) -> Iterator[Call]:
        while True:
            block = list(self.STRATA)
            rng.shuffle(block)
            for stratum in block:
                h, b = self.draw(rng, stratum)
                if b == 1.0:
                    continue
                argv = ["analyze", "--H", repr(h), "--B", repr(b),
                        "--format", "json"]
                yield Call([argv], {"H": h, "B": b})

    def check(self, call: Call, results: list, seen: dict) -> list:
        res = results[0]
        if res.code != 0:
            failure = exit_failure(res)
        else:
            try:
                payload = json.loads(res.stdout)
            except ValueError:
                failure = "bad-json"
            else:
                failure = check_analyze_payload(payload, call.spec["H"],
                                                call.spec["B"])
        return [Outcome(res.end - res.start, failure, repr(call.spec["B"]))]


# -- export ------------------------------------------------------------

def _block(chunk: bytes, tag: bytes, dtype) -> np.ndarray:
    rows = chunk.count(b"\n")
    if (b"\n" + chunk).count(b"\n" + tag + b" ") != rows:
        raise ValueError(f"unexpected record in the {tag!r} block")
    cols = 6 if tag == b"f" else 3
    table = np.loadtxt(io.BytesIO(chunk), dtype=dtype,
                       usecols=range(1, cols + 1), ndmin=2)
    if len(table) != rows:
        raise ValueError(f"unreadable {tag!r} block")
    return table


def parse_obj(data: bytes) -> dict:
    """Objects of an OBJ file as name -> (vertices, normals, faces).

    Face indices are zero-based and local to the object.  Records must
    come in the order the exporter writes them: all v, all vn, all f.
    """
    objects = {}
    offset = 0
    for chunk in data.split(b"o ")[1:]:
        name, _, body = chunk.partition(b"\n")
        iv, iff = body.find(b"vn "), body.find(b"f ")
        verts = _block(body[:iv], b"v", float)
        normals = _block(body[iv:iff], b"vn", float)
        faces = _block(body[iff:].replace(b"//", b" "), b"f", np.int64)
        faces = faces - 1 - offset
        if not (faces[:, 0::2] == faces[:, 1::2]).all():
            raise ValueError("face normal index differs from vertex index")
        objects[name.decode()] = (verts, normals, faces[:, 0::2])
        offset += len(verts)
    return objects


def euler_characteristic(n_vertices: int, faces: np.ndarray) -> int:
    edges = np.concatenate((faces[:, [0, 1]], faces[:, [1, 2]],
                            faces[:, [2, 0]]))
    edges.sort(axis=1)
    n_edges = len(np.unique(edges[:, 0] * n_vertices + edges[:, 1]))
    return n_vertices - n_edges + len(faces)


def check_obj(data: bytes, resolution: int) -> Optional[str]:
    """Re-parse a `mesh --include-sphere` OBJ as AC16 does."""
    try:
        objects = parse_obj(data)
    except ValueError:
        return "bad-obj"
    if sorted(objects) != ["portion", "sphere"]:
        return "bad-obj"
    n_lat, n_lon = max(resolution // 2, 2), resolution
    expected = {"portion": (resolution ** 2, 2 * resolution * (resolution - 1), 0),
                "sphere": (2 + (n_lat - 1) * n_lon,
                           2 * n_lon * (n_lat - 1), 2)}
    sphere_verts = objects["sphere"][0]
    r0 = sphere_verts[0, 2]
    for name, (verts, normals, faces) in objects.items():
        n_v, n_f, chi = expected[name]
        if not (len(verts) == len(normals) == n_v and len(faces) == n_f):
            return "wrong-counts"
        if faces.min() < 0 or faces.max() >= n_v:
            return "bad-face-index"
        # 9 significant digits per component bound |n| - 1 by 1e-9
        if np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() > 1e-9:
            return "normals-not-unit"
        if euler_characteristic(n_v, faces) != chi:
            return "wrong-topology"
    radii = np.linalg.norm(objects["portion"][0], axis=1)
    if radii.max() / r0 - 1.0 > 1e-6:
        return "vertex-outside-ball"
    rings = np.concatenate((radii[:resolution], radii[-resolution:]))
    if np.abs(rings - r0).max() > 1e-6:
        return "boundary-not-on-sphere"
    return None


def check_profile(text: str, h: float, b: float, s_min: float, s_max: float,
                  n: int) -> Optional[str]:
    """Row count, sample grid and the closed forms of x, x', z'."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != PROFILE_COLUMNS:
        return "bad-header"
    if len(rows) != n + 1:
        return "wrong-row-count"
    try:
        table = np.array([[_float(c) for c in r[:5]] for r in rows[1:]])
    except (ValueError, IndexError):
        return "bad-row"
    s, x, dx, dz = table[:, 0], table[:, 1], table[:, 3], table[:, 4]
    if not (_close(s[0], s_min, PRINT_RTOL)
            and _close(s[-1], s_max, PRINT_RTOL)):
        return "wrong-grid"
    x_ref = np.sqrt(1.0 + b * b - 2.0 * b * np.cos(h * s)) / h
    if np.abs(x / x_ref - 1.0).max() > 1e-9:
        return "wrong-radius"
    if np.abs(dx * dx + dz * dz - 1.0).max() > 1e-10:
        return "not-arc-length"
    return None


class Export:
    name = "export"
    why = ("output-bound: a high-resolution OBJ with its sphere plus a "
           "long profile CSV; mesh and formatting gains show only here")

    PERIODS = 5

    def __init__(self, sizes: Sizes, work_dir: str) -> None:
        self.resolution = sizes.export_resolution
        self.profile_n = sizes.export_profile_n
        self.obj_path = os.path.join(work_dir, "export.obj")

    def calls(self, rng) -> Iterator[Call]:
        unduloid = True
        while True:
            b = rng.uniform(0.8, 0.97) if unduloid else rng.uniform(1.1, 3.0)
            unduloid = not unduloid
            h = 10.0 ** rng.uniform(-0.5, 0.5)
            half = self.PERIODS * math.pi / h
            mesh = ["mesh", "--H", repr(h), "--B", repr(b), "--out",
                    str(self.obj_path), "--resolution", str(self.resolution),
                    "--include-sphere"]
            profile = ["profile", "--H", repr(h), "--B", repr(b),
                       "--s-min", repr(-half), "--s-max", repr(half),
                       "--n", str(self.profile_n)]
            yield Call([mesh, profile],
                       {"H": h, "B": b, "s_min": -half, "s_max": half})

    def check(self, call: Call, results: list, seen: dict) -> list:
        spec = call.spec
        mesh_res, profile_res = results
        if mesh_res.code != 0:
            failure = exit_failure(mesh_res)
        elif profile_res.code != 0:
            failure = exit_failure(profile_res)
        else:
            with open(self.obj_path, "rb") as fh:
                failure = check_obj(fh.read(), self.resolution)
            failure = failure or check_profile(
                profile_res.stdout, spec["H"], spec["B"], spec["s_min"],
                spec["s_max"], self.profile_n)
        latency = sum(r.end - r.start for r in results)
        return [Outcome(latency, failure, repr(spec["B"]))]


# -- verify ------------------------------------------------------------

def check_verify_lines(text: str) -> Optional[str]:
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except ValueError:
        return "bad-json"
    ids = [r.get("id") for r in records]
    if ids != [f"AC{i}" for i in range(1, 17)]:
        return "wrong-checks"
    if not all(r.get("passed") is True for r in records):
        return "check-failed"
    return None


class Verify:
    name = "verify"
    why = ("the AC1-AC16 battery: the only user of the verify layer, with "
           "from-zero height integrals beside the vectorised Simpson "
           "oracle")

    def __init__(self, sizes: Sizes, work_dir: str) -> None:
        pass

    def calls(self, rng) -> Iterator[Call]:
        while True:
            yield Call([["verify", "--format", "json"]], {})

    def check(self, call: Call, results: list, seen: dict) -> list:
        res = results[0]
        failure = (exit_failure(res) if res.code != 0
                   else check_verify_lines(res.stdout))
        # the battery runs the same fixed shapes every time
        return [Outcome(res.end - res.start, failure, "battery")]


WORKLOADS = {w.name: w for w in (ScanGrid, AnalyzeWide, Export, Verify)}

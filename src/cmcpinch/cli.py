"""Command line interface.

Subcommands:

  analyze   verdict report for one (H, B) pair, text or JSON
  profile   per-point curvature and gap table along the profile, CSV
  scan      verdict grid over rectangular (H, B) ranges, CSV
  mesh      OBJ export of the free boundary portion
  verify    run the acceptance checks

Exit codes: 0 success, 1 verification failure, 2 invalid input, an
unopenable output path or an unallocatable grid, 3 numerical failure, 4
no portion exists for the requested surface.  Output opens only once
every value is computed, so a failure writes nothing; a length or
profile cell that is not a finite float raises OverflowError, exit 3.

Each numeric tolerance comes from its flag alone; a flag not given
takes the library default.  The root finder's --root-* flags, the only
tolerances, apply to analyze, scan, mesh and verify; the crossing is
solved at H = 1 in neck units, so --root-x-tol bounds the bracket on
H s / min(1, |1 - B|).  The height is a closed form and verify's
quadrature oracle runs on a fixed grid, so no flag tunes either.  scan
classifies each distinct B once per invocation and scales that H = 1
report to every H of the grid.  Floating point values are serialized
with 12 significant digits; analyze's JSON report goes through the C
encoder of the json module with the bytes of json.dumps(..., indent=2),
and the profile table formats each column in one pass of
``textfmt.format_g``, byte for byte printf "%.12g".  mesh
writes no OBJ unless every vertex and normal is a finite float.
numpy loads on first use: analyze, --help and usage errors never load
it; profile, scan, mesh and verify load it at their first array.

main hands argv to the parser of the command its first word names, one
parse per call; the top-level parser only answers help and usage errors
(no command, -h, a first word that names none) and reports the
arguments a command's parser leaves over, as argparse's nested parse
does.

The profile table's last column is g = x - (x'/z') z.  Where z' != 0,
u = -z' g, so g vanishes exactly where the support function u does, but
u is smooth where g has a pole (z' = 0 at the nodoid's r0); g is blank
where |z'| < 1e-12.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from ._np import np
from .curvature import analyze_point
from .delaunay import DelaunayParams, profile
from .freeboundary import (VERDICT_INVALID, AnalysisReport, NoRootError,
                           build_portion, classify)
from .mesh import export_obj_scene, revolve, sphere
from .numerics import (DEFAULT_ROOT, IterationLimitError, NonFiniteError,
                       NoSignChangeError, RootConfig)
from .textfmt import format_g, lines
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3
EXIT_NO_PORTION = 4


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _round12(v: Optional[float]) -> Optional[float]:
    return None if v is None else float(f"{v:.12g}")


def _root_config(args: argparse.Namespace) -> RootConfig:
    """The root finder's config, each field from its --root-* flag."""
    return RootConfig(args.root_x_tol, args.root_max_iterations)


@contextmanager
def _open_output(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _report_payload(rep: AnalysisReport) -> dict:
    p = rep.portion
    return {
        "H": _round12(rep.params.H),
        "B": _round12(rep.params.B),
        "family": rep.params.family,
        "verdict": rep.verdict,
        "s0": _round12(rep.s0),
        "r0": _round12(rep.r0),
        "z0": _round12(rep.z0),
        "zAtS0": _round12(rep.z_at_s0),
        "sBar": _round12(p.s_bar) if p else None,
        "R0": _round12(p.R0) if p else None,
        "scaledH": _round12(p.scaled_params.H) if p else None,
        "sBarScaled": _round12(p.s_bar_scaled) if p else None,
        "minGap": _round12(p.min_gap) if p else None,
        "orthogonalityResidual":
            _round12(p.orthogonality_residual) if p else None,
        "n0": rep.n0,
        "violations": [
            {"n": v.n, "t": _round12(v.t),
             "lambda2": _round12(v.lambda2), "gap": _round12(v.gap)}
            for v in rep.violations
        ],
    }


def _print_report_text(payload: dict, out) -> None:
    for key, value in payload.items():
        if key == "violations" or value is None:
            continue
        if isinstance(value, float):
            out.write(f"{key}: {_fmt(value)}\n")
        else:
            out.write(f"{key}: {value}\n")
    if payload["violations"]:
        out.write("violations:\n")
        for v in payload["violations"]:
            out.write(f"  n={v['n']} t={_fmt(v['t'])} "
                      f"lambda2={_fmt(v['lambda2'])} gap={_fmt(v['gap'])}\n")


# indent=2's line breaks as separators, at depth 1 and at a violation's
# depth 3: json.dumps takes the C encoder only when indent is None
_JSON_REPORT = json.JSONEncoder(separators=(",\n  ", ": "))
_JSON_VIOLATION = json.JSONEncoder(separators=(",\n      ", ": "))


def _report_json(payload: dict) -> str:
    """json.dumps(payload, indent=2) of a report payload, whose last key
    holds its flat violation dicts."""
    head = dict(payload)
    violations = ",\n    ".join(
        "{\n      " + _JSON_VIOLATION.encode(v)[1:-1] + "\n    }"
        for v in head.pop("violations"))
    return ("{\n  " + _JSON_REPORT.encode(head)[1:-1]
            + ',\n  "violations": '
            + (f"[\n    {violations}\n  ]" if violations else "[]") + "\n}")


def cmd_analyze(args: argparse.Namespace) -> int:
    root = _root_config(args)
    params = DelaunayParams(args.H, args.B)
    payload = _report_payload(classify(params, root))
    with _open_output(args.output) as out:
        if args.format == "json":
            out.write(_report_json(payload) + "\n")
        else:
            _print_report_text(payload, out)
    return EXIT_OK


PROFILE_COLUMNS = ["s", "x", "z", "dx", "dz", "ddx", "ddz", "k1", "k2", "u",
                   "lambda1", "lambda2", "phiSq", "gap", "g"]


def cmd_profile(args: argparse.Namespace) -> int:
    params = DelaunayParams(args.H, args.B)
    if args.n < 16:
        raise ValueError("profile needs at least 16 samples")
    if not (math.isfinite(args.s_min) and math.isfinite(args.s_max)):
        raise ValueError("need finite --s-min and --s-max")
    if not args.s_max > args.s_min:
        raise ValueError("need --s-max > --s-min")
    # an overflow on the grid or the table stops it, even one that would
    # leave every cell finite; the other numpy warnings stay silent, and
    # a cell they make nan or infinite is caught by the finiteness check
    try:
        with np.errstate(all="ignore", over="raise"):
            st = profile(params, np.linspace(args.s_min, args.s_max, args.n))
            pa = analyze_point(st)
            has_g = np.abs(st.dz) >= 1e-12
            g = st.x - (st.dx / np.where(has_g, st.dz, 1.0)) * st.z
            columns = [st.s, st.x, st.z, st.dx, st.dz, st.ddx, st.ddz,
                       pa.k1, pa.k2, pa.support, pa.lambda1, pa.lambda2,
                       pa.phi_sq, pa.gap, np.where(has_g, g, 0.0)]
        finite = all(np.isfinite(column).all() for column in columns)
    except FloatingPointError:
        finite = False
    if not finite:
        raise OverflowError("the profile table holds a value that is not a "
                            "finite float")
    # each cell as "%.12g", with g blank where z' vanishes
    blocks = [format_g(column, 12) for column in columns]
    blocks[-1][:, ~has_g] = 0
    row = []
    for block in blocks:
        row += [block, b","]
    row[-1] = b"\n"
    text = lines(row).decode("ascii")
    with _open_output(args.output) as out:
        out.write(",".join(PROFILE_COLUMNS) + "\n")
        out.write(text)
    return EXIT_OK


SCAN_COLUMNS = ["H", "B", "family", "verdict", "zAtS0MinusZ0", "sBar", "R0",
                "minGap"]


def cmd_scan(args: argparse.Namespace) -> int:
    root = _root_config(args)
    if args.H_steps < 1 or args.B_steps < 1:
        raise ValueError("need at least one step in each direction")
    if not all(map(math.isfinite, (args.H_min, args.H_max, args.B_min,
                                   args.B_max))):
        raise ValueError("need finite --H-min, --H-max, --B-min and --B-max")
    hs = np.linspace(args.H_min, args.H_max, args.H_steps)
    bs = np.linspace(args.B_min, args.B_max, args.B_steps)
    # the H = 1 report of each B, classified once for this scan
    shapes: dict[float, AnalysisReport] = {}
    # every row is built before the output opens, so a failed row
    # leaves nothing written
    rows = []
    for h in hs:
        for b in bs:
            row = [_fmt(float(h)), _fmt(float(b))]
            try:
                params = DelaunayParams(float(h), float(b))
            except ValueError:
                rows.append(row + ["", VERDICT_INVALID, "", "", "", ""])
                continue
            if params.B not in shapes:
                shapes[params.B] = classify(
                    DelaunayParams(1.0, params.B), root)
            rep = shapes[params.B].at(params.H)
            dichotomy = ""
            if rep.z_at_s0 is not None and rep.z0 is not None:
                dichotomy = _fmt(rep.z_at_s0 - rep.z0)
            p = rep.portion
            rows.append(row + [
                params.family, rep.verdict, dichotomy,
                _fmt(p.s_bar) if p else "",
                _fmt(p.R0) if p else "",
                _fmt(p.min_gap) if p else ""])
    # no field needs CSV quoting: each is a number, a word or blank
    with _open_output(args.output) as out:
        out.write(",".join(SCAN_COLUMNS) + "\n")
        out.writelines(",".join(row) + "\n" for row in rows)
    return EXIT_OK


def cmd_mesh(args: argparse.Namespace) -> int:
    root = _root_config(args)
    params = DelaunayParams(args.H, args.B)
    if args.resolution < 8:
        raise ValueError("mesh resolution must be at least 8")
    p = build_portion(params, root)
    objects = [("portion", revolve(params, -p.s_bar, p.s_bar,
                                   args.resolution, args.resolution))]
    if args.include_sphere:
        objects.append(("sphere", sphere(p.R0, args.resolution // 2,
                                         args.resolution)))
    for name, mesh in objects:
        if not (np.isfinite(mesh.vertices).all()
                and np.isfinite(mesh.normals).all()):
            raise OverflowError(f"the {name} mesh holds a vertex or normal "
                                "that is not a finite float")
    with open(args.out, "wb") as sink:
        export_obj_scene(objects, sink)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(_root_config(args))
    out = sys.stdout
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        for r in results:
            out.write(json.dumps({
                "id": r.check_id,
                "description": r.description,
                "passed": r.passed,
                "worstRatio": (None if math.isinf(r.worst_ratio)
                               else _round12(r.worst_ratio)),
                "detail": r.detail,
            }) + "\n")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = (f"{r.check_id:<5} {status}  ratio={r.worst_ratio:.3e}  "
                    f"{r.description}")
            if r.detail:
                line += f"  [{r.detail}]"
            out.write(line + "\n")
        passed = sum(1 for r in results if r.passed)
        out.write(f"{passed}/{len(results)} checks passed\n")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _add_root_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--root-x-tol", type=float, default=DEFAULT_ROOT.x_tol)
    p.add_argument("--root-max-iterations", type=int,
                   default=DEFAULT_ROOT.max_iterations)


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--H", type=float, required=True,
                   help="mean curvature, H > 0")
    p.add_argument("--B", type=float, required=True,
                   help="shape parameter, B >= 0 and B != 1")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so its subparsers, that reads -1e-3 and -inf
    as values: argparse in Python 3.11 reads only -1 and -.5 as negative
    numbers.  No option of this parser starts with a digit, inf or nan.
    build_parser sets ``commands`` on the top-level parser: each command
    name's parser."""

    commands: dict[str, argparse.ArgumentParser]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cmcpinch",
        description="Delaunay free boundary portions in a ball and the "
                    "pinching gap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="verdict for one (H, B)")
    _add_params_flags(p_analyze)
    p_analyze.add_argument("--format", choices=("text", "json"),
                           default="text")
    p_analyze.add_argument("--output", default=None,
                           help="file path or - for stdout")
    _add_root_flags(p_analyze)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_profile = sub.add_parser("profile",
                               help="CSV table along the profile")
    _add_params_flags(p_profile)
    p_profile.add_argument("--s-min", type=float, required=True)
    p_profile.add_argument("--s-max", type=float, required=True)
    p_profile.add_argument("--n", type=int, default=256,
                           help="sample count, at least 16")
    p_profile.add_argument("--output", default=None)
    p_profile.set_defaults(fn=cmd_profile)

    p_scan = sub.add_parser("scan", help="CSV verdict grid over (H, B)")
    p_scan.add_argument("--H-min", type=float, required=True)
    p_scan.add_argument("--H-max", type=float, required=True)
    p_scan.add_argument("--H-steps", type=int, required=True)
    p_scan.add_argument("--B-min", type=float, required=True)
    p_scan.add_argument("--B-max", type=float, required=True)
    p_scan.add_argument("--B-steps", type=int, required=True)
    p_scan.add_argument("--output", default=None)
    _add_root_flags(p_scan)
    p_scan.set_defaults(fn=cmd_scan)

    p_mesh = sub.add_parser("mesh", help="OBJ export of the portion")
    _add_params_flags(p_mesh)
    p_mesh.add_argument("--out", required=True, help="output OBJ path")
    p_mesh.add_argument("--resolution", type=int, default=64)
    p_mesh.add_argument("--include-sphere", action="store_true",
                        help="also emit the bounding sphere as an object")
    _add_root_flags(p_mesh)
    p_mesh.set_defaults(fn=cmd_mesh)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--format", choices=("text", "json"),
                          default="text")
    _add_root_flags(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    parser.commands = sub.choices
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            # no command named first: help or a usage error
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                # with the top-level usage, as argparse's nested parse
                parser.error("unrecognized arguments: " + " ".join(extras))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except NoRootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PORTION
    except (IterationLimitError, NoSignChangeError, NonFiniteError,
            OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

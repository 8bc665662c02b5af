import collections
import csv
import io
import json
import math
import pathlib
import random
import re
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

from cmcpinch import cli, mesh, verify
from cmcpinch.cli import main
from cmcpinch.curvature import analyze_point
from cmcpinch.delaunay import DelaunayParams, profile
from cmcpinch.freeboundary import classify
from cmcpinch.numerics import NoSignChangeError
from cmcpinch.verify import CheckResult
from report_grid import report_inputs
from sampled_portion import sampled_min_gap

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
NODOID_R0 = classify(DelaunayParams(1.0, 1.5)).r0


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_matches_golden(capsys):
    code, out, _ = run_cli(
        ["analyze", "--H", "0.1", "--B", "0.9", "--format", "json"], capsys)
    assert code == 0
    got = json.loads(out)
    want = json.loads((GOLDEN_DIR / "analyze_H0.1_B0.9.json").read_text())
    assert set(got) == set(want)
    for key, expected in want.items():
        if isinstance(expected, float):
            assert got[key] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        elif key == "violations":
            assert len(got[key]) == len(expected)
            for g_row, w_row in zip(got[key], expected):
                assert g_row["n"] == w_row["n"]
                for field in ("t", "lambda2", "gap"):
                    assert g_row[field] == pytest.approx(
                        w_row[field], rel=1e-12, abs=1e-12)
        else:
            assert got[key] == expected


def test_analyze_example_values(capsys):
    code, out, _ = run_cli(
        ["analyze", "--H", "0.1", "--B", "0.9", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PinchedFreeBoundaryPortion"
    assert report["family"] == "unduloid"
    assert report["sBar"] == pytest.approx(1.7576056770276693, abs=1e-9)
    assert report["R0"] == pytest.approx(2.3975840691447803, abs=1e-9)
    assert report["z0"] == pytest.approx(19.0 / 9.0, abs=1e-9)
    assert report["n0"] == 1
    assert report["violations"][0]["gap"] < 0.0


def test_analyze_no_orthogonal_verdict(capsys):
    code, out, _ = run_cli(
        ["analyze", "--H", "1", "--B", "0.5", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NoOrthogonalIntersection"
    assert report["zAtS0"] < report["z0"]
    assert report["sBar"] is None and report["violations"] == []


def test_analyze_cylinder_and_nodoid_verdicts(capsys):
    code, out, _ = run_cli(
        ["analyze", "--H", "2", "--B", "0", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "Cylinder"

    code, out, _ = run_cli(
        ["analyze", "--H", "1", "--B", "1.5", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PinchedFreeBoundaryPortion"
    assert report["family"] == "nodoid"
    assert report["r0"] == pytest.approx(math.acos(2.0 / 3.0), rel=1e-12)
    assert report["sBar"] == pytest.approx(0.47899833600628366, abs=1e-9)


def test_analyze_json_is_indent_2_on_the_report_grid(capsys):
    # the C-encoder writer against json.dumps(payload, indent=2) on every
    # family and verdict, the empty and the full violation list included;
    # an input that exits 3 has no report and is counted, not compared
    written, exit_3, kinds = 0, 0, set()
    for h, b in report_inputs():
        code, out, err = run_cli(["analyze", "--H", repr(h), "--B", repr(b),
                                  "--format", "json"], capsys)
        if code == 3:
            exit_3 += 1
            continue
        assert (code, err) == (0, ""), (h, b)
        payload = cli._report_payload(classify(DelaunayParams(h, b)))
        assert out == json.dumps(payload, indent=2) + "\n", (h, b)
        kinds.add((payload["family"], payload["verdict"]))
        written += 1
    assert written >= 1000, f"{written} written, {exit_3} exited 3"
    assert kinds == {("cylinder", "Cylinder"),
                     ("unduloid", "NoOrthogonalIntersection"),
                     ("unduloid", "PinchedFreeBoundaryPortion"),
                     ("nodoid", "PinchedFreeBoundaryPortion")}


def test_analyze_text_format(capsys):
    code, out, _ = run_cli(["analyze", "--H", "0.1", "--B", "0.9"], capsys)
    assert code == 0
    assert "verdict: PinchedFreeBoundaryPortion" in out
    assert "sBar: 1.75760567703" in out
    assert "n=1 t=58.3215849538" in out
    assert "r0:" not in out.replace("R0:", "")


def test_analyze_invalid_inputs(capsys):
    assert run_cli(["analyze", "--H", "1", "--B", "1"], capsys)[0] == 2
    assert run_cli(["analyze", "--H", "0", "--B", "0.5"], capsys)[0] == 2
    assert run_cli(["analyze", "--H", "-2", "--B", "0.5"], capsys)[0] == 2
    assert run_cli(["analyze", "--H", "1", "--B", "-0.1"], capsys)[0] == 2
    assert run_cli(["analyze", "--H", "1"], capsys)[0] == 2
    assert run_cli(["analyze", "--H", "1", "--B", "0.5",
                    "--no-such-flag"], capsys)[0] == 2


def test_top_level_usage(capsys):
    # main hands argv to the command's parser; a flag it leaves over is a
    # usage error of the top-level parser, as argparse's nested parse
    # reports it.  No command is a usage error too, and --help prints the
    # top-level help
    usage = "usage: cmcpinch [-h]"
    code, out, err = run_cli(["analyze", "--H", "1", "--B", "1.5", "--bogus"],
                             capsys)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith(usage)
    assert lines[-1] == "cmcpinch: error: unrecognized arguments: --bogus"
    code, out, err = run_cli([], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(usage)
    code, out, err = run_cli(["--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith(usage)


def test_root_bracket_failure_is_numerical(monkeypatch, capsys):
    # NoSignChangeError is a ValueError, but it reports a numerical
    # failure of the root search, not bad input
    def fail(*args, **kwargs):
        raise NoSignChangeError("f(0)=1 and f(1)=2 have the same sign")

    monkeypatch.setattr(cli, "classify", fail)
    code, _, err = run_cli(["analyze", "--H", "1", "--B", "0.9"], capsys)
    assert code == 3
    assert "same sign" in err


def test_analyze_output_file_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for dest in (first, second):
        code, _, _ = run_cli(
            ["analyze", "--H", "0.1", "--B", "0.9", "--format", "json",
             "--output", str(dest)], capsys)
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["R0"] == pytest.approx(
        2.3975840691447803, abs=1e-9)


def test_profile_csv_structure(capsys):
    code, out, _ = run_cli(
        ["profile", "--H", "0.1", "--B", "0.9", "--s-min", "-1",
         "--s-max", "1", "--n", "17"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["s", "x", "z", "dx", "dz", "ddx", "ddz", "k1", "k2",
                       "u", "lambda1", "lambda2", "phiSq", "gap", "g"]
    assert len(rows) == 18
    assert rows[1][0] == "-1"
    assert rows[-1][0] == "1"
    neck = rows[9]
    assert float(neck[0]) == 0.0
    assert float(neck[1]) == pytest.approx(1.0, rel=1e-12)       # x
    assert float(neck[9]) == pytest.approx(-1.0, rel=1e-12)      # u
    assert float(neck[11]) == pytest.approx(0.0, abs=1e-12)      # lambda2
    assert float(neck[13]) == pytest.approx(0.0, abs=1e-12)      # gap


def test_profile_cylinder_rows(capsys):
    code, out, _ = run_cli(
        ["profile", "--H", "0.5", "--B", "0", "--s-min", "0",
         "--s-max", "2", "--n", "16"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    for row in rows:
        assert float(row[1]) == pytest.approx(2.0, rel=1e-12)   # x = 1/H
        assert float(row[3]) == 0.0                             # dx
        assert float(row[5]) == 0.0                             # ddx
        assert float(row[7]) == 0.0                             # k1
        assert float(row[8]) == pytest.approx(0.5, rel=1e-12)   # k2


def test_profile_blank_g_where_dz_vanishes(capsys):
    code, out, _ = run_cli(
        ["profile", "--H", "1", "--B", "1.5", "--s-min", "0",
         "--s-max", repr(NODOID_R0), "--n", "16"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[-1][-1] == ""
    for row in rows[1:-1]:
        assert row[-1] != ""


@pytest.mark.parametrize("h, b, s_max, neck_g", [
    (0.1, 0.9, 1.8, 1.0),
    (0.5, 0.0, 4.0, 2.0),
    (1.0, 1.5, 0.8, 0.5)],
    ids=["unduloid", "cylinder", "nodoid"])
def test_profile_g_column(h, b, s_max, neck_g, capsys):
    # g = x - (x'/z') z is |1 - B|/H at the neck, 1/H all along the
    # cylinder, and u = -z' g in every row; the nodoid table stops inside
    # r0, where test_profile_blank_g_where_dz_vanishes takes over
    code, out, _ = run_cli(
        ["profile", "--H", repr(h), "--B", repr(b), "--s-min", repr(-s_max),
         "--s-max", repr(s_max), "--n", "17"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[8]["s"]) == 0.0
    assert float(rows[8]["g"]) == pytest.approx(neck_g, rel=1e-12)
    for row in rows:
        assert "" not in row.values()
        assert float(row["u"]) == pytest.approx(
            -float(row["dz"]) * float(row["g"]), rel=1e-10, abs=1e-11)
        if b == 0.0:
            assert float(row["g"]) == pytest.approx(neck_g, rel=1e-12)


def _profile_cell_loop(h, b, s_min, s_max, n):
    """The profile table written one "%.12g" cell at a time, g blank where
    z' vanishes: the reference for cmd_profile's block formatting."""
    params = DelaunayParams(h, b)
    ss = np.linspace(s_min, s_max, n)
    st = profile(params, ss)
    pa = analyze_point(st)
    has_g = np.abs(st.dz) >= 1e-12
    g = st.x - (st.dx / np.where(has_g, st.dz, 1.0)) * st.z
    columns = [st.s, st.x, st.z, st.dx, st.dz, st.ddx, st.ddz, pa.k1, pa.k2,
               pa.support, pa.lambda1, pa.lambda2, pa.phi_sq, pa.gap]
    text = ",".join(cli.PROFILE_COLUMNS) + "\n"
    for i in range(n):
        cells = ["%.12g" % float(c[i]) for c in columns]
        cells.append("%.12g" % float(g[i]) if has_g[i] else "")
        text += ",".join(cells) + "\n"
    return text


@pytest.mark.parametrize("h, b, s_min, s_max, n", [
    (0.5, 0.0, -40.0, 40.0, 301),
    (1.0, 0.5, -30.0, 30.0, 1001),
    (0.7, 2.3, -25.0, 25.0, 777),
    (1.0, 1.0 - 1e-9, -60.0, 60.0, 513),
    (1.0, 1.0 + 1e-9, -60.0, 60.0, 513),
    (3.0, 0.9, -1e-7, 1e-7, 17),
    (1.0, 1.5, -NODOID_R0, NODOID_R0, 17)],
    ids=["cylinder", "unduloid", "nodoid", "B-below-1", "B-above-1",
         "near-neck", "blank-g"])
def test_profile_table_is_the_per_cell_loop(h, b, s_min, s_max, n, capsys):
    with np.errstate(all="ignore"):
        want = _profile_cell_loop(h, b, s_min, s_max, n)
    code, out, err = run_cli(
        ["profile", "--H", repr(h), "--B", repr(b), "--s-min", repr(s_min),
         "--s-max", repr(s_max), "--n", str(n)], capsys)
    assert (code, err) == (0, "")
    assert out == want
    # only the last table samples z' = 0, at both ends
    assert out.count(",\n") == (2 if b == 1.5 else 0)


def test_profile_rejects_bad_grid(capsys):
    assert run_cli(
        ["profile", "--H", "1", "--B", "0.5", "--s-min", "0",
         "--s-max", "1", "--n", "8"], capsys)[0] == 2
    assert run_cli(
        ["profile", "--H", "1", "--B", "0.5", "--s-min", "1",
         "--s-max", "0"], capsys)[0] == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds", [["--s-min", "0", "--s-max", "inf"],
                                    ["--s-min=-inf", "--s-max", "1"],
                                    ["--s-min", "-Infinity", "--s-max", "1"],
                                    ["--s-min", "nan", "--s-max", "1"],
                                    ["--s-min", "-nan", "--s-max", "1"],
                                    ["--s-min", "0", "--s-max", "nan"]],
                         ids=["s-max-inf", "s-min-minus-inf",
                              "s-min-minus-infinity", "s-min-nan",
                              "s-min-minus-nan", "s-max-nan"])
def test_profile_rejects_infinite_bounds(bounds, tmp_path, capsys):
    # an infinite or nan bound is bad input: exit 2 before any sample is
    # taken, with the line that names it (a nan fails the order test too,
    # so finiteness is checked first)
    dest = tmp_path / "p.csv"
    code, out, err = run_cli(
        ["profile", "--H", "1", "--B", "0.5", "--n", "16", "--output",
         str(dest)] + bounds, capsys)
    assert (code, out) == (2, "")
    assert err == "error: need finite --s-min and --s-max\n"
    assert not dest.exists()


SCAN_RANGE = {"--H-min": "1", "--H-max": "2", "--B-min": "0.5",
              "--B-max": "0.9"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", list(SCAN_RANGE))
def test_scan_rejects_non_finite_bounds(flag, value, tmp_path, capsys):
    # it wrote rows such as "1,inf,,Invalid" after a numpy RuntimeWarning
    dest = tmp_path / "scan.csv"
    argv = ["scan", "--H-steps", "2", "--B-steps", "3", "--output",
            str(dest)]
    for name, bound in SCAN_RANGE.items():
        argv += [name, value if name == flag else bound]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: need finite --H-min, --H-max, --B-min and --B-max\n"
    assert not dest.exists()
    argv[argv.index("--output") + 1] = "-"
    assert run_cli(argv, capsys) == (2, "", err)


@pytest.mark.parametrize("flag", ["--H-steps", "--B-steps"])
def test_scan_needs_a_step_in_each_direction(flag, tmp_path, capsys):
    dest = tmp_path / "scan.csv"
    argv = ["scan", "--H-steps", "2", "--B-steps", "3", "--output",
            str(dest)] + [arg for name, bound in SCAN_RANGE.items()
                          for arg in (name, bound)]
    argv[argv.index(flag) + 1] = "0"
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: need at least one step in each direction\n"
    assert not dest.exists()
    argv[argv.index("--output") + 1] = "-"
    assert run_cli(argv, capsys) == (2, "", err)


@pytest.mark.parametrize("b", ["5.5e-309", "1e-310", "5e-324"])
@pytest.mark.parametrize("h", ["1", "2", "1e-05"])
def test_tiny_b_exits_3_on_an_overflowing_z0(h, b, capsys):
    # z0 = (1 - B^2) / B overflows at H = 1 below B of about 5.6e-309,
    # though z(s0) = pi/2 is finite and the verdict is plain
    code, out, err = run_cli(["analyze", "--H", h, "--B", b], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: z0 = inf / {float(h)!r} is not a finite float\n"


def test_tiny_b_with_a_finite_z0_is_reported(capsys):
    code, out, err = run_cli(["analyze", "--H", "1", "--B", "5.6e-309"],
                             capsys)
    assert (code, err) == (0, "")
    assert "verdict: NoOrthogonalIntersection\n" in out


@pytest.mark.parametrize("argv", [
    ["profile", "--H", "1", "--B", "0.5", "--s-min", "-1", "--s-max", "1",
     "--n", "1000000000000000"],
    ["scan", "--H-min", "1", "--H-max", "2", "--H-steps", "1000000000000000",
     "--B-min", "0.5", "--B-max", "0.9", "--B-steps", "3"]],
    ids=["profile", "scan"])
def test_grid_too_large_to_allocate_is_invalid_input(argv, tmp_path, capsys):
    # 10^15 float64 samples are 7.1 PiB, beyond any address space, so
    # numpy refuses at once and allocates nothing; it was a traceback and
    # exit 1, the code of a failed verification
    dest = tmp_path / "out.csv"
    code, out, err = run_cli(argv + ["--output", str(dest)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1
    assert not dest.exists()
    assert run_cli(argv, capsys) == (2, "", err)


@pytest.mark.parametrize("argv, flag", [
    (["profile", "--H", "1", "--B", "0.5", "--s-max", "1", "--n", "16"],
     "--s-min"),
    (["scan", "--H-min", "1", "--H-max", "1", "--H-steps", "1", "--B-max",
      "0.5", "--B-steps", "2"], "--B-min"),
], ids=["profile", "scan"])
def test_float_flag_takes_a_negative_exponent(argv, flag, capsys):
    # -1e-3 is the value -0.001, written either way and with or without =
    code, want, err = run_cli(argv + [flag, "-0.001"], capsys)
    assert (code, err) == (0, "")
    for given in ([flag, "-1e-3"], [flag, "-1E-3"], [f"{flag}=-1e-3"]):
        assert run_cli(argv + given, capsys) == (0, want, "")


def test_scan_dichotomy_transition(capsys):
    code, out, _ = run_cli(
        ["scan", "--H-min", "1", "--H-max", "1", "--H-steps", "1",
         "--B-min", "0.6", "--B-max", "0.95", "--B-steps", "8"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["H", "B", "family", "verdict", "zAtS0MinusZ0",
                       "sBar", "R0", "minGap"]
    verdicts = [row[3] for row in rows[1:]]
    assert verdicts[0] == "NoOrthogonalIntersection"
    assert verdicts[-1] == "PinchedFreeBoundaryPortion"
    flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
    assert flips == 1
    for row in rows[1:]:
        margin = float(row[4])
        if row[3] == "PinchedFreeBoundaryPortion":
            assert margin >= 0.0 and row[5] and row[6] and row[7]
        else:
            assert margin < 0.0 and not row[5]


def test_scan_cylinder_and_invalid_rows(capsys):
    code, out, _ = run_cli(
        ["scan", "--H-min", "1", "--H-max", "1", "--H-steps", "1",
         "--B-min", "0", "--B-max", "1", "--B-steps", "3"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[0][2] == "cylinder" and rows[0][3] == "Cylinder"
    assert rows[2][2] == "" and rows[2][3] == "Invalid"
    assert rows[2][4:] == ["", "", "", ""]


def test_scan_nodoid_rows_have_portions(capsys):
    code, out, _ = run_cli(
        ["scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "2",
         "--B-min", "1.2", "--B-max", "1.8", "--B-steps", "3"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 6
    for row in rows:
        assert row[2] == "nodoid"
        assert row[3] == "PinchedFreeBoundaryPortion"
        assert row[5] and row[6] and row[7]
        assert float(row[7]) >= -1e-8


def test_scan_classifies_each_shape_once_per_invocation(monkeypatch,
                                                         capsys):
    # 3 H values x B in {0, 0.5, 1, 1.5, 2}: B = 1 is invalid, so each
    # scan makes 4 classifications, all at H = 1, and a second scan
    # makes them again (the memo lives inside one call)
    calls = []
    real = cli.classify

    def counting(params, root_cfg):
        calls.append(params)
        return real(params, root_cfg)

    monkeypatch.setattr(cli, "classify", counting)
    argv = ["scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "3",
            "--B-min", "0", "--B-max", "2", "--B-steps", "5"]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    assert [(p.H, p.B) for p in calls] == [(1.0, b) for b in
                                           (0.0, 0.5, 1.5, 2.0)]
    code, second, _ = run_cli(argv, capsys)
    assert (code, second) == (0, first)
    assert len(calls) == 8
    # each row is what classify reports at that (H, B)
    for row in list(csv.reader(io.StringIO(first)))[1:]:
        if row[3] == "Invalid":
            continue
        rep = real(cli.DelaunayParams(float(row[0]), float(row[1])),
                   cli.RootConfig())
        p = rep.portion
        assert row[5:] == ([cli._fmt(p.s_bar), cli._fmt(p.R0),
                            cli._fmt(p.min_gap)] if p else ["", "", ""])


def test_scan_deterministic(tmp_path, capsys):
    argv = ["scan", "--H-min", "0.1", "--H-max", "1", "--H-steps", "2",
            "--B-min", "0.3", "--B-max", "1.6", "--B-steps", "4"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for dest in (first, second):
        code, _, _ = run_cli(argv + ["--output", str(dest)], capsys)
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


# scans whose grid np.linspace alone would build with an overflow warning:
# i * step overflows at the last H, or the span hi - lo itself overflows
OVERFLOWING_SCANS = [
    (["--H-min", "0.5155407442263504", "--H-max", "1.7976931348623157e308",
      "--H-steps", "4", "--B-min", "0.5", "--B-max", "1.5", "--B-steps", "3"],
     "0.515540744226,0.5,unduloid,NoOrthogonalIntersection,-1.0329693562,,,\n"
     "0.515540744226,1,,Invalid,,,,\n"
     "0.515540744226,1.5,nodoid,PinchedFreeBoundaryPortion,,0.929118292532,"
     "1.64873622479,0\n"
     "5.99231044954e+307,0.5,unduloid,NoOrthogonalIntersection,"
     "-8.887019375e-309,,,\n"
     "5.99231044954e+307,1,,Invalid,,,,\n"
     "5.99231044954e+307,1.5,nodoid,PinchedFreeBoundaryPortion,,"
     "7.99355006787e-309,1.41846906551e-308,0\n"
     "1.19846208991e+308,0.5,unduloid,NoOrthogonalIntersection,"
     "-4.4435096875e-309,,,\n"
     "1.19846208991e+308,1,,Invalid,,,,\n"
     "1.19846208991e+308,1.5,nodoid,PinchedFreeBoundaryPortion,,"
     "3.99677503394e-309,7.09234532754e-309,0\n"
     "1.79769313486e+308,0.5,unduloid,NoOrthogonalIntersection,"
     "-2.96233979167e-309,,,\n"
     "1.79769313486e+308,1,,Invalid,,,,\n"
     "1.79769313486e+308,1.5,nodoid,PinchedFreeBoundaryPortion,,"
     "2.66451668929e-309,4.72823021836e-309,0\n"),
    (["--H-min", "-1.7e308", "--H-max", "1.7e308", "--H-steps", "5",
      "--B-min", "0.5", "--B-max", "0.5", "--B-steps", "1"],
     "-1.7e+308,0.5,,Invalid,,,,\n"
     "-8.5e+307,0.5,,Invalid,,,,\n"
     "0,0.5,,Invalid,,,,\n"
     "8.5e+307,0.5,unduloid,NoOrthogonalIntersection,-6.26515047836e-309,,,\n"
     "1.7e+308,0.5,unduloid,NoOrthogonalIntersection,-3.13257523918e-309,,,"
     "\n"),
    (["--H-min", "1e308", "--H-max", "-1e308", "--H-steps", "2",
      "--B-min", "0.5", "--B-max", "0.5", "--B-steps", "1"],
     "1e+308,0.5,unduloid,NoOrthogonalIntersection,-5.32537790661e-309,,,\n"
     "-1e+308,0.5,,Invalid,,,,\n"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags,rows", OVERFLOWING_SCANS,
                         ids=["step", "span", "reversed-span"])
def test_scan_grid_with_an_overflow_has_every_row(flags, rows, capsys):
    header = ",".join(cli.SCAN_COLUMNS) + "\n"
    assert run_cli(["scan"] + flags, capsys) == (0, header + rows, "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scan_grid_of_an_overflowing_span_is_finite_and_near_exact():
    rng = random.Random(48)
    top = sys.float_info.max
    checked = 0
    for _ in range(300):
        # big + other exceeds top by more than half its ulp, about 1e292
        big = top * rng.uniform(0.5, 1.0)
        other = (top - big) + 10.0 ** rng.uniform(292.5, math.log10(big))
        lo, hi = rng.choice([(big, -other), (-big, other), (other, -big),
                             (-other, big)])
        if math.isfinite(hi - lo):
            continue
        checked += 1
        n = rng.randint(1, 40)
        grid = cli._grid(lo, hi, n)
        assert grid[0] == lo and grid[-1] == (hi if n > 1 else lo)
        ulp = Fraction(math.ulp(big))
        span = Fraction(hi) - Fraction(lo)
        for i, x in enumerate(grid[1:-1], 1):
            exact = Fraction(lo) + i * span / (n - 1)
            assert abs(Fraction(x) - exact) <= 4 * ulp, (lo, hi, n, i)
    assert checked > 250


def _grid_ends(rng):
    """A seeded (lo, hi) pair from one of the spans the grid must match."""
    tiny, top = 5e-324, sys.float_info.max
    kind = rng.randrange(7)
    if kind == 0:
        # subnormal ends
        return rng.randint(-64, 64) * tiny, rng.randint(-64, 64) * tiny
    if kind == 1:
        # a zero span, either zero included
        lo = rng.choice([0.0, -0.0, tiny, 1.5, -1e308, top])
        return lo, rng.choice([lo, abs(lo), -abs(lo)] if lo == 0.0 else [lo])
    if kind == 2:
        # a span of a few subnormals, so a long grid's step underflows
        lo = rng.uniform(-1.0, 1.0) * 1e-310
        return lo, lo + rng.randint(1, 8) * tiny
    if kind == 3:
        # the largest floats, where i * step and hi - lo overflow
        sign = rng.choice([1.0, -1.0])
        if rng.random() < 0.5:
            return rng.uniform(-1.0, 1.0), sign * top
        return (-sign * top * rng.uniform(0.0, 1.0),
                sign * top * rng.uniform(0.5, 1.0))
    if kind == 4:
        # random finite bit patterns
        ends = []
        while len(ends) < 2:
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
            if math.isfinite(x[0]):
                ends.append(x[0])
        return tuple(ends)
    lo = rng.uniform(-3.0, 3.0) * 10.0 ** rng.randint(-300, 300)
    hi = rng.uniform(-3.0, 3.0) * 10.0 ** rng.randint(-300, 300)
    # reversed or forward
    return (lo, hi) if kind == 5 else (max(lo, hi), min(lo, hi))


def test_scan_grid_is_np_linspace_bit_for_bit():
    # cli._grid follows np.linspace's arithmetic; where hi - lo
    # overflows, np.linspace gives nan and inf, and the grid is twice the
    # grid of the halved ends
    rng = random.Random(49)
    seen = collections.Counter()
    for _ in range(4000):
        lo, hi = _grid_ends(rng)
        n = rng.choice([1, 2, 3, rng.randint(4, 40), rng.randint(41, 2000)])
        with np.errstate(over="ignore"):
            if math.isfinite(hi - lo):
                want = np.linspace(lo, hi, n)
                seen["step underflows"] += n > 1 and (hi - lo) / (n - 1) == 0
                seen["i * step overflows"] += (
                    n > 1 and math.isinf((n - 1) * ((hi - lo) / (n - 1))))
            else:
                want = 2.0 * np.linspace(0.5 * lo, 0.5 * hi, n)
                seen["span overflows"] += 1
            seen["one point"] += n == 1
        got = cli._grid(lo, hi, n)
        assert type(got) is list and {type(x) for x in got} == {float}
        assert [x.hex() for x in got] == [x.hex() for x in want.tolist()], (
            lo, hi, n)
    assert min(seen.values()) > 20, seen


def test_mesh_writes_portion_obj(tmp_path, capsys):
    out_path = tmp_path / "portion.obj"
    code, _, _ = run_cli(
        ["mesh", "--H", "0.1", "--B", "0.9", "--out", str(out_path),
         "--resolution", "16"], capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("o portion\n")
    assert text.count("\nv ") + text.startswith("v ") == 256
    assert "o sphere" not in text


def test_mesh_include_sphere(tmp_path, capsys):
    out_path = tmp_path / "scene.obj"
    code, _, _ = run_cli(
        ["mesh", "--H", "1", "--B", "1.5", "--out", str(out_path),
         "--resolution", "16", "--include-sphere"], capsys)
    assert code == 0
    text = out_path.read_text()
    assert "o portion" in text and "o sphere" in text
    n_verts = sum(1 for line in text.splitlines() if line.startswith("v "))
    assert n_verts == 16 * 16 + (2 + 7 * 16)


def test_mesh_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.obj", tmp_path / "b.obj"]
    for p in paths:
        code, _, _ = run_cli(
            ["mesh", "--H", "0.1", "--B", "0.9", "--out", str(p),
             "--resolution", "12"], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_mesh_without_portion_fails(tmp_path, capsys):
    # one error line naming classify's verdict, and no OBJ
    out_path = tmp_path / "none.obj"
    for b, verdict in (("0.5", "NoOrthogonalIntersection"),
                       ("0", "Cylinder")):
        code, out, err = run_cli(
            ["mesh", "--H", "1", "--B", b, "--out", str(out_path)], capsys)
        assert (code, out) == (4, "")
        assert err == (f"error: (H, B) = (1.0, {float(b)!r}) is {verdict}, "
                       "not PinchedFreeBoundaryPortion\n")
        assert not out_path.exists()
    assert run_cli(["mesh", "--H", "1", "--B", "0.9", "--out",
                    str(out_path), "--resolution", "4"], capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--H", "1", "--B", "0.99", "--root-x-tol", "20"],
    ["analyze", "--H", "1", "--B", "1.01", "--root-x-tol", "20"],
    ["scan", "--H-min", "1", "--H-max", "1", "--H-steps", "1", "--B-min",
     "0.99", "--B-max", "0.99", "--B-steps", "1", "--root-x-tol", "20"],
    ["mesh", "--H", "1", "--B", "0.99", "--root-x-tol", "20"]],
    ids=["analyze-unduloid", "analyze-nodoid", "scan", "mesh"])
def test_root_tolerance_wider_than_bracket_is_invalid(argv, tmp_path,
                                                      capsys):
    # u(0) = B - 1 != 0, so a search that stops at the bracket end s = 0
    # has found no crossing (it reported sBar 0 and R0 = the neck radius);
    # in neck units the brackets are about 14 wide, and near B = 1 the end
    # s = 0 has the smaller |u|
    if argv[0] == "mesh":
        argv = argv + ["--out", str(tmp_path / "m.obj")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "root tolerance x_tol=" in err and "s = 0" in err
    assert "PinchedFreeBoundaryPortion" not in out
    assert not (tmp_path / "m.obj").exists()


# valid inputs whose lengths leave the floats once scaled from H = 1
@pytest.mark.parametrize("argv", [
    ["analyze", "--H", "1e-310", "--B", "0.5", "--format", "json"],
    ["analyze", "--H", "1e-308", "--B", "1e12"],
    ["mesh", "--H", "1e-308", "--B", "1e12", "--resolution", "8"],
    ["scan", "--H-min", "1e-310", "--H-max", "1e-310", "--H-steps", "1",
     "--B-min", "0.5", "--B-max", "0.5", "--B-steps", "1"],
    ["profile", "--H", "1e-310", "--B", "0.5", "--s-min", "-1", "--s-max",
     "1", "--n", "16"]],
    ids=["analyze-json", "analyze-nodoid", "mesh", "scan", "profile"])
def test_non_finite_result_exits_3_writing_nothing(argv, tmp_path, capsys):
    # they printed inf, nan or Infinity (invalid JSON), or, where the
    # scaled parameters overflowed, exited 2 as if H were invalid
    dest = tmp_path / "out"
    flag = "--out" if argv[0] == "mesh" else "--output"
    with np.errstate(all="ignore"):
        code, out, err = run_cli(argv + [flag, str(dest)], capsys)
        assert (code, out) == (3, "")
        assert "not a finite float" in err
        assert not dest.exists()
        if argv[0] != "mesh":
            assert run_cli(argv, capsys)[:2] == (3, "")


@pytest.mark.parametrize("command", ["mesh", "analyze"])
def test_overflowing_length_names_its_report_key(command, tmp_path, capsys):
    # s-bar and R0 are finite at H = 1e-307, but the violation point t_3
    # is not: the one error line says which length overflowed, since
    # mesh draws none of the violation points
    dest = tmp_path / "tiny.obj"
    argv = [command, "--H", "1e-307", "--B", "0.9"]
    if command == "mesh":
        argv += ["--out", str(dest)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err == ("error: violations n=3 t = 18.398529109742498 / 1e-307 "
                   "is not a finite float\n")
    assert not dest.exists()


def test_mesh_at_huge_h_writes_subnormal_vertices_silently(tmp_path, capsys):
    # x'' and z'', which revolve does not use, overflow at H = 1e308; the
    # RuntimeWarning filter fails the test on any numpy warning
    dest = tmp_path / "m.obj"
    code, out, err = run_cli(["mesh", "--H", "1e308", "--B", "0.9",
                              "--resolution", "8", "--out", str(dest)],
                             capsys)
    assert (code, out, err) == (0, "", "")
    assert dest.read_bytes().startswith(
        b"o portion\nv 1.9424495e-309 0 -1.40545342e-309\n")


ZERO_SIZE = {
    "unduloid": (["--H", "1e308", "--B", "0.9999999999999999"],
                 "error: sBar = 1.675192830606154e-16 / 1e+308 underflows "
                 "to 0\n"),
    "nodoid": (["--H", "1.7e308", "--B", "1.0000000000000002"],
               "error: sBar = 3.3503856612123057e-16 / 1.7e+308 underflows "
               "to 0\n")}


@pytest.mark.parametrize("command", ["analyze", "mesh", "scan"])
@pytest.mark.parametrize("shape", list(ZERO_SIZE))
def test_portion_of_no_size_exits_3_naming_the_length(command, shape,
                                                      tmp_path, capsys):
    # near B = 1 at huge H, sb and R0 underflow to 0: a portion of no size
    # exits 3 with one line naming the length, no output and no OBJ
    flags, want = ZERO_SIZE[shape]
    h, b = flags[1], flags[3]
    dest = tmp_path / "m.obj"
    argv = {"analyze": ["analyze"] + flags + ["--format", "json"],
            "mesh": ["mesh"] + flags + ["--out", str(dest)],
            "scan": ["scan", "--H-min", h, "--H-max", h, "--H-steps", "1",
                     "--B-min", b, "--B-max", b, "--B-steps", "1"]}[command]
    assert run_cli(argv, capsys) == (3, "", want)
    assert not dest.exists()


SWEEP_H = ["5e-324", "1e-310", "1e-300", "1e-6", "1", "1e6", "1e300",
           "1e308", "1.7e308"]
SWEEP_B = ["0", "5e-324", "1e-300", "0.5", "0.9", repr(1.0 - 2.0 ** -53),
           repr(1.0 + 2.0 ** -52), "1.5", "1e15", "1e16", "1e100", "1e154"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b", SWEEP_B)
@pytest.mark.parametrize("h", SWEEP_H)
def test_no_valid_input_reads_as_invalid_input(h, b, tmp_path, capsys):
    # every pair is valid, so each command succeeds, fails numerically or
    # finds no portion; exit 2 (invalid input) would blame the user for a
    # length that left the floats
    runs = [["analyze", "--H", h, "--B", b, "--format", "json"],
            ["mesh", "--H", h, "--B", b, "--resolution", "8", "--out",
             str(tmp_path / "m.obj")],
            ["scan", "--H-min", h, "--H-max", h, "--H-steps", "1",
             "--B-min", b, "--B-max", b, "--B-steps", "1"],
            ["profile", "--H", h, "--B", b, "--s-min", "-1", "--s-max", "1",
             "--n", "16"]]
    for argv in runs:
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 3, 4), (argv, err)
        if code:
            assert out == "" and err.count("\n") == 1, (argv, err)
            assert err.startswith("error: ")


@pytest.mark.parametrize("field", ["vertices", "normals"])
def test_mesh_with_a_non_finite_vertex_exits_3(field, monkeypatch, tmp_path,
                                               capsys):
    real_revolve = mesh.revolve

    def broken(*args):
        mesh = real_revolve(*args)
        getattr(mesh, field)[3, 1] = np.inf
        return mesh

    monkeypatch.setattr(mesh, "revolve", broken)
    dest = tmp_path / "m.obj"
    code, out, err = run_cli(["mesh", "--H", "1", "--B", "1.5",
                              "--resolution", "8", "--out", str(dest)],
                             capsys)
    assert (code, out) == (3, "")
    assert err == ("error: the portion mesh holds a vertex or normal that "
                   "is not a finite float\n")
    assert not dest.exists()


SCAN_WITH_FAILING_ROWS = [
    "scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "2", "--B-min",
    "0", "--B-max", "2", "--B-steps", "11", "--root-x-tol", "3"]


def test_scan_writes_nothing_when_a_row_fails(tmp_path, capsys):
    # six rows come before the first failing one; they were printed,
    # with the header, before the exit
    code, out, err = run_cli(SCAN_WITH_FAILING_ROWS, capsys)
    assert (code, out) == (2, "")
    assert "root tolerance x_tol=" in err
    dest = tmp_path / "scan.csv"
    assert run_cli(SCAN_WITH_FAILING_ROWS + ["--output", str(dest)],
                   capsys)[:2] == (2, "")
    assert not dest.exists()


# every nodoid has a portion, found on floats for every B up to about
# 6.7e15.  Above, the top end's u(r0) = x' z is lost to rounding: from
# about 6.8e15 some B, and from about 1.4e16 every B, exit 3 with the
# bracket's "same sign" line.  From 3.6e102 on, 4 B (1 - B)^2 overflows
# in z, so u is nan already at s = 0, which the search names; the profile
# runs on Python floats, which overflow to inf and nan without a warning
NAN_AT_NECK = ("error: the root search met f = nan at x = 0.0, not a "
               "finite value\n")
SAME_SIGN = ("error: f(0.0)=1e+16 and f(1.5707963267948966)="
             "1.0000000000000002 have the same sign\n")


@pytest.mark.parametrize("argv, want", [
    (["analyze", "--H", "1", "--B", "1e16"], SAME_SIGN),
    (["analyze", "--H", "1", "--B", "1e103"], NAN_AT_NECK),
    (["analyze", "--H", "1", "--B", "1e154"], NAN_AT_NECK),
    (["analyze", "--H", "1", "--B", "1e155"], NAN_AT_NECK),
    (["analyze", "--H", "1", "--B", "1e300"], NAN_AT_NECK),
    (["analyze", "--H", "1", "--B", "1.7e308"], NAN_AT_NECK),
    (["mesh", "--H", "1", "--B", "1e16"], SAME_SIGN)],
    ids=["analyze-1e16", "analyze-1e103", "analyze-1e154", "analyze-1e155",
         "analyze-1e300", "analyze-1.7e308", "mesh-1e16"])
def test_unbracketed_nodoid_crossing_exits_3(argv, want, tmp_path, capsys):
    # they exited 4, "no portion", and 2, "invalid input"; the
    # RuntimeWarning filter fails the test on any numpy warning
    dest = tmp_path / "out"
    flag = "--out" if argv[0] == "mesh" else "--output"
    code, out, err = run_cli(argv + [flag, str(dest)], capsys)
    assert (code, out) == (3, "")
    assert err == want
    assert not dest.exists()
    if argv[0] == "analyze":
        assert run_cli(argv, capsys) == (3, "", want)


@pytest.mark.parametrize("b, s_min, s_max", [
    ("3.6e102", "-1", "1"), ("4e102", "-1", "1"), ("6e102", "-1", "1"),
    ("0.5", "-1e308", "1e308")],
    ids=["3.6e102", "4e102", "6e102", "grid-span-1e308"])
def test_profile_overflow_exits_3_without_numpy_warnings(b, s_min, s_max,
                                                         tmp_path, capsys):
    # from B^3 = 4.5e307 (B = 3.56e102) on, 4 B a / 3 in the height and
    # the first tail term of the Carlson loop overflow; at 6e102 x'' does
    # too, and the grid's own step s_max - s_min does at +-1e308.  An
    # overflow on the grid or the table's arrays stops it under
    # np.errstate, so stderr holds only the one line, and the
    # RuntimeWarning filter fails the test on any warning
    dest = tmp_path / "p.csv"
    argv = ["profile", "--H", "1", "--B", b, "--s-min", s_min, "--s-max",
            s_max, "--n", "16"]
    code, out, err = run_cli(argv + ["--output", str(dest)], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: the profile table holds a value that is not a "
                   "finite float\n")
    assert not dest.exists()
    assert run_cli(argv, capsys) == (3, "", err)


@pytest.mark.parametrize("b", ["2523797916671996.0", "7938526459681719.0"])
def test_nodoid_crossing_found_where_the_bracket_walk_failed(b, capsys):
    # the walk toward r0 met z' = 0 at 2.5e15 and ended unbracketed at
    # 7.9e15 (exit 3); u is finite at r0, so [0, r0] brackets the crossing
    code, out, err = run_cli(["analyze", "--H", "1", "--B", b, "--format",
                              "json"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "PinchedFreeBoundaryPortion"
    assert 0.0 < report["sBar"] <= report["r0"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--H", "1", "--B", "0.9", "--output"],
    ["profile", "--H", "1", "--B", "1.5", "--s-min", "-1", "--s-max", "1",
     "--output"],
    ["scan", "--H-min", "1", "--H-max", "1", "--H-steps", "1", "--B-min",
     "0.9", "--B-max", "0.9", "--B-steps", "1", "--output"],
    ["mesh", "--H", "1", "--B", "1.5", "--resolution", "8", "--out"]],
    ids=["analyze", "profile", "scan", "mesh"])
def test_unwritable_output_path_is_invalid_input(argv, tmp_path, capsys):
    # it raised FileNotFoundError, a traceback and exit 1
    dest = tmp_path / "missing" / "x"
    code, out, err = run_cli(argv + [str(dest)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not dest.parent.exists()


def test_verify_passes_at_defaults(shared_verify, capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert "16/16 checks passed" in out
    assert out.count(" PASS ") == 16
    assert " FAIL " not in out


def test_verify_json_lines(shared_verify, capsys):
    code, out, _ = run_cli(["verify", "--format", "json"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 16
    records = [json.loads(line) for line in lines]
    assert [r["id"] for r in records] == [f"AC{i}" for i in range(1, 17)]
    for r in records:
        assert r["passed"] is True
        assert r["worstRatio"] <= 1.0


def test_verify_loose_root_tolerance_fails(capsys):
    # a bracket of 1e-3 leaves the nodoid's |u(rb)|/R0 above AC13's 5e-11
    code, out, _ = run_cli(["verify", "--root-x-tol", "1e-3"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[0] for line in lines if " FAIL " in line] == [
        "AC13"]
    assert lines[-1] == "15/16 checks passed"


def test_verify_prints_an_infinite_ratio(monkeypatch, capsys):
    # ".3e" prints inf as inf; JSON has no inf, so it is null there
    raised = CheckResult("AC0", "a check that raised", False, math.inf,
                         "ZeroDivisionError: broke")
    monkeypatch.setattr(verify, "run_checks", lambda root: [raised])
    assert run_cli(["verify"], capsys) == (
        1, "AC0   FAIL  ratio=inf  a check that raised  "
           "[ZeroDivisionError: broke]\n0/1 checks passed\n", "")
    code, out, _ = run_cli(["verify", "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out)["worstRatio"] is None


INVALID_TOLERANCES = [
    ("--root-x-tol=-1", "x_tol must be positive"),
    ("--root-max-iterations=0", "max_iterations must be at least 1"),
]


@pytest.mark.parametrize("flag,message", INVALID_TOLERANCES,
                         ids=[flag for flag, _ in INVALID_TOLERANCES])
def test_invalid_tolerance_flag_is_invalid_input(capsys, flag, message):
    code, out, err = run_cli(["analyze", "--H", "1", "--B", "0", flag],
                             capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# the variables that once set tolerances, each at a value that would fail
# or change the run; CMCPINCH_ROOT_F_TOL set RootConfig.f_tol, since gone
FORMER_VARIABLES = {
    "CMCPINCH_ROOT_X_TOL": "0.5", "CMCPINCH_ROOT_MAX_ITERATIONS": "1",
    "CMCPINCH_QUAD_ABS_TOL": "1", "CMCPINCH_QUAD_REL_TOL": "-1",
    "CMCPINCH_QUAD_MAX_SUBDIVISIONS": "0", "CMCPINCH_ROOT_F_TOL": "-0.5"}
# one golden run per command, as CI's installed-package step runs them
GOLDEN_RUNS = {
    "analyze": (["analyze", "--H", "0.1", "--B", "0.9", "--format", "json"],
                "analyze_H0.1_B0.9.json"),
    "profile": (["profile", "--H", "0.1", "--B", "0.9", "--s-min", "-1.8",
                 "--s-max", "1.8", "--n", "64"], "profile_H0.1_B0.9.csv"),
    "scan": (["scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "2",
              "--B-min", "0", "--B-max", "2", "--B-steps", "11"],
             "scan_H0.5-2_B0-2.csv"),
    "mesh": (["mesh", "--H", "0.1", "--B", "0.9", "--resolution", "16",
              "--include-sphere"], "mesh_H0.1_B0.9_r16_sphere.obj"),
    "verify": (["verify", "--format", "json"], "verify.jsonl"),
}


@pytest.mark.parametrize("command", list(GOLDEN_RUNS))
def test_environment_is_not_an_input(command, shared_verify, monkeypatch,
                                     tmp_path, capsys):
    for name, value in FORMER_VARIABLES.items():
        monkeypatch.setenv(name, value)
    argv, golden = GOLDEN_RUNS[command]
    dest = tmp_path / golden
    if command == "mesh":
        argv = argv + ["--out", str(dest)]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    got = dest.read_bytes() if command == "mesh" else out.encode("ascii")
    assert got == (GOLDEN_DIR / golden).read_bytes()


def test_console_entry_point_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv",
                        ["cmcpinch", "analyze", "--H", "2", "--B", "0"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert "verdict: Cylinder" in capsys.readouterr().out


def test_parser_is_built_once(monkeypatch, capsys):
    # main reuses one parser, and a second call with other flags parses
    # its own arguments: no value leaks from the first call.  main hands
    # the arguments to the analyze parser, so its parses are counted
    parser = cli.build_parser()
    analyze = parser.commands["analyze"]
    parses = []

    def counted(argv):
        parses.append(argv)
        return type(analyze).parse_known_args(analyze, argv)

    monkeypatch.setattr(analyze, "parse_known_args", counted)
    for argv, golden in (
            (["analyze", "--H", "1", "--B", "1.5", "--format", "text"],
             "analyze_H1_B1.5.txt"),
            (["analyze", "--H", "0.1", "--B", "0.9", "--format", "json"],
             "analyze_H0.1_B0.9.json")):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.encode("ascii") == (GOLDEN_DIR / golden).read_bytes()
    assert len(parses) == 2
    assert cli.build_parser() is parser


# a valid argv per command, each of whose positions takes every token
PARSE_ARGV = {
    "analyze": ["analyze", "--H", "1", "--B", "1.5", "--format", "json"],
    "profile": ["profile", "--H", "1", "--B", "0.5", "--s-min", "-1e-3",
                "--s-max", "1"],
    "scan": ["scan", "--H-min", "1", "--H-max", "2", "--H-steps", "2",
             "--B-min", "0", "--B-max", "2", "--B-steps", "3"],
    "mesh": ["mesh", "--H", "0.1", "--B", "0.9", "--out", "m.obj",
             "--include-sphere"],
    "verify": ["verify", "--root-x-tol=1e-9"],
}
# help, abbreviations (some ambiguous), = values, negative numbers, --,
# removed and unknown flags, and words that name no command
PARSE_TOKENS = [
    *PARSE_ARGV, "ana", "Analyze", "help", "foo", "", "-", "--", "-h",
    "--help", "--he", "-hx", "--help=1", "--H", "--B", "--H=2", "--B=-1",
    "--format", "--form=text", "--fo", "--output", "--out", "--o",
    "--s-min", "--s-m", "--s-max=-inf", "--n", "--n=16", "--H-min", "--H-m",
    "--H-steps=1", "--B-steps", "--resolution", "--res=8",
    "--include-sphere", "--include-sphere=1", "--inc", "--root-x-tol",
    "--root-x", "--root-max-iterations=3", "--root-f-tol", "--quad-abs-tol",
    "--quad-rel-tol=1", "--quad-max-subdivisions", "--bogus", "-x", "-1", "-.5", "-1e-3", "-inf",
    "-nan", "inf", "nan", "0", "1", "1.5", "1e308", "x", "json", "text",
    "a b"]


def _parse_grammar(rng):
    """Every token at every position of each command's valid argv, then
    seeded random token strings, the empty argv among them."""
    argvs = [argv[:i] + [token] + argv[i:]
             for argv in PARSE_ARGV.values()
             for i in range(len(argv) + 1) for token in PARSE_TOKENS]
    words = PARSE_TOKENS + sorted({t for a in PARSE_ARGV.values() for t in a})
    for _ in range(1000):
        argv = [rng.choice(words) for _ in range(rng.randrange(9))]
        if argv and rng.random() < 0.5:
            argv[0] = rng.choice(list(PARSE_ARGV))
        argvs.append(argv)
    return argvs


def test_main_parses_as_the_nested_parser_does(monkeypatch, capsys):
    # main hands argv to the named command's parser; argparse's nested
    # route through the top-level parser is the oracle.  A parse yields
    # the same namespace but for "command"; a failed one the same exit
    # code, stdout and stderr.  The command functions only record
    parser = cli.build_parser.__wrapped__()
    runs = []

    def record(args):
        runs.append(vars(args))
        return 0

    for command in parser.commands.values():
        command.set_defaults(fn=record)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    argvs = _parse_grammar(random.Random(2019))
    assert len(argvs) >= 2000 and [] in argvs
    outcomes = collections.Counter()
    for argv in argvs:
        try:
            want = vars(parser.parse_args(argv))
            want_code = None
        except SystemExit as exc:
            want, want_code = None, exc.code
        want_out, want_err = capsys.readouterr()
        runs.clear()
        code = main(argv)
        out, err = capsys.readouterr()
        names_command = bool(argv) and argv[0] in parser.commands
        if want_code is None:
            # argparse versions that drop a -- before the command parse
            # such an argv at the top level, and main runs it as they do
            assert (code, out, err) == (0, "", ""), argv
            assert len(runs) == 1, argv
            runs[0].pop("command", None)
            want.pop("command")
            assert runs[0] == want, argv
        else:
            assert (code, out, err) == (want_code or 0, want_out,
                                        want_err), argv
            assert runs == [], argv
            if not names_command:
                assert code in (0, 2), argv
        outcomes[names_command, want_code] += 1
    # the grammar reaches parses, help and usage errors by both routes
    assert outcomes[True, None] and outcomes[True, 0] and outcomes[True, 2]
    assert outcomes[False, 0] and outcomes[False, 2]


# cheap inputs per subcommand
KNOB_INPUTS = {
    "analyze": ["analyze", "--H", "0.1", "--B", "0.9", "--format", "json"],
    "profile": ["profile", "--H", "0.1", "--B", "0.9", "--s-min", "-1.8",
                "--s-max", "1.8", "--n", "16"],
    "scan": ["scan", "--H-min", "1", "--H-max", "1", "--H-steps", "1",
             "--B-min", "0.1", "--B-max", "1.5", "--B-steps", "2"],
    "mesh": ["mesh", "--H", "0.1", "--B", "0.9", "--resolution", "8"],
    "verify": ["verify", "--format", "json"],
}
QUAD_FLAGS = ["--quad-abs-tol", "--quad-rel-tol", "--quad-max-subdivisions"]
ROOT_FLAGS = ["--root-x-tol", "--root-max-iterations"]
TOLERANCE_FLAGS = {"analyze": ROOT_FLAGS,
                   "profile": [],
                   "scan": ROOT_FLAGS,
                   "mesh": ROOT_FLAGS,
                   "verify": ROOT_FLAGS}
# flags a command no longer takes: each must be refused, not ignored
REMOVED_FLAGS = {c: QUAD_FLAGS for c in KNOB_INPUTS}
# a value far enough from the default to change what each command prints;
# --root-x-tol bounds H s / min(1, |1 - B|), so 0.1 is a bracket of 0.1 in
# s at H = 0.1, B = 0.9
KNOB_VALUES = {"--quad-abs-tol": "1", "--quad-rel-tol": "0.1",
               "--quad-max-subdivisions": "1", "--root-x-tol": "0.1",
               "--root-max-iterations": "1"}


def _outcome(argv, tmp_path, capsys):
    """Exit code, stdout, stderr and the bytes of mesh's OBJ file."""
    dest = tmp_path / "out.obj"
    dest.unlink(missing_ok=True)
    if argv[0] == "mesh":
        argv = argv + ["--out", str(dest)]
    code = main(argv)
    captured = capsys.readouterr()
    written = dest.read_bytes() if dest.exists() else None
    return code, captured.out, captured.err, written


def test_tolerance_flags_per_command(capsys):
    for command, flags in TOLERANCE_FLAGS.items():
        assert main([command, "--help"]) == 0
        listed = re.findall(r"--(?:quad|root)-[a-z-]+",
                            capsys.readouterr().out)
        assert sorted(set(listed)) == sorted(flags)
    assert sum(map(len, TOLERANCE_FLAGS.values())) == 8


@pytest.mark.parametrize("command,flag",
                         [(c, f) for table in (TOLERANCE_FLAGS, REMOVED_FLAGS)
                          for c, fs in table.items() for f in fs])
def test_every_tolerance_flag_changes_output(command, flag, tmp_path,
                                             capsys):
    argv = KNOB_INPUTS[command]
    if flag in REMOVED_FLAGS[command]:
        # the height is a closed form and verify's Simpson oracle runs on
        # a fixed grid; no quadrature is left to tune, so the flag is a
        # usage error that prints and writes nothing
        value = KNOB_VALUES[flag]
        code, out, err, written = _outcome(argv + [flag, value], tmp_path,
                                           capsys)
        assert code == 2
        assert (out, written) == ("", None)
        assert f"unrecognized arguments: {flag} {value}" in err
        return
    if command == "verify":
        # the default run is pinned by tests/test_golden_outputs.py
        default = (0, (GOLDEN_DIR / "verify.jsonl").read_text(), "", None)
    else:
        default = _outcome(argv, tmp_path, capsys)
    assert default[0] == 0
    code, *rest = _outcome(argv + [flag, KNOB_VALUES[flag]], tmp_path,
                           capsys)
    assert code != 2, rest[1]
    assert (code, *rest) != default


@pytest.mark.parametrize("command,flag",
                         [(c, "--root-f-tol") for c in KNOB_INPUTS]
                         + [("profile", f) for f in ROOT_FLAGS])
def test_unused_root_flags_are_rejected(command, flag, tmp_path, capsys):
    code, out, err, _ = _outcome(KNOB_INPUTS[command] + [flag, "1"],
                                 tmp_path, capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} 1" in err


# each former variable alone, beside test_environment_is_not_an_input's
# all-at-once run
@pytest.mark.parametrize("command", ["analyze", "profile", "scan", "mesh"])
def test_quad_variables_are_not_read(command, monkeypatch, tmp_path, capsys):
    default = _outcome(KNOB_INPUTS[command], tmp_path, capsys)
    assert default[0] == 0
    for name in ("ABS_TOL", "REL_TOL", "MAX_SUBDIVISIONS"):
        monkeypatch.setenv("CMCPINCH_QUAD_" + name, "-1")
    assert _outcome(KNOB_INPUTS[command], tmp_path, capsys) == default


@pytest.mark.parametrize("name,value", [
    ("ROOT_X_TOL", "-1"), ("ROOT_MAX_ITERATIONS", "0"),
    ("ROOT_F_TOL", "-0.5")])
def test_profile_reads_no_root_variable(monkeypatch, capsys, name, value):
    monkeypatch.setenv("CMCPINCH_" + name, value)
    code, out, err = run_cli(
        ["profile", "--H", "0.1", "--B", "0.9", "--s-min", "-1.8",
         "--s-max", "1.8", "--n", "64"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "profile_H0.1_B0.9.csv").read_text()


def test_root_f_tol_variable_is_not_read(monkeypatch, capsys):
    monkeypatch.setenv("CMCPINCH_ROOT_F_TOL", "-0.5")
    code, out, err = run_cli(
        ["analyze", "--H", "0.1", "--B", "0.9", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "analyze_H0.1_B0.9.json").read_text()


@pytest.mark.parametrize("h", ["1", "1e-4"])
def test_analyze_near_degenerate_shape(h, capsys):
    # |1 - B| = 1e-6: the neck is resolved, where adaptive heights failed
    # the enclosure check (exit 3); the sampled oracle checks the
    # reported portion's gap and enclosure
    code, out, err = run_cli(
        ["analyze", "--H", h, "--B", "0.999999", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "PinchedFreeBoundaryPortion"
    params = cli.DelaunayParams(float(h), 0.999999)
    portion = cli.classify(params).portion
    assert (report["sBar"], report["R0"]) == (
        cli._round12(portion.s_bar), cli._round12(portion.R0))
    assert sampled_min_gap(params, portion) == 0.0

import csv
import io
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from cmcpinch import cli
from cmcpinch.cli import main
from cmcpinch.numerics import NoSignChangeError
from sampled_portion import sampled_min_gap

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


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
         "--s-max", "0.8410686705679303", "--n", "16"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[-1][-1] == ""
    for row in rows[1:-1]:
        assert row[-1] != ""


def test_profile_rejects_bad_grid(capsys):
    assert run_cli(
        ["profile", "--H", "1", "--B", "0.5", "--s-min", "0",
         "--s-max", "1", "--n", "8"], capsys)[0] == 2
    assert run_cli(
        ["profile", "--H", "1", "--B", "0.5", "--s-min", "1",
         "--s-max", "0"], capsys)[0] == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds", [["--s-min", "0", "--s-max", "inf"],
                                    ["--s-min=-inf", "--s-max", "1"]],
                         ids=["s-max-inf", "s-min-minus-inf"])
def test_profile_rejects_infinite_bounds(bounds, tmp_path, capsys):
    # an infinite bound is bad input: exit 2 before any sample is taken
    dest = tmp_path / "p.csv"
    code, out, err = run_cli(
        ["profile", "--H", "1", "--B", "0.5", "--n", "16", "--output",
         str(dest)] + bounds, capsys)
    assert (code, out) == (2, "")
    assert err == "error: need finite --s-min and --s-max\n"
    assert not dest.exists()


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
    ["analyze", "--H", "1", "--B", "0.9", "--root-x-tol", "0.5"],
    ["analyze", "--H", "1", "--B", "1.5", "--root-x-tol", "5"],
    ["scan", "--H-min", "1", "--H-max", "1", "--H-steps", "1", "--B-min",
     "0.9", "--B-max", "0.9", "--B-steps", "1", "--root-x-tol", "0.5"],
    ["mesh", "--H", "1", "--B", "0.9", "--root-x-tol", "1"]],
    ids=["analyze-unduloid", "analyze-nodoid", "scan", "mesh"])
def test_root_tolerance_wider_than_bracket_is_invalid(argv, tmp_path,
                                                      capsys):
    # g(0) = |1 - B|/H > 0, so a search that stops at the bracket end
    # s = 0 has found no crossing (it reported sBar 0 and R0 0.1)
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


SCAN_WITH_FAILING_ROWS = [
    "scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "2", "--B-min",
    "0", "--B-max", "2", "--B-steps", "11", "--root-x-tol", "1"]


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


# every nodoid has a portion, but the bracket walk toward r0 does not find
# it from B = 1e16 on; from B = 1e103 on, x'' and z'' overflow on the
# way, and from 1.3e154 on (1 - B)^2 too, where the walk steps onto
# z' = 0 (1e155, 1e300) or ends unbracketed (1.7e308); the walk runs on
# Python floats, which overflow to inf and nan without a warning, and
# z' = 0 keeps g's own message, not Python's "float division by zero"
ZERO_DZ = "error: g is undefined where z' = 0\n"


@pytest.mark.parametrize("argv, want", [
    (["analyze", "--H", "1", "--B", "1e16"], None),
    (["analyze", "--H", "1", "--B", "1e103"], None),
    (["analyze", "--H", "1", "--B", "1e154"], None),
    (["analyze", "--H", "1", "--B", "1e155"], ZERO_DZ),
    (["analyze", "--H", "1", "--B", "1e300"], ZERO_DZ),
    (["analyze", "--H", "1", "--B", "1.7e308"], None),
    (["mesh", "--H", "1", "--B", "1e16"], None)],
    ids=["analyze-1e16", "analyze-1e103", "analyze-1e154", "analyze-1e155",
         "analyze-1e300", "analyze-1.7e308", "mesh-1e16"])
def test_unbracketed_nodoid_crossing_exits_3(argv, want, tmp_path, capsys):
    # they exited 4, "no portion", and 2, "invalid input"; the
    # RuntimeWarning filter fails the test on any numpy warning
    dest = tmp_path / "out"
    flag = "--out" if argv[0] == "mesh" else "--output"
    code, out, err = run_cli(argv + [flag, str(dest)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert want is None or err == want
    assert not dest.exists()


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


def test_verify_loose_quadrature_fails(capsys):
    code, out, _ = run_cli(["verify", "--quad-abs-tol", "1"], capsys)
    assert code == 1
    lines = out.splitlines()
    ac3 = next(line for line in lines if line.startswith("AC3"))
    assert "FAIL" in ac3


INVALID_TOLERANCES = [
    ("--quad-abs-tol=0", "abs_tol must be positive"),
    # -1e-3 is no negative number to argparse, so the value is attached
    ("--quad-rel-tol=-1e-3", "rel_tol must be nonnegative"),
    ("--quad-rel-tol=nan", "rel_tol must be nonnegative"),
    ("--quad-max-subdivisions=0", "max_subdivisions must be at least 1"),
    ("--root-x-tol=-1", "x_tol must be positive"),
    ("--root-max-iterations=0", "max_iterations must be at least 1"),
]


@pytest.mark.parametrize("flag,message", INVALID_TOLERANCES,
                         ids=[flag for flag, _ in INVALID_TOLERANCES])
def test_invalid_tolerance_flag_is_invalid_input(capsys, flag, message):
    # verify is the only command that takes the --quad-* flags
    argv = (["verify"] if flag.startswith("--quad-")
            else ["analyze", "--H", "1", "--B", "0"])
    code, out, err = run_cli(argv + [flag], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# the variables that once set tolerances, each at a value that would fail
# or change the run; CMCPINCH_ROOT_F_TOL set RootConfig.f_tol, since gone
FORMER_VARIABLES = {
    "CMCPINCH_ROOT_X_TOL": "0.5", "CMCPINCH_ROOT_MAX_ITERATIONS": "1",
    "CMCPINCH_QUAD_ABS_TOL": "1", "CMCPINCH_QUAD_REL_TOL": "-1",
    "CMCPINCH_QUAD_MAX_SUBDIVISIONS": "0", "CMCPINCH_ROOT_F_TOL": "-0.5"}
# one golden run per command, as in CI's console-script step
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
    # its own arguments: no value leaks from the first call
    parser = cli.build_parser()
    parses = []

    def counted(argv):
        parses.append(argv)
        return type(parser).parse_args(parser, argv)

    monkeypatch.setattr(parser, "parse_args", counted)
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
# the adaptive quadrature is only the verify command's oracle
TOLERANCE_FLAGS = {"analyze": ROOT_FLAGS,
                   "profile": [],
                   "scan": ROOT_FLAGS,
                   "mesh": ROOT_FLAGS,
                   "verify": QUAD_FLAGS + ROOT_FLAGS}
# flags a command no longer takes: each must be refused, not ignored
REMOVED_FLAGS = {c: QUAD_FLAGS for c in ("analyze", "profile", "scan",
                                         "mesh")}
# a value far enough from the default to change what each command prints;
# --root-x-tol bounds H s, so 0.1 is a bracket of 1 in s at H = 0.1
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
    assert sum(map(len, TOLERANCE_FLAGS.values())) == 11


@pytest.mark.parametrize("command,flag",
                         [(c, f) for table in (TOLERANCE_FLAGS, REMOVED_FLAGS)
                          for c, fs in table.items() for f in fs])
def test_every_tolerance_flag_changes_output(command, flag, tmp_path,
                                             capsys):
    argv = KNOB_INPUTS[command]
    if flag in REMOVED_FLAGS.get(command, ()):
        # the height is a closed form; no quadrature is left to tune, so
        # the flag is a usage error that prints and writes nothing
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

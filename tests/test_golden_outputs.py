"""Byte-exact CLI outputs against frozen reference files.

The output files under golden/ were written by the CLI itself.  Any
change to the numbers it computes or to the way it formats them shows
here as a byte difference, so a refactor that claims to keep outputs
unchanged must pass these tests without touching the files; a change
that moves digits is judged against golden/reference.json, the exact
values (test_reference.py).
"""
import pathlib

import pytest

from cmcpinch.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

FILE_OUTPUTS = [
    ("analyze_H0.1_B0.9.json",
     ["analyze", "--H", "0.1", "--B", "0.9", "--format", "json",
      "--output"]),
    # nodoid, text format
    ("analyze_H1_B1.5.txt", ["analyze", "--H", "1", "--B", "1.5", "--output"]),
    # nodoid: null s0, z0, zAtS0 and n0, and an empty violation list
    ("analyze_H1_B1.5.json",
     ["analyze", "--H", "1", "--B", "1.5", "--format", "json", "--output"]),
    # no portion: every portion field null
    ("analyze_H1_B0.5.json",
     ["analyze", "--H", "1", "--B", "0.5", "--format", "json", "--output"]),
    ("profile_H0.1_B0.9.csv",
     ["profile", "--H", "0.1", "--B", "0.9", "--s-min", "-1.8",
      "--s-max", "1.8", "--n", "64", "--output"]),
    ("profile_H1_B1.5.csv",
     ["profile", "--H", "1", "--B", "1.5", "--s-min", "-3", "--s-max", "3",
      "--n", "64", "--output"]),
    # s = -+arccos(1/B) at the ends, where z' = 0 and the g cell is blank
    ("profile_H1_B1.5_n17_blank_g.csv",
     ["profile", "--H", "1", "--B", "1.5", "--s-min", "-0.8410686705679303",
      "--s-max", "0.8410686705679303", "--n", "17", "--output"]),
    # cylinder, unduloids on both sides of the dichotomy, B = 1, nodoids
    ("scan_H0.5-2_B0-2.csv",
     ["scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "2",
      "--B-min", "0", "--B-max", "2", "--B-steps", "11", "--output"]),
    ("mesh_H0.1_B0.9_r16_sphere.obj",
     ["mesh", "--H", "0.1", "--B", "0.9", "--resolution", "16",
      "--include-sphere", "--out"]),
]


@pytest.mark.parametrize("name,argv", FILE_OUTPUTS,
                         ids=[name for name, _ in FILE_OUTPUTS])
def test_file_output_matches_golden(name, argv, tmp_path, capsys):
    dest = tmp_path / name
    assert main(argv + [str(dest)]) == 0
    assert capsys.readouterr().err == ""
    assert dest.read_bytes() == (GOLDEN_DIR / name).read_bytes()


PROFILE_OUTPUTS = [(name, argv) for name, argv in FILE_OUTPUTS
                   if argv[0] == "profile"]


@pytest.mark.parametrize("tail", [[], ["-"]], ids=["no-output", "dash"])
@pytest.mark.parametrize("name,argv", PROFILE_OUTPUTS,
                         ids=[name for name, _ in PROFILE_OUTPUTS])
def test_profile_stdout_matches_golden(name, argv, tail, capsys):
    argv = argv[:-1] + (["--output"] + tail if tail else [])
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("ascii") == (GOLDEN_DIR / name).read_bytes()


def test_verify_json_matches_golden(shared_verify, capsys):
    assert main(["verify", "--format", "json"]) == 0
    got = capsys.readouterr().out.encode("ascii")
    assert got == (GOLDEN_DIR / "verify.jsonl").read_bytes()


def test_verify_text_matches_golden(shared_verify, capsys):
    assert main(["verify"]) == 0
    got = capsys.readouterr().out.encode("ascii")
    assert got == (GOLDEN_DIR / "verify.txt").read_bytes()

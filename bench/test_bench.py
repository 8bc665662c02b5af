"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q bench

Checks that every metric BENCHMARK.json names prints with its unit, that
work counts and the attempted and failed ops repeat exactly for one seed,
that each workload's correctness check rejects a deliberately corrupted
output, and that the benchmark refuses to run without the program.
"""
from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from workloads import KNOWN_DEFECTS, TINY, WORKLOADS

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNT_UNITS = ("count", "bytes")


def _result(capsys, workload, trace, seed=7):
    status = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0.01", "--trace", str(trace)],
                      sizes=TINY)
    assert status == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-2])["record"]["workload"] == workload
    return json.loads(lines[-1])


def test_spec_matches_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert "setup_s" in names
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_prints_with_unit(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_work_counts_repeat_exactly(capsys):
    first, second = (_result(capsys, "scan-grid", 1)["metrics"]
                     for _ in range(2))
    counts = {k: v["value"] for k, v in first.items()
              if v["unit"] in COUNT_UNITS}
    assert counts["numerics.integrate.evals"] > 0
    assert counts == {k: second[k]["value"] for k in counts}


def test_attempted_and_failed_repeat_exactly(capsys):
    # twenty analyze calls, untraced: the op counts depend on the seed only
    sizes = dataclasses.replace(
        TINY, calls_per_s={**TINY.calls_per_s, "analyze-wide": 2000.0})
    results = []
    for _ in range(2):
        assert run.main(["--workload", "analyze-wide", "--seed", "5",
                         "--seconds", "0.01", "--trace", "0"],
                        sizes=sizes) == 0
        results.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
    first, second = ((r["attempted"], r["failed"]) for r in results)
    assert first[0] == 20
    assert first == second


def _first_call(name):
    workload = WORKLOADS[name](TINY, run.WORK_DIR)
    call = next(workload.calls(random.Random(3)))
    cli = run._import_cli()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    results = [run._invoke(cli, argv) for argv in call.argvs]
    return workload, call, results


def _failures(workload, call, results):
    return {o.failure for o in workload.check(call, results, {})}


def _corrupt_scan(workload, results):
    # flip the verdict of the first unduloid row that has no crossing
    res = results[0]
    text = res.stdout.replace("NoOrthogonalIntersection",
                              "PinchedFreeBoundaryPortion", 1)
    return [res._replace(stdout=text)]


def _corrupt_analyze(workload, results):
    res = results[0]
    payload = json.loads(res.stdout)
    payload["family"] = "cylinder"
    return [res._replace(stdout=json.dumps(payload))]


def _corrupt_export(workload, results):
    # move one vertex of the portion's first ring off the sphere
    with open(workload.obj_path, "rb") as fh:
        lines = fh.read().split(b"\n")
    x, y, z = (float(t) for t in lines[1].split()[1:])
    lines[1] = f"v {x * 1.001:.9g} {y * 1.001:.9g} {z:.9g}".encode()
    with open(workload.obj_path, "wb") as fh:
        fh.write(b"\n".join(lines))
    return results


def _corrupt_verify(workload, results):
    res = results[0]
    return [res._replace(stdout=res.stdout.replace('"passed": true',
                                                   '"passed": false', 1))]


@pytest.mark.parametrize("name, corrupt", [
    ("scan-grid", _corrupt_scan), ("analyze-wide", _corrupt_analyze),
    ("export", _corrupt_export), ("verify", _corrupt_verify)])
def test_check_rejects_corrupted_output(name, corrupt):
    try:
        workload, call, results = _first_call(name)
        assert _failures(workload, call, results) <= {None} | KNOWN_DEFECTS
        bad = _failures(workload, call, corrupt(workload, results))
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    assert bad - {None} - KNOWN_DEFECTS


def test_corrupted_row_makes_run_incorrect(capsys, monkeypatch):
    invoke = run._invoke

    def corrupting(cli, argv, now=time.perf_counter):
        res = invoke(cli, argv, now)
        if argv[0] != "scan":
            return res
        return _corrupt_scan(None, [res])[0]

    monkeypatch.setattr(run, "_invoke", corrupting)
    result = _result(capsys, "scan-grid", 0)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_negative_min_gap_is_a_counted_known_defect():
    row = ["1", "2", "nodoid", workloads.PINCHED, "", "0.5", "1.2", "-1e-6"]
    assert workloads.check_scan_row(row, 1.0, 2.0, {}) == \
        workloads.NEGATIVE_MIN_GAP


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)),
                    tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

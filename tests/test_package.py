import ast
import importlib
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
import types

import pytest

import cmcpinch

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# where this process imported cmcpinch from, the source tree or an
# installed copy; a fresh interpreter imports the same one
PACKAGE_PARENT = pathlib.Path(cmcpinch.__file__).resolve().parents[1]


def test_all_lists_exactly_the_public_names():
    exported = cmcpinch.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(cmcpinch, name) is not None
    public = {name for name, value in vars(cmcpinch).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(exported) == public


def test_all_is_the_readme_list():
    # the library section's list of exported names, between its colon
    # and "Everything else"
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"holds it to this list\):(.*?)Everything else",
                       text, re.DOTALL).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(cmcpinch.__all__)


# numpy loads on first use: a fresh interpreter that imports the CLI,
# answers these commands and analyses float profile points never runs
# numpy's own import
NUMPY_FREE_RUNS = [
    (["analyze", "--H", "1", "--B", b, "--format", fmt], 0)
    for b in ("0", "0.5", "0.9", "1.5") for fmt in ("text", "json")
] + [
    (["analyze", "--H", "0.1", "--B", "0.9", "--format", "json"], 0),
    (["--help"], 0),
    (["analyze", "--H", "1", "--B", "1"], 2),
    (["analyze", "--B", "0.5"], 2),
    (["analyze", "--H", "1", "--B", "1e103"], 3),
    # the golden scan, and one whose H span max - min overflows
    (["scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "2",
      "--B-min", "0", "--B-max", "2", "--B-steps", "11"], 0),
    (["scan", "--H-min", "-1.7e308", "--H-max", "1.7e308", "--H-steps", "5",
      "--B-min", "0.5", "--B-max", "0.5", "--B-steps", "1"], 0),
]
FRESH_RUN = """
import contextlib, io, json, sys
import cmcpinch
from cmcpinch import cli
cli.build_parser()
codes = []
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
verdict = cmcpinch.classify(cmcpinch.DelaunayParams(0.1, 0.9)).verdict
points = [cmcpinch.analyze_point(cmcpinch.profile(
    cmcpinch.DelaunayParams(0.7, b), 0.3)) for b in (0.0, 0.5, 1.5)]
types = sorted({type(getattr(pa, name)).__name__
                for pa in points for name in pa._fields})
print(json.dumps({"codes": codes, "verdict": verdict, "types": types,
                  "modules": sorted(sys.modules)}))
"""


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_PARENT))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=False)


def test_analyze_and_the_float_api_never_load_numpy():
    argvs = [argv for argv, _ in NUMPY_FREE_RUNS]
    run = _fresh(FRESH_RUN, json.dumps(argvs))
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert seen["codes"] == [code for _, code in NUMPY_FREE_RUNS]
    assert seen["verdict"] == cmcpinch.VERDICT_PINCHED
    # analyze_point of a float state is products and quotients of floats
    assert seen["types"] == ["float"]
    assert "numpy._core" not in seen["modules"]
    # dataclasses, and the inspect it imports, are the largest imports a
    # fresh process would pay for; the records need neither
    assert "dataclasses" not in seen["modules"]
    assert "inspect" not in seen["modules"]
    # the benchmark's tracer looks up each module it wraps in sys.modules
    spans = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["SPANS"]
    for module, _, _ in spans:
        assert f"cmcpinch.{module}" in seen["modules"]


# the modules that load on first use, beside numpy; the fresh run below
# passes its values with ast, so that it imports no json itself
LAZY_MODULES = ["cmcpinch.mesh", "cmcpinch.textfmt", "cmcpinch.verify",
                "json"]
STATES_RUN = """
import ast, contextlib, io, sys, types
from cmcpinch import cli
argvs, watched = ast.literal_eval(sys.argv[1])
steps = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    # a LazyLoader module is of a ModuleType subclass until its first
    # attribute read runs it; a module not registered raises KeyError
    ran = [name for name in watched
           if type(sys.modules[name]) is types.ModuleType]
    steps.append((code, ran))
print(repr(steps))
"""
SCAN_ARGV = ["scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "2",
             "--B-min", "0", "--B-max", "2", "--B-steps", "11"]


@pytest.mark.parametrize("steps", [
    [(["analyze", "--H", "0.1", "--B", "0.9"], 0, []),
     (SCAN_ARGV, 0, []),
     (["--help"], 0, []),
     (["analyze", "--H", "1", "--B", "1"], 2, []),
     (["analyze", "--H", "0.1", "--B", "0.9", "--format", "json"], 0,
      ["json"])],
    [(["profile", "--H", "0.1", "--B", "0.9", "--s-min", "-1.8",
       "--s-max", "1.8", "--n", "64"], 0, ["cmcpinch.textfmt"])],
    [(["mesh", "--H", "0.1", "--B", "0.9", "--resolution", "16",
       "--include-sphere", "--out", "{tmp}"], 0,
      ["cmcpinch.mesh", "cmcpinch.textfmt"])],
], ids=["analyze-scan-help-usage", "profile", "mesh"])
def test_each_command_runs_only_its_own_modules(steps, tmp_path):
    argvs = [[a.replace("{tmp}", str(tmp_path / "m.obj")) for a in argv]
             for argv, _, _ in steps]
    run = _fresh(STATES_RUN, repr((argvs, LAZY_MODULES)))
    assert run.returncode == 0, run.stderr
    assert ast.literal_eval(run.stdout) == [(code, ran)
                                            for _, code, ran in steps]


def test_the_tracer_wraps_the_modules_that_load_on_first_use():
    # the benchmark's tracer reads each function it wraps off its module,
    # which runs a module that has not run yet; verify then resolves
    # run_checks and revolve on their modules, where the wrappers stand
    code = ("import contextlib, io, runpy, sys, types\n"
            "from cmcpinch import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['analyze', '--H', '0.1', '--B', '0.9']) "
            "== 0\n"
            "assert type(sys.modules['cmcpinch.verify']) "
            "is not types.ModuleType\n"
            "Tracer = runpy.run_path(sys.argv[1])['Tracer']\n"
            "with Tracer() as tracer, "
            "contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['verify', '--format', 'json'])\n"
            "print(code, tracer.counts['verify.run_checks.calls'],\n"
            "      tracer.counts['mesh.revolve.calls'])\n"
            "sys.stdout.write(out.getvalue())\n")
    run = _fresh(code, str(ROOT / "bench" / "tracing.py"))
    assert run.returncode == 0, run.stderr
    status, _, report = run.stdout.partition("\n")
    assert status == "0 1 1"
    golden = ROOT / "tests" / "golden" / "verify.jsonl"
    assert report == golden.read_text(encoding="utf-8")


def _closed_stdout_run(argv):
    # Python sets sys.stdout to None when fd 1 is closed at start (>&-)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_PARENT))
    return subprocess.run(
        [sys.executable, "-c", "from cmcpinch.cli import entry; entry()",
         *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, check=False, preexec_fn=lambda: os.close(1))


@pytest.mark.parametrize("argv", [
    ["analyze", "--H", "0.1", "--B", "0.9"], SCAN_ARGV, ["verify"]],
    ids=["analyze", "scan", "verify"])
def test_a_stdout_closed_at_start_is_unwritable_output(argv):
    run = _closed_stdout_run(argv)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: ")
    assert run.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]],
                         ids=["cmcpinch", "analyze"])
def test_help_on_a_stdout_closed_at_start_goes_to_stderr(argv):
    # argparse prints to sys.stderr where sys.stdout is None, and help
    # exits 0
    run = _closed_stdout_run(argv)
    assert run.returncode == 0, run.stderr
    assert run.stderr.startswith("usage: cmcpinch")


def test_no_command_loads_dataclasses(tmp_path):
    # profile, mesh and verify load numpy, which itself imports inspect,
    # so this run holds only dataclasses out
    argvs = [
        ["scan", "--H-min", "0.5", "--H-max", "2", "--H-steps", "2",
         "--B-min", "0", "--B-max", "2", "--B-steps", "11"],
        ["profile", "--H", "0.1", "--B", "0.9", "--s-min", "-1.8",
         "--s-max", "1.8", "--n", "64"],
        ["mesh", "--H", "0.1", "--B", "0.9", "--resolution", "16",
         "--include-sphere", "--out", str(tmp_path / "m.obj")],
        ["verify"],
    ]
    run = _fresh(FRESH_RUN, json.dumps(argvs))
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert seen["codes"] == [0] * len(argvs)
    assert "numpy._core" in seen["modules"]
    assert "dataclasses" not in seen["modules"]


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps each (module, function) of SPANS by
    # name; a deleted or renamed one would otherwise show only under
    # pytest bench
    spans = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["SPANS"]
    for module, function, _ in spans:
        package = importlib.import_module(f"cmcpinch.{module}")
        assert callable(getattr(package, function, None)), (module, function)


def test_profile_loads_numpy_on_its_first_array(tmp_path):
    out = tmp_path / "profile.csv"
    code = ("import sys; from cmcpinch import cli; "
            "assert 'numpy._core' not in sys.modules; "
            "sys.exit(cli.main(sys.argv[1:]))")
    run = _fresh(code, "profile", "--H", "1", "--B", "1.5", "--s-min", "-3",
                 "--s-max", "3", "--n", "64", "--output", str(out))
    assert run.returncode == 0, run.stderr
    golden = ROOT / "tests" / "golden" / "profile_H1_B1.5.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_verify_never_loads_numpy_random():
    # AC5-AC8 sample an additive recurrence, so verify needs no random
    # generator
    code = ("import contextlib, io, sys\n"
            "from cmcpinch import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['verify', '--format', 'json'])\n"
            "print(code, 'numpy._core' in sys.modules,\n"
            "      'numpy.random' in sys.modules)\n"
            "sys.stdout.write(out.getvalue())\n")
    run = _fresh(code)
    assert run.returncode == 0, run.stderr
    status, _, report = run.stdout.partition("\n")
    assert status == "0 True False"
    golden = ROOT / "tests" / "golden" / "verify.jsonl"
    assert report == golden.read_text(encoding="utf-8")


def test_the_cli_module_runs_as_a_script():
    # python -m cmcpinch.cli, as runpy runs it
    code = ("import runpy; runpy.run_module('cmcpinch.cli', "
            "run_name='__main__', alter_sys=True)")
    run = _fresh(code, "analyze", "--H", "2", "--B", "0")
    assert run.returncode == 0, run.stderr
    assert "verdict: Cylinder\n" in run.stdout


def test_a_missing_numpy_is_named():
    code = ("import sys; sys.modules['numpy'] = None\n"
            "try:\n"
            "    import cmcpinch\n"
            "except ModuleNotFoundError as exc:\n"
            "    print(exc.name)\n")
    run = _fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "numpy\n"

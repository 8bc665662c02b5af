"""The CLI contract over the whole float range: a seeded fuzz.

Each argv of analyze, scan, profile and mesh (at resolution 8) is drawn
with its values weighted to the extremes: subnormals, -+0, -+inf, nan,
the largest float, 1 -+ 10^-k, negatives, --root-x-tol and
--root-max-iterations extremes, and scan ranges whose span overflows.
Each run must

* exit 0-4;
* write exactly one line holding "error:" to stderr when it exits 2-4,
  and nothing to stderr when it exits 0;
* raise no exception and emit no warning under the project's
  filterwarnings;
* write its --output or --out file only when it exits 0 (README: a
  failure writes nothing);
* print no inf or nan when it exits 0;
* for analyze at exit 0, report classify's verdict at H = 1 for the same
  B and root flags.

Only pytest and the standard library are used, so CI runs it.
"""
import collections
import json
import math
import random
import re
import sys
import warnings

from cmcpinch import DelaunayParams, RootConfig, classify
from cmcpinch.cli import build_parser, main

TOP = sys.float_info.max
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min, TOP,
           -TOP, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 0.9, 1.5,
           2.0, 0.7658950238720567, 0.7658950238720568, 0.7658950238720569,
           7e15, 1e16, 1e103]
TOL_SPECIAL = [5e-324, 1e-300, 1e-12, 1e-3, 0.1, 1.0, 1e300, math.inf,
               math.nan, 0.0, -1.0]
ITERATION_SPECIAL = [-1, 0, 1, 2, 5, 100, 10 ** 6]
ARGVS = 2000
NOT_FINITE = re.compile(r"\b(inf|nan)\b", re.IGNORECASE)


def _value(rng):
    """A float weighted to the extremes."""
    r = rng.random()
    if r < 0.4:
        return rng.choice(SPECIAL)
    if r < 0.55:
        return 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.randint(1, 16)
    sign = -1.0 if rng.random() < 0.1 else 1.0
    return sign * 10.0 ** rng.uniform(-323.0, 308.2)


def _flag(name, value):
    # the = form, so that argparse never reads "-inf" as an option
    return f"--{name}={value!r}"


def _root_flags(rng):
    flags = []
    if rng.random() < 0.3:
        flags.append(_flag("root-x-tol", rng.choice(TOL_SPECIAL)))
    if rng.random() < 0.2:
        flags.append(_flag("root-max-iterations",
                           rng.choice(ITERATION_SPECIAL)))
    return flags


def _range(rng, name):
    """--<name>-min and --<name>-max, one span in eight overflowing."""
    if rng.random() < 0.125:
        big = TOP * rng.uniform(0.5, 1.0)
        lo, hi = -big, (TOP - big) + 10.0 ** rng.uniform(292.5, 308.0)
        if rng.random() < 0.5:
            lo, hi = hi, lo
    else:
        lo, hi = _value(rng), _value(rng)
    return [_flag(f"{name}-min", lo), _flag(f"{name}-max", hi)]


def _argv(rng, path):
    """One argv and the file it names, if any."""
    command = rng.choice(["analyze", "analyze", "scan", "profile", "mesh"])
    out = None
    if command == "scan":
        argv = (["scan"] + _range(rng, "H") + _range(rng, "B")
                + [f"--H-steps={rng.choice([0, 1, 2, 3, 5])}",
                   f"--B-steps={rng.choice([0, 1, 2, 3, 5])}"]
                + _root_flags(rng))
    else:
        argv = [command, _flag("H", _value(rng)), _flag("B", _value(rng))]
        if command == "analyze":
            argv += ["--format", rng.choice(["text", "json"])]
            argv += _root_flags(rng)
        elif command == "profile":
            argv += [_flag("s-min", _value(rng) * rng.choice((-1.0, 1.0))),
                     _flag("s-max", _value(rng)),
                     f"--n={rng.choice([15, 16, 17, 33])}"]
        else:
            argv += ["--resolution", rng.choice(["7", "8", "8", "8"]),
                     "--out", str(path)]
            if rng.random() < 0.5:
                argv.append("--include-sphere")
            argv += _root_flags(rng)
            out = path
    if command != "mesh" and rng.random() < 0.3:
        argv += ["--output", str(path)]
        out = path
    return argv, out


def _verdict(text, fmt):
    if fmt == "json":
        return json.loads(text)["verdict"]
    return re.search(r"^verdict: (\w+)$", text, re.MULTILINE).group(1)


def _classify_verdict(argv):
    args = build_parser().commands["analyze"].parse_args(argv[1:])
    root = RootConfig(args.root_x_tol, args.root_max_iterations)
    return classify(DelaunayParams(1.0, args.B), root).verdict, args.format


def test_every_run_keeps_the_contract(tmp_path, capsys):
    rng = random.Random(22)
    path = tmp_path / "out"
    codes = collections.Counter()
    for _ in range(ARGVS):
        argv, out = _argv(rng, path)
        path.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as seen:
            code = main(argv)
        stdout, stderr = capsys.readouterr()
        codes[argv[0], code] += 1
        assert seen == [], argv
        assert code in (0, 2, 3, 4), argv
        if code:
            assert sum("error:" in line
                       for line in stderr.splitlines()) == 1, (argv, stderr)
            assert not path.exists(), argv
            continue
        assert stderr == "", argv
        text = path.read_text() if out else stdout
        assert out is None or stdout == "", argv
        assert not NOT_FINITE.search(text), (argv, text)
        if argv[0] == "analyze":
            verdict, fmt = _classify_verdict(argv)
            assert _verdict(text, fmt) == verdict, argv
    # the draw reaches success, invalid input, numerical failure and, for
    # mesh, no portion
    assert {code for _, code in codes} == {0, 2, 3, 4}
    assert codes["mesh", 4] and codes["analyze", 0] and codes["scan", 0]

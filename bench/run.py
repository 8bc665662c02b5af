"""Benchmark of the cmcpinch command line, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload scan-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process drives ``cmcpinch.cli.main`` in-process as a closed loop with
a single client: each call starts when the previous one has returned and
been checked.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with a nonzero status and
prints no result.

``--trace 0`` runs a fixed number of the workload's seeded calls,
``--seconds`` times the workload's nominal call rate (``Sizes``), which
takes about ``--seconds`` on a 2-vCPU Intel Xeon VM.  The calls, and so
the attempted and failed ops, depend only on the workload, the seed and
``--seconds``, never on the host's speed.  It reports the end-to-end
metrics:

    setup_s      median time of a fresh interpreter that imports cmcpinch
                 and builds the CLI parser, sampled several times spread
                 over the run
    ops_per_s    ops completed per second spent in the CLI
    op_p50_ms    median op latency
    peak_rss_mb  peak resident memory of this process

The times are read from a ``RefClock``: wall time rescaled to a fixed
reference CPU speed.  On a shared host (a 2-vCPU Intel Xeon VM) the
speed one process sees moves by up to a factor of two within seconds
and drifts over minutes; the wall-time throughput of back-to-back runs
differed by 20-45%.  The clock times a fixed kernel that runs no
cmcpinch code (``kernel_seconds``) every PROBE_EVERY_S, from a timer
signal while a call runs, and scales the wall time in between by
REF_KERNEL_S over the kernel time.  The median kernel time goes into
the record line, so the wall-time figures can be recovered.

``--trace 1`` takes a fixed block of the same calls (its length depends
only on the workload and ``--seconds``), runs it once untraced and once
with the span wrappers of ``tracing.py`` installed, and reports per-layer
self times and work counts plus the tracing overhead.  The work counts
repeat exactly for one seed.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it,
``{"record": ...}``, adds the context: why the workload was chosen, the
failure kinds, the failed ratio, the latency tail, the median kernel
time, the share of ops whose shape B already appeared earlier in the
run, the Python and numpy versions, the git SHA and the CPU count.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import Tracer
from workloads import FULL, KNOWN_DEFECTS, WORKLOADS, Result

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# the parser import and build every CLI invocation pays
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
              "import cmcpinch.cli; cmcpinch.cli.build_parser()")
# time of one kernel_seconds() run at the reference CPU speed; the
# reported times are wall times rescaled to that speed
REF_KERNEL_S = 1.0e-3
# shortest wall time between two kernel samples
PROBE_EVERY_S = 0.1
# one small call that touches every layer but mesh and verify, so lazy
# imports and first-call costs finish before timing
WARMUP_ARGV = ["analyze", "--H", "1", "--B", "1.5", "--format", "json"]


class RefClock:
    """A clock that runs at the reference CPU speed.

    Wall time between two readings is scaled by REF_KERNEL_S over the
    kernel time sampled at its ends.  A reading takes a new sample when
    the last one is PROBE_EVERY_S old, and inside ``ticking()`` a timer
    signal takes one every PROBE_EVERY_S, so long calls are tracked too.
    The kernel's own time is left out, so the clock measures the program
    alone.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._ref = 0.0
        self._scale = 0.0
        self._wall = self._sampled = time.perf_counter()
        self._reading = False
        self.sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        kernel = kernel_seconds()
        scale = REF_KERNEL_S / kernel
        self._ref += (start - self._wall) * 0.5 * (
            (self._scale or scale) + scale)
        self._scale = scale
        self.samples.append(kernel)
        self._wall = self._sampled = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        # a reading in progress takes its own sample when one is due
        if not self._reading:
            self._sample()

    def sample(self) -> None:
        self._reading = True
        try:
            self._sample()
        finally:
            self._reading = False

    def now(self) -> float:
        self._reading = True
        try:
            if time.perf_counter() - self._sampled >= PROBE_EVERY_S:
                self._sample()
            wall = time.perf_counter()
            self._ref += (wall - self._wall) * self._scale
            self._wall = wall
            return self._ref
        finally:
            self._reading = False

    @contextlib.contextmanager
    def ticking(self):
        """Sample every PROBE_EVERY_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class _TimedSink(io.StringIO):
    """Captured stdout that notes the time of every write."""

    def __init__(self, now) -> None:
        super().__init__()
        self.times: list[float] = []
        self._now = now

    def write(self, s: str) -> int:
        self.times.append(self._now())
        return super().write(s)


def _invoke(cli, argv, now=time.perf_counter):
    out, err = _TimedSink(now), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = now()
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        end = now()
    return Result(code, out.getvalue(), err.getvalue(), out.times, start, end)


class Run:
    """Outcomes and CLI time of one pass over a workload's calls."""

    def __init__(self) -> None:
        self.outcomes = []
        self.busy_s = 0.0      # in the clock's time
        self.output_bytes = 0
        self.seen: dict = {}

    def call(self, cli, workload, call, now=time.perf_counter) -> None:
        results = [_invoke(cli, argv, now) for argv in call.argvs]
        self.busy_s += sum(r.end - r.start for r in results)
        self.output_bytes += sum(len(r.stdout.encode()) for r in results)
        if getattr(workload, "obj_path", None):
            self.output_bytes += os.path.getsize(workload.obj_path)
        self.outcomes.extend(workload.check(call, results, self.seen))

    @property
    def failures(self) -> dict:
        kinds: dict = {}
        for o in self.outcomes:
            if o.failure:
                kinds[o.failure] = kinds.get(o.failure, 0) + 1
        return dict(sorted(kinds.items()))

    def repeat_shape_share(self) -> float:
        seen, repeats = set(), 0
        for o in self.outcomes:
            repeats += o.shape in seen
            seen.add(o.shape)
        return repeats / len(self.outcomes)

    def latency_tail(self):
        """Latency at the highest percentile with ten samples beyond it."""
        lat = sorted(o.latency for o in self.outcomes if o.latency is not None)
        if len(lat) < 11:
            return None
        return {"value": lat[-11] * 1e3, "unit": "ms",
                "percentile": 100.0 * (len(lat) - 10) / len(lat),
                "samples_beyond": 10, "samples": len(lat)}


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "cmcpinch", "__init__.py")):
        raise SystemExit(f"error: no cmcpinch package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cmcpinch.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported cmcpinch from {cli.__file__}")
    return cli


def setup_seconds() -> float:
    """Wall time of one fresh interpreter importing cmcpinch."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=SRC)],
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0))}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_seconds() -> float:
    """Time one run of a fixed reference computation.

    The kernel mixes what cmcpinch spends its time on (scalar float
    arithmetic in Python, number formatting, small numpy array
    operations) and shares no code with it, so no change to the program
    can change its speed.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(2500):
        x = i * 1e-3
        acc += math.sqrt(1.0 + x * x) * math.cos(x)
    " ".join(f"{acc * k:.9g}" for k in range(600))
    grid = np.linspace(0.0, 1.0, 512)
    for _ in range(50):
        acc += float(np.sum(np.sin(grid) * grid))
    return time.perf_counter() - start


def _timed_setup(clock) -> float:
    clock.sample()
    start = clock.now()
    setup_seconds()
    clock.sample()
    return clock.now() - start


def run_untraced(cli, workload, calls, n_calls: int, sizes) -> tuple:
    """Run ``n_calls`` calls, timed on a RefClock."""
    run = Run()
    clock = RefClock()
    setup_times = []
    setup_seconds()      # writes the bytecode caches, which users pay once
    for i in range(n_calls):
        # spread the set-up samples over the run
        while len(setup_times) * n_calls <= i * sizes.setup_repeats:
            setup_times.append(_timed_setup(clock))
        call = next(calls)
        with clock.ticking():
            run.call(cli, workload, call, clock.now)
    while len(setup_times) < sizes.setup_repeats:
        setup_times.append(_timed_setup(clock))
    latencies = [o.latency for o in run.outcomes if o.latency is not None]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(run.outcomes) / run.busy_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return run, metrics, statistics.median(clock.samples)


def run_traced(cli, workload, calls, n_calls: int) -> tuple:
    block = [next(calls) for _ in range(n_calls)]
    plain = Run()
    for call in block:
        plain.call(cli, workload, call)
    traced = Run()
    with Tracer() as tracer:
        for call in block:
            traced.call(cli, workload, call)
    metrics = tracer.metrics()
    metrics["freeboundary.repeat_shape_share"] = (
        traced.repeat_shape_share(), "share")
    metrics["cli.output_bytes"] = (traced.output_bytes, "bytes")
    metrics["trace.untraced_s"] = (plain.busy_s, "s")
    metrics["trace.overhead_s"] = (traced.busy_s - plain.busy_s, "s")
    return traced, metrics, None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None) -> dict:
    """Run one workload and return its record (see the module docstring)."""
    sizes = sizes or FULL
    cli = _import_cli()
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        workload = WORKLOADS[name](sizes, WORK_DIR)
        calls = workload.calls(random.Random(seed))
        _invoke(cli, WARMUP_ARGV)
        rates = sizes.trace_calls_per_s if trace else sizes.calls_per_s
        n_calls = max(1, round(seconds * rates[name]))
        if trace:
            run, metrics, kernel_s = run_traced(cli, workload, calls,
                                                n_calls)
        else:
            run, metrics, kernel_s = run_untraced(cli, workload, calls,
                                                  n_calls, sizes)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    failures = run.failures
    failed = sum(failures.values())
    return {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "correct": not set(failures) - KNOWN_DEFECTS,
        "attempted": len(run.outcomes), "failed": failed,
        "failure_kinds": failures,
        "failed_ratio": failed / len(run.outcomes),
        "op_tail_ms": run.latency_tail(),
        "kernel_ms": None if kernel_s is None else kernel_s * 1e3,
        "repeat_shape_share": run.repeat_shape_share(),
        **_environment(),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def _run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        record = json.loads(done.stdout.splitlines()[-2])["record"]
        status |= not record["correct"]
        print(f"{name}: correct={record['correct']} "
              f"attempted={record['attempted']} failed={record['failed']} "
              f"failed_ratio={record['failed_ratio']:.4g}")
        rows = dict(record["metrics"])
        if record["op_tail_ms"]:
            rows["op_tail_ms"] = record["op_tail_ms"]
        for metric, m in rows.items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), sizes)
    print(json.dumps({"record": record}))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

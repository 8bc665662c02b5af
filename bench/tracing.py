"""Per-layer spans and work counts for the traced benchmark run.

The tracer never edits the package.  It replaces public functions on
every ``cmcpinch`` module attribute that still holds the original, which
is where callers resolve them (``from .delaunay import eval_state``
binds a second name in the importing module), and puts the originals
back on exit.  The acceptance checks are reached through the
``verify.CHECKS`` list, so its entries are swapped as well.

Each wrapper records a span.  A layer's ``.s`` is self time: the span's
duration minus the time of the spans nested inside it.  Counts come from
the arguments and results at the same boundary: integrand and root
function evaluations are counted by wrapping the callable passed in.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) -> span name; several functions may share a name
SPANS = [
    ("numerics", "integrate", "numerics.integrate"),
    ("numerics", "find_root", "numerics.find_root"),
    ("delaunay", "z_of", "delaunay.z_of"),
    ("delaunay", "z_many", "delaunay.z_many"),
    ("delaunay", "eval_state", "delaunay.eval_state"),
    ("curvature", "analyze_point", "curvature.analyze_point"),
    ("freeboundary", "classify", "freeboundary.classify"),
    ("freeboundary", "find_sbar", "freeboundary.crossing"),
    ("freeboundary", "nodoid_find_rbar", "freeboundary.crossing"),
    ("freeboundary", "build_portion", "freeboundary.build_portion"),
    ("freeboundary", "find_n0", "freeboundary.violations"),
    ("freeboundary", "violation_points", "freeboundary.violations"),
    ("mesh", "revolve", "mesh.revolve"),
    ("mesh", "sphere", "mesh.sphere"),
    ("mesh", "export_obj", "mesh.export"),
    ("mesh", "export_obj_scene", "mesh.export"),
    ("verify", "run_checks", "verify.run_checks"),
    ("cli", "main", "cli"),
]
CHECK_IDS = [f"AC{i}" for i in range(1, 17)]
# spans whose call count is reported as <name>.calls
CALL_COUNTED = ["numerics.integrate", "numerics.find_root", "delaunay.z_of",
                "delaunay.z_many", "delaunay.eval_state",
                "curvature.analyze_point", "freeboundary.classify"]
# exceptions leaving a span of these layers are counted once per layer
ERROR_LAYERS = ("numerics", "freeboundary")


class _Frame:
    __slots__ = ("fn", "child")

    def __init__(self, fn) -> None:
        self.fn = fn
        self.child = 0.0


class _CountingSink:
    """Binary sink proxy that counts the bytes written through it."""

    def __init__(self, sink, tracer: "Tracer") -> None:
        self._sink = sink
        self._tracer = tracer

    def write(self, data) -> int:
        self._tracer.counts["mesh.obj_bytes"] += len(data)
        return self._sink.write(data)


class Tracer:
    """Installs span wrappers on enter and removes them on exit."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------
    def _wrap(self, name: str, fn, before=None, after=None):
        layer = name.split(".")[0]
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # a function re-entering itself (integrate with swapped
            # endpoints) is one logical call
            if stack and stack[-1].fn is fn:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = _Frame(fn)
            stack.append(frame)
            counts[name + ".calls"] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if layer in ERROR_LAYERS:
                    seen = exc.__dict__.setdefault("_bench_layers", set())
                    if layer not in seen:
                        seen.add(layer)
                        counts[layer + ".errors"] += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[name] += elapsed - frame.child
                if stack:
                    stack[-1].child += elapsed
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_callable(self, key: str, f):
        counts = self.counts

        def counted(u):
            counts[key] += 1
            return f(u)

        return counted

    def _evals(self, key: str):
        def before(args, kwargs):
            return (self._counted_callable(key, args[0]),) + args[1:], kwargs
        return before

    def _z_many_points(self, args, kwargs):
        self.counts["delaunay.z_many.points"] += len(args[1])
        return args, kwargs

    def _triangles(self, mesh) -> None:
        self.counts["mesh.triangles"] += len(mesh.triangles)

    def _sink(self, args, kwargs):
        return args[:1] + (_CountingSink(args[1], self),) + args[2:], kwargs

    def _hooks(self, name: str):
        if name in ("numerics.integrate", "numerics.find_root"):
            return self._evals(name + ".evals"), None
        if name == "delaunay.z_many":
            return self._z_many_points, None
        if name in ("mesh.revolve", "mesh.sphere"):
            return None, self._triangles
        if name == "mesh.export":
            return self._sink, None
        return None, None

    # -- installation ------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cmcpinch"
                                         or key.startswith("cmcpinch."))]
        for mod_name, fn_name, span in SPANS:
            original = getattr(sys.modules["cmcpinch." + mod_name], fn_name)
            wrapper = self._wrap(span, original, *self._hooks(span))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._restore.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        checks = sys.modules["cmcpinch.verify"].CHECKS
        self._saved_checks = list(checks)
        checks[:] = [(cid, self._wrap(f"verify.{cid}", fn))
                     for cid, fn in checks]
        return self

    def __exit__(self, *exc) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()
        sys.modules["cmcpinch.verify"].CHECKS[:] = self._saved_checks

    # -- results -----------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer span and count, by metric name, with its unit."""
        out: dict[str, tuple[float, str]] = {}
        for name in dict.fromkeys(span for _, _, span in SPANS):
            out[name + ".s"] = (self.self_s[name], "s")
        for cid in CHECK_IDS:
            out[f"verify.{cid}.s"] = (self.self_s[f"verify.{cid}"], "s")
        for name in CALL_COUNTED:
            out[name + ".calls"] = (self.counts[name + ".calls"], "count")
        for key in ("numerics.integrate.evals", "numerics.find_root.evals",
                    "delaunay.z_many.points", "mesh.triangles"):
            out[key] = (self.counts[key], "count")
        out["mesh.obj_bytes"] = (self.counts["mesh.obj_bytes"], "bytes")
        for layer in ERROR_LAYERS:
            out[layer + ".errors"] = (self.counts[layer + ".errors"], "count")
        return out

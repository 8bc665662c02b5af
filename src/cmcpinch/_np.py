"""numpy, loaded on first use.

Every module of the package takes ``np`` from here.  If numpy is already
in ``sys.modules``, ``np`` is that module.  Otherwise this follows the
standard library's ``importlib.util.LazyLoader`` recipe: find numpy's
spec, wrap its loader, and register the module that loader makes in
``sys.modules["numpy"]``, which any later ``import numpy`` then returns.
numpy's own import runs on the first attribute read of that module (an
``import numpy`` statement reads one), so ``analyze``, ``scan``,
``--help`` and the float API (classify, build_portion, z_of,
violation_points, profile and eval_state at one float, analyze_point of
a float state) never run it.

numpy is the only module deferred, and no function imports anything:
``import cmcpinch`` still imports every module of the package, which
tools that wrap the package's functions look up in ``sys.modules`` by
module name.
"""
import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    # find_spec is None when numpy is missing, or blocked by a None entry
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)

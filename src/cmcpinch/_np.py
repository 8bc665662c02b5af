"""Modules loaded on first use, numpy among them.

``lazy(name)`` returns ``sys.modules[name]`` when the module is there.
Otherwise it follows the standard library's ``importlib.util.LazyLoader``
recipe: find the module's spec, wrap its loader, and register the module
that loader makes in ``sys.modules[name]`` (and, for a submodule, as an
attribute of its package), which any later ``import`` of it returns.
The module's own code runs on the first attribute read of that module;
an ``import`` statement reads one (``__spec__``).

Deferred: numpy, which every module of the package takes as ``np`` from
here; ``cmcpinch.verify``, ``cmcpinch.mesh`` and ``cmcpinch.textfmt``,
which ``cli``, ``verify`` and the package reach only through handles
from ``lazy`` and never name in an ``import`` statement; and json, which
only the JSON reports use.  So ``analyze``, ``scan``, ``--help`` and the
float API (classify, build_portion, z_of, violation_points, profile and
eval_state at one float, analyze_point of a float state) run none of
the four modules, ``profile`` runs textfmt, and ``mesh`` runs mesh and
textfmt.  Each deferred module is in ``sys.modules`` once ``cmcpinch``
and ``cmcpinch.cli`` are imported, so tools that look the package's
modules up there by name, and wrap their functions, still find every
one; reading a function off one runs it.

3.11's LazyLoader is not thread-safe on first use: two threads that read
a lazy module's first attribute at once may both run its code.  The
package starts no thread.
"""
import importlib.util
import sys


def lazy(name: str):
    """The module ``name``, registered now and run on first use."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    # find_spec is None when the module is missing, or blocked by a None
    # entry
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


np = lazy("numpy")

"""The record contract: the nine records compare, hash and print as the
frozen dataclasses they replace did, validate with the same messages, and
none of them is a tuple.
"""
import contextlib
import io

import numpy as np
import pytest

from cmcpinch import cli, verify
from cmcpinch.curvature import PointAnalysis
from cmcpinch.delaunay import DelaunayParams, GeneratrixState
from cmcpinch.freeboundary import (AnalysisReport, FreeBoundaryPortion,
                                   ViolationPoint)
from cmcpinch.mesh import TriangleMesh
from cmcpinch.numerics import DEFAULT_ROOT, RootConfig
from cmcpinch.verify import CheckResult
from records import replace

# arrays compare elementwise, so two meshes are equal only through the
# same array objects, as the dataclass's field tuples were
VERTICES = np.eye(3)
TRIANGLES = np.array([[0, 1, 2]])


def _cases():
    """Each record with fresh field values, a new value for its first
    field, and whether the frozen dataclass's hash worked on it."""
    return [
        (DelaunayParams, dict(H=1.0, B=0.5), 2.0, True),
        (RootConfig, dict(x_tol=1e-10, max_iterations=50), 1e-9, True),
        # GeneratrixState was no frozen dataclass and had no hash
        (GeneratrixState, dict(s=0.5, x=1.0, z=0.25, dx=0.5, dz=0.75,
                               ddx=-0.5, ddz=0.125), 0.25, True),
        (PointAnalysis, dict(k1=1.0, k2=0.5, mean_curv=1.5, support=-1.0,
                             lambda1=0.0, lambda2=0.25, phi_sq=0.125,
                             gap=0.0), 2.0, True),
        (FreeBoundaryPortion, dict(s_bar=1.5, R0=2.0,
                                   scaled_params=DelaunayParams(2.0, 0.5),
                                   s_bar_scaled=0.75,
                                   orthogonality_residual=1e-16), 1.25, True),
        # a list field: unhashable
        (AnalysisReport, dict(params=DelaunayParams(1.0, 0.5),
                              verdict="NoOrthogonalIntersection", s0=1.0,
                              violations=[ViolationPoint(1, 5.0, -1.0, -2.0)]),
         DelaunayParams(2.0, 0.5), False),
        # array fields: unhashable
        (TriangleMesh, dict(vertices=VERTICES, normals=VERTICES,
                            triangles=TRIANGLES), 2.0 * VERTICES, False),
        (CheckResult, dict(check_id="AC1", description="a check",
                           passed=True, worst_ratio=0.5), "AC2", True),
        (ViolationPoint, dict(n=1, t=5.0, lambda2=-1.0, gap=-2.0), 2, True),
    ]


@pytest.mark.parametrize("i", range(len(_cases())),
                         ids=[case[0].__name__ for case in _cases()])
def test_record_contract(i):
    cls, fields, changed, hashable = _cases()[i]
    rec = cls(**fields)
    twin = cls(**_cases()[i][1])
    values = tuple(getattr(rec, name) for name in cls._fields)
    assert not isinstance(rec, tuple)
    # equal fields of the same type compare equal
    assert rec == twin and not rec != twin
    assert replace(rec) == rec
    # never a plain tuple, from either side, nor another record type
    other = type("Other", (cls,), {"__slots__": ()})(**fields)
    for stranger in (values, other):
        assert not rec == stranger and rec != stranger
        assert not stranger == rec and stranger != rec
    # a changed field is unequal; different arrays compare elementwise,
    # as in the dataclass
    name = cls._fields[0]
    moved = replace(rec, **{name: changed})
    assert getattr(moved, name) is changed
    if cls is TriangleMesh:
        with pytest.raises(ValueError, match="ambiguous"):
            bool(rec == moved)
    else:
        assert rec != moved and not rec == moved
    # the dataclass repr
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(cls._fields, values)) + ")"
    if hashable:
        assert hash(rec) == hash(twin)
        assert {rec: 1}[twin] == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)


def test_reprs_of_the_dataclass_format():
    assert repr(DelaunayParams(1.0, 0.5)) == "DelaunayParams(H=1.0, B=0.5)"
    assert repr(DEFAULT_ROOT) == "RootConfig(x_tol=1e-12, max_iterations=200)"
    assert repr(FreeBoundaryPortion(1.5, 2.0, DelaunayParams(2.0, 0.5),
                                    0.75, 0.0)) == (
        "FreeBoundaryPortion(s_bar=1.5, R0=2.0, scaled_params="
        "DelaunayParams(H=2.0, B=0.5), s_bar_scaled=0.75, "
        "orthogonality_residual=0.0)")
    assert repr(CheckResult("AC1", "a check", True, 0.5)) == (
        "CheckResult(check_id='AC1', description='a check', passed=True, "
        "worst_ratio=0.5, detail='')")
    assert repr(ViolationPoint(1, 5.0, -1.0, -2.0)) == (
        "ViolationPoint(n=1, t=5.0, lambda2=-1.0, gap=-2.0)")


def test_defaults_and_class_attributes():
    params = DelaunayParams(1.0, 0.0)
    first = AnalysisReport(params, "Cylinder")
    second = AnalysisReport(params=params, verdict="Cylinder")
    assert first.violations == second.violations == []
    assert first.violations is not second.violations
    assert (first.s0, first.r0, first.z0, first.z_at_s0, first.portion,
            first.n0) == (None,) * 6
    assert FreeBoundaryPortion.min_gap == 0.0
    assert "min_gap" not in FreeBoundaryPortion._fields
    assert CheckResult("AC1", "a check", True, 0.5).detail == ""
    assert (DEFAULT_ROOT.x_tol, DEFAULT_ROOT.max_iterations) == (1e-12, 200)


@pytest.mark.parametrize("make, message", [
    (lambda: DelaunayParams(0.0, 0.5), "H must be positive and finite"),
    (lambda: DelaunayParams(-1.0, 0.5), "H must be positive and finite"),
    (lambda: DelaunayParams(float("inf"), 0.5),
     "H must be positive and finite"),
    (lambda: DelaunayParams(float("nan"), 0.5),
     "H must be positive and finite"),
    (lambda: DelaunayParams(1.0, -0.5), "B must be nonnegative and finite"),
    (lambda: DelaunayParams(1.0, float("inf")),
     "B must be nonnegative and finite"),
    (lambda: DelaunayParams(1.0, float("nan")),
     "B must be nonnegative and finite"),
    (lambda: DelaunayParams(1.0, 1.0),
     "B = 1 is the degenerate string of spheres"),
    (lambda: DelaunayParams(0.0, 1.0), "H must be positive and finite"),
    (lambda: RootConfig(x_tol=0.0), "x_tol must be positive"),
    (lambda: RootConfig(x_tol=float("nan")), "x_tol must be positive"),
    (lambda: RootConfig(max_iterations=0),
     "max_iterations must be at least 1"),
    (lambda: TriangleMesh(VERTICES, np.zeros((2, 3)), TRIANGLES),
     "vertices and normals must match in shape"),
    (lambda: TriangleMesh(np.zeros((3, 2)), np.zeros((3, 2)), TRIANGLES),
     "vertices must be an (n, 3) array"),
    (lambda: TriangleMesh(VERTICES, VERTICES, np.zeros(3, dtype=int)),
     "triangles must be an (m, 3) index array"),
    (lambda: TriangleMesh(VERTICES, VERTICES, np.zeros((1, 3))),
     "triangle indices must be integers"),
    (lambda: TriangleMesh(VERTICES, VERTICES, np.array([[0, 1, 3]])),
     "triangle indices must lie in [0, len(vertices))"),
    (lambda: TriangleMesh(VERTICES, VERTICES, np.array([[-1, 1, 2]])),
     "triangle indices must lie in [0, len(vertices))"),
])
def test_validating_records_raise_the_dataclass_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_shared_instances_are_unchanged_by_commands():
    # nothing assigns to a record after construction; the instances that
    # every call shares still equal fresh literals after a verify and a
    # scan
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify"]) == 0
        assert cli.main(["scan", "--H-min", "0.5", "--H-max", "2",
                         "--H-steps", "2", "--B-min", "0", "--B-max", "2",
                         "--B-steps", "11"]) == 0
    assert DEFAULT_ROOT == RootConfig(1e-12, 200)
    assert verify.EXAMPLE == DelaunayParams(0.1, 0.9)
    assert verify.NODOID_EXAMPLE == DelaunayParams(1.0, 1.5)

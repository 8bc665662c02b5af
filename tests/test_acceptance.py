"""Acceptance gate: every verification check must pass at defaults.

Each criterion gets its own parametrized test so the report shows one
pass/fail line per check id.  The whole battery runs once per session
(conftest.default_checks).  The registry tests below call the entries
of verify.CHECKS directly.
"""
import dataclasses
import io
import math
import pathlib

import numpy as np
import pytest

from cmcpinch import freeboundary, verify
from cmcpinch.curvature import PointAnalysis, analyze_point
from cmcpinch.delaunay import DelaunayParams, GeneratrixState, eval_state
from cmcpinch.freeboundary import AnalysisReport, VERDICT_NO_ORTHOGONAL
from cmcpinch.numerics import DEFAULT_ROOT

CHECK_IDS = [f"AC{i}" for i in range(1, 17)]


@pytest.fixture(scope="module")
def results(default_checks):
    out = {res.check_id: res for res in default_checks}
    assert sorted(out) == sorted(CHECK_IDS)
    return out


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_acceptance(check_id, results):
    res = results[check_id]
    status = "PASS" if res.passed else "FAIL"
    print(f"{check_id}: {status} (worst residual ratio "
          f"{res.worst_ratio:.3g}) {res.description}")
    assert res.passed, (
        f"{check_id} failed with ratio {res.worst_ratio:.3g}: "
        f"{res.description} [{res.detail}]")
    assert res.worst_ratio <= 1.0


def test_ac13_residual_bound_is_no_looser_than_the_g_bound():
    # |g| = |u| / |z'|, so |u(rb)|/R0 <= 5e-11 implies the bound
    # |g(rb)| <= 1e-10 that AC13 once held, as long as 5e-11 does not
    # exceed 1e-10 |z'(rb)| / R0 (5.08e-11 on the nodoid example)
    p = freeboundary.build_portion(verify.NODOID_EXAMPLE)
    st = eval_state(verify.NODOID_EXAMPLE, p.s_bar)
    assert 5e-11 <= 1e-10 * abs(st.dz) / p.R0


def _scaled(name, k):
    # the report with one length times k; a report without it is kept
    def misstate(rep):
        v = getattr(rep, name)
        return rep if v is None else dataclasses.replace(rep, **{name: v * k})
    return misstate


def _third_t_scaled(rep):
    v = rep.violations
    return rep if not v else dataclasses.replace(
        rep, violations=[*v[:2], v[2]._replace(t=v[2].t * 1.001)])


@pytest.mark.parametrize("check_id, misstate, ratio", [
    ("AC1", _scaled("s0", 1.001), 45.2),
    # s0 left at its H = 1 value, not divided by H
    ("AC1", _scaled("s0", verify.EXAMPLE.H), 4.06e4),
    ("AC2", _scaled("z0", 1.0 + 1e-9), 2111.0),
    ("AC3", _scaled("z_at_s0", 1.001), 27.2),
    ("AC13", _scaled("r0", 0.5), math.inf),
    ("AC11", _third_t_scaled, 5.07e9),
], ids=["s0-x1.001", "s0-not-over-H", "z0-x(1+1e-9)", "z(s0)-x1.001",
        "r0-x0.5", "t3-x1.001"])
def test_the_battery_checks_the_numbers_analyze_prints(
        check_id, misstate, ratio, results, monkeypatch):
    # AC1-AC3, AC11 and AC13 read s0, z0, z(s0), t_n and r0 from the
    # classify reports that analyze prints: one field misstated through
    # the name the battery calls fails the check that reads it
    real = verify.classify
    monkeypatch.setattr(verify, "classify",
                        lambda params, root: misstate(real(params, root)))
    res = dict(verify.CHECKS)[check_id](verify._Context(DEFAULT_ROOT))
    assert res.description == results[check_id].description
    assert not res.passed
    assert res.worst_ratio == pytest.approx(ratio, rel=5e-3)


def test_the_battery_classifies_each_example_once(monkeypatch):
    # the two examples' reports are cached on the context; the third call
    # is AC12's rescaled portion
    calls = []
    real = freeboundary.classify

    def counting(params, root):
        calls.append(params)
        return real(params, root)

    for module in (verify, freeboundary):
        monkeypatch.setattr(module, "classify", counting)
    verify.run_checks()
    assert calls.count(verify.EXAMPLE) == 1
    assert calls.count(verify.NODOID_EXAMPLE) == 1
    assert len(calls) == 3


@pytest.mark.parametrize("n0", [None, 2])
def test_ac11_fails_unless_the_report_says_n0_is_1(n0, results,
                                                   monkeypatch):
    real = verify.classify

    def misreported(params, root):
        return dataclasses.replace(real(params, root), n0=n0)

    monkeypatch.setattr(verify, "classify", misreported)
    res = dict(verify.CHECKS)["AC11"](verify._Context(DEFAULT_ROOT))
    assert res.description == results["AC11"].description
    assert (res.passed, res.worst_ratio) == (False, math.inf)


def test_checks_are_registered_in_battery_order():
    assert [cid for cid, _ in verify.CHECKS] == CHECK_IDS


def test_each_check_maps_a_context_to_its_result():
    ctx = verify._Context(DEFAULT_ROOT)
    for check_id, run in verify.CHECKS:
        res = run(ctx)
        assert isinstance(res, verify.CheckResult)
        assert res.check_id == check_id


# the checks that read a fixed example's portion, from its classify
# report; a report without one re-solves through freeboundary's classify
PORTION_CHECKS = ["AC4", "AC12", "AC13", "AC15", "AC16"]


@pytest.mark.parametrize("check_id", PORTION_CHECKS)
def test_a_check_that_raises_fails_under_its_own_description(
        check_id, results, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("classify broke")

    for module in (verify, freeboundary):
        monkeypatch.setattr(module, "classify", broken)
    run = dict(verify.CHECKS)[check_id]
    res = run(verify._Context(DEFAULT_ROOT))
    assert res == verify.CheckResult(
        check_id, results[check_id].description, False, math.inf,
        "ZeroDivisionError: classify broke")


@pytest.mark.parametrize("check_id", PORTION_CHECKS)
def test_an_example_that_is_not_pinched_names_its_verdict(
        check_id, results, monkeypatch):
    def not_pinched(params, root):
        return AnalysisReport(params=params, verdict=VERDICT_NO_ORTHOGONAL)

    for module in (verify, freeboundary):
        monkeypatch.setattr(module, "classify", not_pinched)
    run = dict(verify.CHECKS)[check_id]
    res = run(verify._Context(DEFAULT_ROOT))
    assert res.description == results[check_id].description
    assert (res.passed, res.worst_ratio) == (False, math.inf)
    # build_portion's NoRootError is a ValueError naming the verdict
    assert res.detail.startswith("NoRootError: ")
    assert VERDICT_NO_ORTHOGONAL in res.detail


@pytest.mark.parametrize("scale", [1 + 1e-3, 1 - 1e-3])
@pytest.mark.parametrize("portion, checks", [
    ("example_portion", ["AC4", "AC15"]),
    ("nodoid_portion", ["AC13", "AC15"]),
])
def test_a_portion_off_its_boundary_fails_the_checks_that_read_it(
        portion, checks, scale):
    # AC4 and AC13 read the boundary (and AC4 the neck) off their grids:
    # an odd count of points from -sb to sb holds -sb, 0 and sb exactly
    assert verify.PORTION_SAMPLES % 2 == 1
    ctx = verify._Context(DEFAULT_ROOT)
    p = getattr(ctx, portion)
    grid = np.linspace(-p.s_bar, p.s_bar, verify.PORTION_SAMPLES)
    assert (grid[0], grid[-1]) == (-p.s_bar, p.s_bar)
    assert grid[verify.PORTION_SAMPLES // 2].hex() == (0.0).hex()
    # AC13's 1000-point grid
    assert np.linspace(-p.s_bar, p.s_bar, 1000)[-1] == p.s_bar
    # sb one part in 10^3 off: each check that reads it fails.  Too
    # short, every AC13 hypothesis still holds inside, so only its
    # |u(rb)| bound can fail it
    setattr(ctx, portion, dataclasses.replace(p, s_bar=p.s_bar * scale))
    for check_id in checks:
        res = dict(verify.CHECKS)[check_id](ctx)
        assert not res.passed and res.worst_ratio > 1.0, check_id


def _records(lines, tag):
    return [i for i, line in enumerate(lines) if line.startswith(tag + " ")]


def _push_vertex_out(lines):
    # the middle vertex, off both boundary rings, moved out tenfold
    vertices = _records(lines, "v")
    i = vertices[len(vertices) // 2]
    x, y, z = (10.0 * float(t) for t in lines[i].split()[1:])
    lines[i] = f"v {x:.9g} {y:.9g} {z:.9g}\n"
    return lines


def _drop_face(lines):
    del lines[_records(lines, "f")[0]]
    return lines


def _garble_coordinate(lines):
    i = _records(lines, "v")[0]
    tag, x, y, z = lines[i].split()
    lines[i] = f"{tag} {x} {y}q {z}\n"
    return lines


def _extra_vertex_field(lines):
    i = _records(lines, "v")[0]
    lines[i] = lines[i].rstrip("\n") + " 0\n"
    return lines


def _short_normal(lines):
    i = _records(lines, "vn")[-1]
    lines[i] = lines[i].rsplit(" ", 1)[0] + "\n"
    return lines


def _normal_among_vertices(lines):
    # the first vn record, moved to the middle of the v block
    vertices = _records(lines, "v")
    lines.insert(vertices[len(vertices) // 2],
                 lines.pop(_records(lines, "vn")[0]))
    return lines


def _long_normal_tag(lines):
    # a tag that a two-byte field would cut back to "vn"
    i = _records(lines, "vn")[1]
    lines[i] = "vnn" + lines[i][2:]
    return lines


def _drop_normals(lines):
    return [line for line in lines if not line.startswith("vn ")]


def _face_normal_differs(lines):
    i = _records(lines, "f")[0]
    tag, first, rest = lines[i].split(" ", 2)
    a = int(first.partition("//")[0])
    lines[i] = f"{tag} {a}//{a + 1} {rest}"
    return lines


def _cr_inside_normal(lines):
    i = _records(lines, "vn")[2]
    tag, x, y, z = lines[i].split()
    lines[i] = f"{tag} {x}\r{y} {z}\n"
    return lines


def _non_ascii_coordinate(lines):
    i = _records(lines, "v")[0]
    tag, x, y, z = lines[i].split()
    lines[i] = f"{tag} {x} {y}\xe9 {z}\n"
    return lines


def _tab_after_first_f(lines):
    # the f block is found by "\nf ", so this record falls in the vn block
    i = _records(lines, "f")[0]
    lines[i] = "f\t" + lines[i][2:]
    return lines


def _single_slash_in_face(lines):
    i = _records(lines, "f")[1]
    tag, first, rest = lines[i].split(" ", 2)
    a = first.partition("//")[0]
    lines[i] = f"{tag} {a}/{a} {rest}"
    return lines


def _export_corrupted_by(corrupt):
    """export_obj with its text passed through corrupt(lines)."""
    real = verify.export_obj

    def export_corrupted(mesh, sink):
        clean = io.BytesIO()
        real(mesh, clean)
        lines = clean.getvalue().decode("ascii").splitlines(keepends=True)
        # latin-1 writes each character below 256 as its one byte
        sink.write("".join(corrupt(lines)).encode("latin-1"))
    return export_corrupted


# the detail shows the count of each block, or the parse error
@pytest.mark.parametrize("corrupt, detail", [
    (_push_vertex_out, "V=4096 E=12160 F=8064 chi=0"),
    (_drop_face, "V=4096 E=12160 F=8063 chi=-1"),
    (_garble_coordinate, "ValueError: could not convert string '"),
    (_extra_vertex_field, "ValueError: the dtype passed requires 4 columns "
                          "but 5 were found"),
    (_short_normal, "ValueError: the dtype passed requires 4 columns "
                    "but 3 were found"),
    (_normal_among_vertices, "ValueError: a record in the vn block has "
                             "another tag"),
    (_long_normal_tag, "ValueError: a record in the vn block has "
                       "another tag"),
    (_drop_normals, "ValueError: the OBJ lacks its vn or f block"),
    (_face_normal_differs, "ValueError: a face's normal index differs "
                           "from its vertex index"),
    (_cr_inside_normal, "ValueError: Found an unquoted embedded newline "
                        "within a single line of input."),
    (_non_ascii_coordinate, "ValueError: could not convert string "
                            "'0\xe9' to float64 at row 0, column 3."),
    (_tab_after_first_f, "ValueError: could not convert string '1//1' "
                         "to float64 at row 4096, column 2."),
    (_single_slash_in_face, "ValueError: the dtype passed requires 7 "
                            "columns but 6 were found at row 2;"),
])
def test_ac16_fails_on_a_corrupted_obj(corrupt, detail, results,
                                       monkeypatch):
    monkeypatch.setattr(verify, "export_obj", _export_corrupted_by(corrupt))
    res = dict(verify.CHECKS)["AC16"](verify._Context(DEFAULT_ROOT))
    assert (res.check_id, res.description) == (
        "AC16", results["AC16"].description)
    assert not res.passed and res.worst_ratio > 1.0
    assert res.detail.startswith(detail)


def _blank_line_among_vertices(lines):
    vertices = _records(lines, "v")
    lines.insert(vertices[len(vertices) // 2], "\n")
    return lines


def _cr_ending_a_vertex(lines):
    i = _records(lines, "v")[3]
    lines[i] = lines[i].rstrip("\n") + "\r\n"
    return lines


def _form_feed_between_fields(lines):
    i = _records(lines, "v")[5]
    tag, x, y, z = lines[i].split()
    lines[i] = f"{tag} {x}\f{y} {z}\n"
    return lines


def _no_final_newline(lines):
    lines[-1] = lines[-1].rstrip("\n")
    return lines


@pytest.mark.parametrize("corrupt", [
    _blank_line_among_vertices, _cr_ending_a_vertex,
    _form_feed_between_fields, _no_final_newline])
def test_ac16_reads_whitespace_variants_as_the_clean_obj(corrupt, results,
                                                         monkeypatch):
    # the reader skips a blank line, takes CR and form feed as whitespace
    # and needs no newline after the last record: AC16's result is the
    # clean battery's to the bit
    monkeypatch.setattr(verify, "export_obj", _export_corrupted_by(corrupt))
    res = dict(verify.CHECKS)["AC16"](verify._Context(DEFAULT_ROOT))
    clean = results["AC16"]
    assert res.passed
    assert (res.worst_ratio.hex(), res.detail) == (
        clean.worst_ratio.hex(), clean.detail)


def test_obj_parse_equals_python_float_bit_for_bit():
    golden = (pathlib.Path(__file__).parent / "golden"
              / "mesh_H0.1_B0.9_r16_sphere.obj").read_bytes()
    # the scene's two objects, each read on its own from after its o line
    objects = [chunk.partition(b"\n")[2]
               for chunk in (b"\n" + golden).split(b"\no ")[1:]]
    assert len(objects) == 2
    for data in objects:
        vs, vns, faces = verify._parse_obj(data)
        lines = [line.split() for line in data.decode("ascii").splitlines()]
        for table, tag in ((vs, "v"), (vns, "vn")):
            ref = np.array([[float(t) for t in p[1:]] for p in lines
                            if p[0] == tag])
            assert np.array_equal(table.view(np.int64), ref.view(np.int64))
        assert faces.tolist() == [[int(t.partition("//")[0]) for t in p[1:]]
                                  for p in lines if p[0] == "f"]


def _sample_rows_one_at_a_time():
    """The sample set built a row at a time: the row's four draws as
    floats, then one DelaunayParams, eval_state and analyze_point."""
    columns = np.random.default_rng(20260819).random((4, 1000))
    rows = []
    for pick, u_b, u_h, u_s in columns.T.tolist():
        if pick < 0.1:
            b = 0.0
        elif pick < 0.55:
            b = 0.05 + 0.85 * u_b
        else:
            b = 1.15 + 1.35 * u_b
        h = 0.2 + 1.8 * u_h
        span = min(6.0, 2.0 * math.pi / h)
        s = span * (2.0 * u_s - 1.0)
        params = DelaunayParams(h, b)
        st = eval_state(params, s)
        rows.append((params, st, analyze_point(st)))
    return rows


def test_sample_set_is_the_row_at_a_time_set_bit_for_bit():
    # one array state with per-row (H, B) must give every row's shape,
    # state and analysis to the bit (float.hex tells -0 from +0)
    shapes, st, pa = verify._Context(DEFAULT_ROOT).sample_rows
    rows = _sample_rows_one_at_a_time()
    assert len(shapes.H) == len(shapes.B) == len(rows) == 1000
    assert {params.family for params, _, _ in rows} == {
        "cylinder", "unduloid", "nodoid"}
    columns = [("H", shapes, 0), ("B", shapes, 0)]
    columns += [(f.name, st, 1) for f in dataclasses.fields(GeneratrixState)]
    columns += [(f.name, pa, 2) for f in dataclasses.fields(PointAnalysis)]
    for name, table, part in columns:
        got = [v.hex() for v in getattr(table, name).tolist()]
        want = [float(getattr(row[part], name)).hex() for row in rows]
        assert got == want, name


def _ratio_tables():
    # AC8's kind of table: a tolerance per element, one ratio exactly 1
    rng = np.random.default_rng(5)
    tols = 1e-6 * np.maximum(1.0, np.abs(10.0 * rng.standard_normal(1000)))
    passing = rng.uniform(-1.0, 1.0, 1000) * tols
    passing[17] = -tols[17]
    one_fails = passing.copy()
    one_fails[500] = 1.5 * tols[500]
    with_nan = passing.copy()
    with_nan[3] = math.nan
    with_inf = passing.copy()
    with_inf[999] = -math.inf
    return tols, {"passing": passing, "one-fails": one_fails,
                  "nan": with_nan, "inf": with_inf}


@pytest.mark.parametrize("name, want", [
    ("passing", (1.0, True)), ("one-fails", (1.5, False)),
    ("nan", (math.inf, False)), ("inf", (math.inf, False))])
def test_bound_on_a_table_is_the_per_element_loop(name, want):
    # AC5-AC8 bound a whole table in one call; bound on each element, a
    # Python float at a time, gives the same worst ratio and pass flag,
    # with a tolerance per element (AC8) and one for all (AC5-AC7)
    tols, tables = _ratio_tables()
    table = tables[name]
    for tol in (tols, 1e-6):
        r = verify._Ratios()
        r.bound(table, tol)
        each = verify._Ratios()
        for res, t in zip(table.tolist(),
                          np.broadcast_to(tol, table.shape).tolist()):
            each.bound(res, t)
        assert (r.worst, r.ok) == (each.worst, each.ok)
        if tol is tols:
            assert (r.worst, r.ok) == want

import io
import math

import numpy as np
import pytest

from cmcpinch import mesh as mesh_module
from cmcpinch.cli import main
from cmcpinch.delaunay import DelaunayParams
from cmcpinch.freeboundary import build_portion
from cmcpinch.mesh import (TriangleMesh, export_obj, export_obj_scene,
                           revolve, sphere)
from cmcpinch.verify import _parse_obj

EXAMPLE = DelaunayParams(1.0, 0.9)


def parse_obj(text):
    verts, norms, faces = [], [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(p) for p in parts[1:4]])
        elif parts[0] == "vn":
            norms.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(p.split("//")[0]) - 1 for p in parts[1:4]])
    return np.array(verts), np.array(norms), np.array(faces)


def edge_count(triangles):
    edges = set()
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((min(u, v), max(u, v)))
    return len(edges)


def test_revolve_counts():
    mesh = revolve(EXAMPLE, -1.0, 1.0, 3, 4)
    assert mesh.vertices.shape == (12, 3)
    assert mesh.normals.shape == (12, 3)
    assert mesh.triangles.shape == (16, 3)


def test_revolve_validation():
    with pytest.raises(ValueError):
        revolve(EXAMPLE, -1.0, 1.0, 1, 4)
    with pytest.raises(ValueError):
        revolve(EXAMPLE, -1.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        revolve(EXAMPLE, 1.0, 1.0, 3, 4)


@pytest.mark.parametrize("s_min,s_max", [
    (-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0)])
def test_revolve_rejects_non_finite_ends(s_min, s_max):
    with pytest.raises(ValueError, match="finite"):
        revolve(EXAMPLE, s_min, s_max, 4, 4)


def test_mesh_shape_validation():
    good = np.zeros((3, 3))
    with pytest.raises(ValueError):
        TriangleMesh(vertices=good, normals=np.zeros((2, 3)),
                     triangles=np.zeros((1, 3), dtype=int))
    with pytest.raises(ValueError):
        TriangleMesh(vertices=good, normals=good,
                     triangles=np.zeros((3,), dtype=int))
    flat = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        TriangleMesh(vertices=flat, normals=flat,
                     triangles=np.zeros((1, 3), dtype=int))


def test_normals_are_unit():
    mesh = revolve(EXAMPLE, -2.0, 2.0, 40, 24)
    lengths = np.linalg.norm(mesh.normals, axis=1)
    np.testing.assert_allclose(lengths, 1.0, atol=1e-12)


def test_normals_match_surface_geometry():
    """Central differences of the vertex grid reproduce the normals."""
    n_m, n_p = 256, 256
    mesh = revolve(EXAMPLE, -1.5, 1.5, n_m, n_p)
    grid = mesh.vertices.reshape(n_m, n_p, 3)
    d_s = grid[2:, :, :] - grid[:-2, :, :]
    d_t = np.roll(grid, -1, axis=1) - np.roll(grid, 1, axis=1)
    cross = np.cross(d_s, d_t[1:-1, :, :])
    cross /= np.linalg.norm(cross, axis=-1, keepdims=True)
    stored = mesh.normals.reshape(n_m, n_p, 3)[1:-1, :, :]
    np.testing.assert_allclose(cross, stored, rtol=0.0, atol=3e-3)


def test_triangles_wound_along_normals():
    mesh = revolve(EXAMPLE, -1.0, 1.0, 20, 16)
    v, n, t = mesh.vertices, mesh.normals, mesh.triangles
    face_cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    face_normal = (n[t[:, 0]] + n[t[:, 1]] + n[t[:, 2]]) / 3.0
    assert np.all(np.sum(face_cross * face_normal, axis=1) > 0.0)


def test_revolved_band_is_an_annulus():
    mesh = revolve(EXAMPLE, -1.0, 1.0, 17, 23)
    v = len(mesh.vertices)
    e = edge_count(mesh.triangles)
    f = len(mesh.triangles)
    assert v - e + f == 0


def test_sphere_counts_and_radius():
    mesh = sphere(2.5, n_lat=8, n_lon=12)
    assert len(mesh.vertices) == 2 + 7 * 12
    assert len(mesh.triangles) == 2 * 12 + 2 * 12 * 6
    radii = np.linalg.norm(mesh.vertices, axis=1)
    np.testing.assert_allclose(radii, 2.5, atol=1e-12)


def test_sphere_normals_point_outward():
    mesh = sphere(3.0, n_lat=6, n_lon=9)
    np.testing.assert_allclose(mesh.normals,
                               mesh.vertices / 3.0, atol=1e-15)
    lengths = np.linalg.norm(mesh.normals, axis=1)
    np.testing.assert_allclose(lengths, 1.0, atol=1e-12)


def test_sphere_is_topologically_closed():
    mesh = sphere(1.0, n_lat=7, n_lon=11)
    v = len(mesh.vertices)
    e = edge_count(mesh.triangles)
    f = len(mesh.triangles)
    assert v - e + f == 2


def _loop_revolve_triangles(n_meridian, n_parallel):
    tris = []
    for i in range(n_meridian - 1):
        base = i * n_parallel
        for j in range(n_parallel):
            j1 = (j + 1) % n_parallel
            a, b = base + j, base + n_parallel + j
            c, d = base + n_parallel + j1, base + j1
            tris += [(a, b, c), (a, c, d)]
    return np.array(tris, dtype=np.int64)


def _loop_sphere_triangles(n_lat, n_lon):
    ring = lambda i, j: 1 + (i - 1) * n_lon + (j % n_lon)
    bottom = 1 + (n_lat - 1) * n_lon
    tris = [(0, ring(1, j), ring(1, j + 1)) for j in range(n_lon)]
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i + 1, j)
            c, d = ring(i + 1, j + 1), ring(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    tris += [(bottom, ring(n_lat - 1, j + 1), ring(n_lat - 1, j))
             for j in range(n_lon)]
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 4), (17, 23), (64, 64)])
def test_triangle_indices_match_loop_reference(rows, cols):
    got = revolve(EXAMPLE, -1.0, 1.0, rows, cols).triangles
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _loop_revolve_triangles(rows, cols))
    got = sphere(1.0, n_lat=rows, n_lon=cols).triangles
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _loop_sphere_triangles(rows, cols))


def test_sphere_validation():
    with pytest.raises(ValueError):
        sphere(0.0)
    with pytest.raises(ValueError):
        sphere(1.0, n_lat=1)
    with pytest.raises(ValueError):
        sphere(1.0, n_lon=2)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_sphere_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError, match="positive and finite"):
        sphere(radius)


def _loop_format_scene(named):
    """The one-f-string-per-line OBJ formatter the block writer replaced."""
    lines = []
    offset = 0
    for name, mesh in named:
        if name is not None:
            lines.append(f"o {name}")
        for vx, vy, vz in mesh.vertices:
            lines.append(f"v {vx:.9g} {vy:.9g} {vz:.9g}")
        for nx, ny, nz in mesh.normals:
            lines.append(f"vn {nx:.9g} {ny:.9g} {nz:.9g}")
        for a, b, c in mesh.triangles:
            ia, ib, ic = a + 1 + offset, b + 1 + offset, c + 1 + offset
            lines.append(f"f {ia}//{ia} {ib}//{ib} {ic}//{ic}")
        offset += len(mesh.vertices)
    return ("\n".join(lines) + "\n").encode("ascii")


def _scene_bytes(named):
    sink = io.BytesIO()
    export_obj_scene(named, sink)
    return sink.getvalue()


NODOID = DelaunayParams(0.7, 2.3)


@pytest.mark.parametrize("params", [EXAMPLE, NODOID],
                         ids=["unduloid", "nodoid"])
@pytest.mark.parametrize("rows,cols", [(2, 3), (5, 3), (9, 11), (64, 64),
                                       (16, 128)])
def test_export_matches_line_formatter_on_revolve(params, rows, cols):
    mesh = revolve(params, -1.2, 1.7, rows, cols)
    sink = io.BytesIO()
    export_obj(mesh, sink)
    assert sink.getvalue() == _loop_format_scene([(None, mesh)])
    named = [("portion", mesh)]
    assert _scene_bytes(named) == _loop_format_scene(named)


@pytest.mark.parametrize("n_lat,n_lon", [(2, 3), (8, 12), (32, 64)])
def test_export_matches_line_formatter_on_sphere(n_lat, n_lon):
    named = [("sphere", sphere(0.83, n_lat=n_lat, n_lon=n_lon))]
    assert _scene_bytes(named) == _loop_format_scene(named)


def test_export_scene_matches_line_formatter_across_digit_widths():
    # 8, 9 and 101 vertices: indices 9..17 cross 9 -> 10 and the third
    # object's 18..118 cross 99 -> 100
    named = [("portion", revolve(EXAMPLE, -1.0, 1.0, 2, 4)),
             (None, revolve(NODOID, -0.5, 0.5, 3, 3)),
             ("sphere", sphere(1.0, n_lat=12, n_lon=9))]
    assert [len(m.vertices) for _, m in named] == [8, 9, 101]
    got = _scene_bytes(named)
    assert got == _loop_format_scene(named)
    assert b"f 9//9 " in got and b" 100//100" in got


def test_export_matches_line_formatter_across_six_digit_indices(tmp_path):
    # the mesh command's 320 x 320 portion has 102400 vertices: one
    # object's faces cross 99999 -> 100000.  AC16's parser reads each
    # object of the scene back: f the triangles plus the object's offset,
    # v and vn the arrays at 9 digits
    dest = tmp_path / "wide.obj"
    assert main(["mesh", "--H", "1", "--B", "1.5", "--resolution", "320",
                 "--include-sphere", "--out", str(dest)]) == 0
    params = DelaunayParams(1.0, 1.5)
    p = build_portion(params)
    named = [("portion", revolve(params, -p.s_bar, p.s_bar, 320, 320)),
             ("sphere", sphere(p.R0, 160, 320))]
    got = dest.read_bytes()
    assert got == _loop_format_scene(named)
    assert b" 99999//99999" in got and b" 100000//100000" in got
    offset = 0
    chunks = (b"\n" + got).split(b"\no ")[1:]
    for chunk, (name, mesh) in zip(chunks, named, strict=True):
        head, _, data = chunk.partition(b"\n")
        assert head.decode() == name
        vs, vns, faces = _parse_obj(data)
        for table, rows in ((vs, mesh.vertices), (vns, mesh.normals)):
            assert table.tolist() == [[float(f"{c:.9g}") for c in row]
                                      for row in rows.tolist()]
        assert faces.tolist() == (mesh.triangles + offset + 1).tolist()
        offset += len(mesh.vertices)


def test_export_matches_line_formatter_on_edge_values():
    # where %g switches between fixed and exponent notation, signed
    # zero, the smallest subnormal and values that round up a digit
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 9.9999999995e-05,
            1e-5, 1e-4, 9.99999999e-05, 999999999.5, 99999999.95, 1e9,
            123456789.0, 1.0000000005, 2.2250738585072014e-308,
            1.7976931348623157e308, math.pi, float("inf"), float("-inf"),
            float("nan")]
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 63, size=300, dtype=np.uint64)
    wild = bits.view(np.float64)
    wild = wild[np.isfinite(wild)]
    scaled = rng.standard_normal(300) * 10.0 ** rng.integers(-20, 20, 300)
    values = np.concatenate((edge, wild, scaled))
    values = np.concatenate((values, np.zeros(-len(values) % 3)))
    rows = values.reshape(-1, 3)
    mesh = TriangleMesh(vertices=rows, normals=rows[::-1].copy(),
                        triangles=np.array([[0, 1, len(rows) - 1]]))
    named = [(None, mesh)]
    assert _scene_bytes(named) == _loop_format_scene(named)
    assert b"v -0 0 4.94065646e-324\n" in _scene_bytes(named)


def test_empty_scene_writes_nothing():
    empty = TriangleMesh(vertices=np.zeros((0, 3)), normals=np.zeros((0, 3)),
                         triangles=np.zeros((0, 3), dtype=np.int64))
    assert _scene_bytes([]) == b""
    assert _scene_bytes([(None, empty)]) == b""
    assert _scene_bytes([("e", empty)]) == b"o e\n"


@pytest.mark.parametrize("bad,message", [
    (np.array([[0, 1, -1]]), "must lie in"),
    (np.array([[0, 1, 3]]), "must lie in"),
    (np.array([[0.0, 1.0, 2.0]]), "must be integers"),
])
def test_triangle_indices_are_validated(bad, message):
    good = np.eye(3)
    with pytest.raises(ValueError, match=message):
        TriangleMesh(vertices=good, normals=good, triangles=bad)


def test_export_single_triangle_exact():
    mesh = TriangleMesh(
        vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0]]),
        normals=np.array([[0.0, 0.0, 1.0]] * 3),
        triangles=np.array([[0, 1, 2]]))
    sink = io.BytesIO()
    export_obj(mesh, sink)
    assert sink.getvalue().decode("ascii") == (
        "v 0 0 0\n"
        "v 1 0 0\n"
        "v 0 1 0\n"
        "vn 0 0 1\n"
        "vn 0 0 1\n"
        "vn 0 0 1\n"
        "f 1//1 2//2 3//3\n")


def test_export_obj_does_not_call_export_obj_scene(monkeypatch):
    # a wrapper on export_obj_scene would otherwise see export_obj's
    # writes too, and a byte-counting one count them twice
    mesh = revolve(EXAMPLE, -1.3, 1.3, 12, 10)
    want = io.BytesIO()
    export_obj(mesh, want)

    def refuse(named, destination):
        raise AssertionError("export_obj went through export_obj_scene")
    monkeypatch.setattr(mesh_module, "export_obj_scene", refuse)
    got = io.BytesIO()
    export_obj(mesh, got)
    assert got.getvalue() == want.getvalue()


def test_export_is_deterministic():
    mesh = revolve(EXAMPLE, -1.3, 1.3, 12, 10)
    a, b = io.BytesIO(), io.BytesIO()
    export_obj(mesh, a)
    export_obj(mesh, b)
    assert a.getvalue() == b.getvalue()


def test_scene_offsets_face_indices():
    tri = TriangleMesh(
        vertices=np.eye(3), normals=np.array([[0.0, 0.0, 1.0]] * 3),
        triangles=np.array([[0, 1, 2]]))
    sink = io.BytesIO()
    export_obj_scene([("first", tri), ("second", tri)], sink)
    lines = sink.getvalue().decode("ascii").splitlines()
    assert lines[0] == "o first"
    assert "f 1//1 2//2 3//3" in lines
    assert "f 4//4 5//5 6//6" in lines
    assert lines.index("o second") > lines.index("o first")


def test_obj_round_trip():
    mesh = revolve(DelaunayParams(1.0, 1.5), -0.4, 0.4, 15, 9)
    sink = io.BytesIO()
    export_obj(mesh, sink)
    verts, norms, faces = parse_obj(sink.getvalue().decode("ascii"))
    np.testing.assert_allclose(verts, mesh.vertices, rtol=1e-8, atol=1e-9)
    np.testing.assert_allclose(norms, mesh.normals, rtol=1e-8, atol=1e-9)
    np.testing.assert_array_equal(faces, mesh.triangles)


def test_revolved_radii_match_profile():
    mesh = revolve(EXAMPLE, 0.0, math.pi, 5, 64)
    grid = mesh.vertices.reshape(5, 64, 3)
    radii = np.hypot(grid[:, :, 0], grid[:, :, 1])
    ss = np.linspace(0.0, math.pi, 5)
    q = 1.0 + 0.81 - 1.8 * np.cos(ss)
    expected = np.outer(np.sqrt(q), np.ones(64))
    np.testing.assert_allclose(radii, expected, atol=1e-12)

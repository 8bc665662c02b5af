"""Triangle meshes of revolved portions and Wavefront OBJ export.

The portion [s_min, s_max] of a profile is revolved around the z axis
into position

    P(s, theta) = (x(s) cos theta, x(s) sin theta, z(s))

with the exact unit normal

    N(s, theta) = (-z'(s) cos theta, -z'(s) sin theta, x'(s)),

which is unit length because the profile is arc-length parametrized.
Meshes are plain numpy arrays; export writes deterministic ASCII OBJ
(9 significant digits, one object per mesh, faces as v//vn triples).
Each object's v, vn and f records are formatted as one block each by the
vectorised kernel of ``textfmt`` and written to the sink block by block;
the bytes are those of printf "%.9g" and "%d", one line at a time.  The
v and vn blocks, about 16% NUL, lose their NULs to ``lines``'
``translate``; the f block is built row-major and, with about 2.4% NUL,
is squeezed with ``replace``.  On a 2-vCPU Xeon replace costs about
0.55 ns a byte on an f block, against 0.55 (bytearray) to 0.9 (bytes)
for translate, and 2.9 on a v block, against translate's 1.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO, Optional, Sequence

from ._np import np
from .delaunay import DelaunayParams, profile
from .textfmt import format_g, format_int, join, lines, text_rows


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray   # (n, 3) float64
    normals: np.ndarray    # (n, 3) float64, unit, one per vertex
    triangles: np.ndarray  # (m, 3) int, indices into vertices

    def __post_init__(self) -> None:
        if self.vertices.shape != self.normals.shape:
            raise ValueError("vertices and normals must match in shape")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) index array")
        if not np.issubdtype(self.triangles.dtype, np.integer):
            raise ValueError("triangle indices must be integers")
        if self.triangles.size and not (
                0 <= self.triangles.min()
                and self.triangles.max() < len(self.vertices)):
            raise ValueError("triangle indices must lie in "
                             "[0, len(vertices))")


def revolve(params: DelaunayParams, s_min: float, s_max: float,
            n_meridian: int, n_parallel: int) -> TriangleMesh:
    """Mesh the revolved profile over [s_min, s_max].

    n_meridian sample rows run along the profile (including both ends),
    n_parallel columns around the axis.  Triangles are wound so their
    cross products align with N.
    """
    if n_meridian < 2 or n_parallel < 3:
        raise ValueError("need n_meridian >= 2 and n_parallel >= 3")
    if not s_max > s_min:
        raise ValueError("need s_max > s_min")

    ss = np.linspace(s_min, s_max, n_meridian)
    # x'' and z'', which a mesh does not use, overflow at huge H
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        prof = profile(params, ss)

    return TriangleMesh(vertices=_rings(prof.x, prof.z, n_parallel),
                        normals=_rings(-prof.dz, prof.dx, n_parallel),
                        triangles=_ring_strips(n_meridian, n_parallel))


def _rings(radius: np.ndarray, height: np.ndarray, n: int) -> np.ndarray:
    """Ring i of n points at angles 2 pi j / n, radius[i] from the z axis
    and at height[i]; point (i, j) is row i * n + j."""
    theta = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack((np.outer(radius, np.cos(theta)).ravel(),
                            np.outer(radius, np.sin(theta)).ravel(),
                            np.repeat(height, n)))


def _ring_strips(n_rings: int, n_per_ring: int, first: int = 0) -> np.ndarray:
    """Two triangles per quad between consecutive rings of vertices.

    Ring i holds vertices first + i * n_per_ring + j, j wrapping around;
    the quad a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1)
    becomes (a, b, c) and (a, c, d).
    """
    j = np.arange(n_per_ring, dtype=np.int64)
    ring = first + n_per_ring * np.arange(n_rings - 1, dtype=np.int64)[:, None]
    a = ring + j
    d = ring + (j + 1) % n_per_ring
    b = a + n_per_ring
    c = d + n_per_ring
    return np.stack((a, b, c, a, c, d), axis=-1).reshape(-1, 3)


def sphere(radius: float, n_lat: int = 32, n_lon: int = 64) -> TriangleMesh:
    """Latitude-longitude sphere mesh centred at the origin."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if n_lat < 2 or n_lon < 3:
        raise ValueError("need n_lat >= 2 and n_lon >= 3")

    phi = math.pi * np.arange(1, n_lat) / n_lat
    rings = _rings(radius * np.sin(phi), radius * np.cos(phi), n_lon)
    vertices = np.vstack(([0.0, 0.0, radius], rings, [0.0, 0.0, -radius]))
    normals = vertices / radius

    # rings 1 .. n_lat - 1 start at vertex 1; the poles close them
    j = np.arange(n_lon, dtype=np.int64)
    j1 = (j + 1) % n_lon
    last = 1 + (n_lat - 2) * n_lon
    bottom = len(vertices) - 1
    top_cap = np.stack((np.zeros_like(j), 1 + j, 1 + j1), axis=-1)
    bottom_cap = np.stack((np.full_like(j, bottom), last + j1, last + j),
                          axis=-1)
    triangles = np.concatenate(
        (top_cap, _ring_strips(n_lat - 1, n_lon, first=1), bottom_cap))
    return TriangleMesh(vertices=vertices, normals=normals,
                        triangles=triangles)


def _write_scene(named: Sequence[tuple[Optional[str], TriangleMesh]],
                 destination: BinaryIO) -> None:
    """Write each object as its o line, v, vn and f blocks, in order.

    Each block goes to the sink as soon as it is formatted, so no
    whole-file string is built.  Face records gather the " i//i" text of
    each vertex index, with the scene offset applied, three to a row of
    one row-major (faces, 3 w + 2) ``text_rows`` block that starts each
    row with "f" and ends it with a newline; its sparse NULs go in one
    ``replace``.
    """
    offset = 0
    for name, mesh in named:
        if name is not None:
            destination.write(f"o {name}\n".encode("ascii"))
        for tag, rows in ((b"v ", mesh.vertices), (b"vn ", mesh.normals)):
            x, y, z = (format_g(column, 9) for column in rows.T)
            destination.write(lines([tag, x, b" ", y, b" ", z, b"\n"]))
        n = len(mesh.vertices)
        index = format_int(np.arange(offset + 1, offset + n + 1))
        # one " i//i" row per vertex, gathered three to a face straight
        # into the row-major f block
        token = join([b" ", index, b"//", index])
        m, w = len(mesh.triangles), token.shape[1]
        text, face = text_rows(m, 3 * w + 2)
        face[:, 0] = ord("f")
        face[:, -1] = ord("\n")
        token.take(mesh.triangles, axis=0,
                   out=face[:, 1:-1].reshape(m, 3, w))
        destination.write(text.replace(b"\0", b""))
        offset += n


def export_obj(mesh: TriangleMesh, destination: BinaryIO) -> None:
    """Write one mesh to a binary sink as ASCII OBJ."""
    _write_scene([(None, mesh)], destination)


def export_obj_scene(named: Sequence[tuple[Optional[str], TriangleMesh]],
                     destination: BinaryIO) -> None:
    """Write several named meshes to one OBJ, with shared index space."""
    _write_scene(named, destination)

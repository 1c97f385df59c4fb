import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksolve.mesh import build_unit_square, build_unit_cube
from blocksolve.spaces import build_space


def _check_markers(mesh):
    """Marker 2 a + 1 names the plane {x_a = 0} and 2 a + 2 names {x_a = 1}:
    the P1 dofs on each marker sit exactly on the vertices of its plane."""
    V = build_space(mesh, 1)
    per_side = round(mesh.num_vertices ** (1 / mesh.dim))
    for marker in range(1, 2 * mesh.dim + 1):
        axis, value = divmod(marker - 1, 2)
        assert mesh.facet_marker_plane(marker) == (axis, float(value))
        on = mesh.vertices[mesh.vertices[:, axis] == value]
        assert len(on) == per_side ** (mesh.dim - 1)
        got = V.scalar_dof_coords[V.boundary_scalar_dofs((marker,))]
        assert len(got) == len(on)
        assert set(map(tuple, got)) == set(map(tuple, on))


def _volumes(mesh):
    """Cell volumes from the affine geometry: detJ / dim!."""
    return mesh.geometry.detJ / math.factorial(mesh.dim)


class TestUnitSquare:
    def test_counts(self):
        mesh = build_unit_square(4)
        assert mesh.num_vertices == 25
        assert mesh.num_cells == 32

    def test_volumes_sum_to_one(self):
        mesh = build_unit_square(3)
        vols = _volumes(mesh)
        assert np.all(vols > 0)
        assert np.isclose(vols.sum(), 1.0, atol=1e-14)

    def test_boundary_markers(self):
        _check_markers(build_unit_square(3))


class TestUnitCube:
    def test_counts(self):
        mesh = build_unit_cube(2)
        assert mesh.num_vertices == 27
        assert mesh.num_cells == 48

    def test_volumes(self):
        mesh = build_unit_cube(2)
        vols = _volumes(mesh)
        assert np.all(vols > 0)
        assert np.isclose(vols.sum(), 1.0, atol=1e-14)

    def test_markers(self):
        _check_markers(build_unit_cube(2))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=8))
def test_square_invariants(n):
    mesh = build_unit_square(n)
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_cells == 2 * n * n
    assert np.isclose(_volumes(mesh).sum(), 1.0)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=3))
def test_cube_invariants(n):
    mesh = build_unit_cube(n)
    assert mesh.num_vertices == (n + 1) ** 3
    assert mesh.num_cells == 6 * n ** 3
    assert np.isclose(_volumes(mesh).sum(), 1.0)


def test_export_text_counts():
    mesh = build_unit_square(2)
    lines = mesh.export_text().splitlines()
    assert lines[0] == "dim 2"
    assert lines[1] == f"vertices {mesh.num_vertices}"
    assert f"cells {mesh.num_cells}" in lines
    # vertex lines parse back exactly
    first = np.array([float(t) for t in lines[2].split()])
    assert np.array_equal(first, mesh.vertices[0])


def test_meshes_compare_by_identity():
    a, b = build_unit_square(2), build_unit_square(2)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def _loop_square(n):
    """build_unit_square's vertices and cells by per-square Python loops:
    the reference."""
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([(x, y) for y in xs for x in xs])

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            # diagonal v00 -- v11
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    return verts, np.array(cells, dtype=np.int64)


def _loop_cube(n):
    """build_unit_cube's vertices and cells by per-tet Python loops with
    one determinant per tet: the reference."""
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([(x, y, z) for z in xs for y in xs for x in xs])

    def vid(i, j, k):
        return (k * (n + 1) + j) * (n + 1) + i

    cells = []
    for k, j, i in itertools.product(range(n), repeat=3):
        corner = np.array((i, j, k))
        for perm in itertools.permutations(range(3)):
            path = [corner.copy()]
            for axis in perm:
                nxt = path[-1].copy()
                nxt[axis] += 1
                path.append(nxt)
            tet = [vid(*p) for p in path]
            e = verts[tet[1:]] - verts[tet[0]]
            if np.linalg.det(e) < 0:
                tet[2], tet[3] = tet[3], tet[2]
            cells.append(tuple(tet))
    return verts, np.array(cells, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16])
def test_meshes_match_loop_construction(n):
    cases = [(build_unit_square(n), _loop_square(n))]
    if n <= 4:
        cases.append((build_unit_cube(n), _loop_cube(n)))
    for mesh, (verts, cells) in cases:
        for got, expect in ((mesh.vertices, verts), (mesh.cells, cells)):
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()

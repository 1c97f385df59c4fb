import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksolve.mesh import build_unit_square, build_unit_cube, vertex_patch


class TestUnitSquare:
    def test_counts(self):
        mesh = build_unit_square(4)
        assert mesh.num_vertices == 25
        assert mesh.num_cells == 32
        assert len(mesh.boundary_facets) == 16

    def test_volumes_sum_to_one(self):
        mesh = build_unit_square(3)
        vols = mesh.cell_volumes()
        assert np.all(vols > 0)
        assert np.isclose(vols.sum(), 1.0, atol=1e-14)

    def test_boundary_markers(self):
        mesh = build_unit_square(2)
        assert set(mesh.markers()) == {1, 2, 3, 4}
        # marker 1 is x=0, marker 2 is x=1, markers 3/4 are y=0/y=1
        for marker in (1, 2, 3, 4):
            axis, value = mesh.facet_marker_plane(marker)
            for facet, m in mesh.boundary_facets:
                if m == marker:
                    assert np.allclose(mesh.vertices[list(facet)][:, axis],
                                       value)

    def test_center_vertex_patch(self):
        mesh = build_unit_square(2)
        center = np.argmin(np.sum((mesh.vertices - 0.5) ** 2, axis=1))
        cells = vertex_patch(mesh, int(center))
        assert len(cells) == 6

    def test_patch_out_of_range(self):
        mesh = build_unit_square(2)
        with pytest.raises(IndexError):
            vertex_patch(mesh, mesh.num_vertices)


class TestUnitCube:
    def test_counts(self):
        mesh = build_unit_cube(2)
        assert mesh.num_vertices == 27
        assert mesh.num_cells == 48
        assert len(mesh.boundary_facets) == 48

    def test_volumes(self):
        mesh = build_unit_cube(2)
        vols = mesh.cell_volumes()
        assert np.all(vols > 0)
        assert np.isclose(vols.sum(), 1.0, atol=1e-14)

    def test_markers(self):
        mesh = build_unit_cube(2)
        assert set(mesh.markers()) == {1, 2, 3, 4, 5, 6}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=8))
def test_square_invariants(n):
    mesh = build_unit_square(n)
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_cells == 2 * n * n
    assert len(mesh.boundary_facets) == 4 * n
    assert np.isclose(mesh.cell_volumes().sum(), 1.0)
    # every cell appears in the patch of each of its vertices
    for ci, cell in enumerate(mesh.cells[:6]):
        for v in cell:
            assert ci in vertex_patch(mesh, int(v))


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=3))
def test_cube_invariants(n):
    mesh = build_unit_cube(n)
    assert mesh.num_vertices == (n + 1) ** 3
    assert mesh.num_cells == 6 * n ** 3
    assert len(mesh.boundary_facets) == 12 * n * n
    assert np.isclose(mesh.cell_volumes().sum(), 1.0)


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


def _loop_cube(n):
    """build_unit_cube's vertices, cells, facets and vertex -> cells map by
    per-tet and per-cell Python loops with one determinant per tet: the
    reference."""
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
    cells = np.array(cells, dtype=np.int64)

    facets = []
    for axis in range(3):
        rest = [ax for ax in range(3) if ax != axis]
        for side, plane in ((0, 1), (n, 2)):
            for a, b in itertools.product(range(n), repeat=2):
                def fvid(da, db):
                    idx = [0, 0, 0]
                    idx[axis] = side
                    idx[rest[0]] = a + da
                    idx[rest[1]] = b + db
                    return vid(*idx)

                v00, v10, v01, v11 = (fvid(0, 0), fvid(1, 0), fvid(0, 1),
                                      fvid(1, 1))
                facets.append(((v00, v10, v11), 2 * axis + plane))
                facets.append(((v00, v11, v01), 2 * axis + plane))

    return verts, cells, tuple(facets), _loop_adjacency(len(verts), cells)


def _loop_adjacency(nverts, cells):
    adj = [[] for _ in range(nverts)]
    for ci, cell in enumerate(cells):
        for v in cell:
            adj[v].append(ci)
    return tuple(tuple(sorted(a)) for a in adj)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_meshes_match_loop_construction(n):
    mesh = build_unit_cube(n)
    verts, cells, facets, adj = _loop_cube(n)
    for got, expect in ((mesh.vertices, verts), (mesh.cells, cells)):
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()
    assert mesh.boundary_facets == facets
    assert mesh.vertex_to_cells == adj
    square = build_unit_square(n)
    assert square.vertex_to_cells == _loop_adjacency(square.num_vertices,
                                                     square.cells)

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

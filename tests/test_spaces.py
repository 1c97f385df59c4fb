import tracemalloc

import numpy as np
import pytest

from blocksolve.mesh import Mesh, build_unit_square, build_unit_cube
from blocksolve.spaces import (build_space, taylor_hood, MixedSpace,
                               DirichletBC, interpolate, _rank_codes)


class TestScalarSpace:
    def test_p1_dofs_are_vertices(self):
        mesh = build_unit_square(3)
        V = build_space(mesh, 1)
        assert V.num_dofs == mesh.num_vertices

    def test_p2_dof_count(self):
        # vertices + edges on an n=2 square: 9 + 16 = 25
        mesh = build_unit_square(2)
        V = build_space(mesh, 2)
        assert V.num_dofs == 25

    def test_dof_count_formula(self):
        # P_k on a structured n x n triangulation of the square has
        # (k n + 1)^2 dofs
        for n in (2, 3):
            for k in (1, 2, 3, 4):
                V = build_space(build_unit_square(n), k)
                assert V.num_dofs == (k * n + 1) ** 2

    def test_shared_dofs_coincide(self):
        mesh = build_unit_square(2)
        V = build_space(mesh, 3)
        # coordinates of equal dof ids must agree across cells
        for ci, dofs in enumerate(V.cell_scalar_dofs):
            coords = V.scalar_dof_coords[dofs]
            assert len(np.unique(dofs)) == len(dofs)
            assert coords.shape == (V.element.nnodes, 2)

    def test_boundary_dofs(self):
        mesh = build_unit_square(2)
        V = build_space(mesh, 2)
        left = V.boundary_scalar_dofs([1])
        assert np.allclose(V.scalar_dof_coords[left][:, 0], 0.0)
        assert len(left) == 5  # 2*2+1 nodes on one edge
        with pytest.raises(ValueError):
            V.boundary_scalar_dofs([7])


class TestVectorAndMixed:
    def test_interleaving(self):
        mesh = build_unit_square(2)
        V = build_space(mesh, 1, ncomp=2)
        assert V.num_dofs == 2 * mesh.num_vertices
        # components of one node are adjacent
        assert V.cell_dofs[0, 1] == V.cell_dofs[0, 0] + 1

    def test_taylor_hood_counts(self):
        mesh = build_unit_square(2)
        W = taylor_hood(mesh)
        assert W.fields[0].num_dofs == 50
        assert W.fields[1].num_dofs == 9
        assert W.num_dofs == 59
        assert np.array_equal(W.offsets, [0, 50, 59])

    def test_field_index_sets_partition(self):
        mesh = build_unit_square(2)
        W = taylor_hood(mesh)
        all_idx = np.concatenate([W.field_index_set(i)
                                  for i in range(W.num_fields)])
        assert np.array_equal(all_idx, np.arange(W.num_dofs))

    def test_split_round_trip(self):
        mesh = build_unit_square(2)
        W = taylor_hood(mesh)
        x = np.arange(W.num_dofs, dtype=float)
        parts = [x[W.field_slice(i)] for i in range(W.num_fields)]
        assert np.array_equal(np.concatenate(parts), x)

    def test_mixed_requires_common_mesh(self):
        V1 = build_space(build_unit_square(2), 1)
        V2 = build_space(build_unit_square(3), 1)
        with pytest.raises(ValueError):
            MixedSpace([V1, V2])


class TestDirichletBC:
    def test_constant_value(self):
        mesh = build_unit_square(2)
        V = build_space(mesh, 1)
        bc = DirichletBC(V, (1, 2, 3, 4), value=3.5)
        assert np.all(bc.values == 3.5)
        assert len(bc.dofs) == 8  # boundary vertices of the n=2 square

    def test_callable_value(self):
        mesh = build_unit_square(2)
        V = build_space(mesh, 1)
        bc = DirichletBC(V, (4,), value=lambda x: x[0])
        coords = V.scalar_dof_coords[bc.dofs]
        assert np.allclose(bc.values, coords[:, 0])

    def test_vector_value(self):
        mesh = build_unit_square(2)
        V = build_space(mesh, 2, ncomp=2)
        bc = DirichletBC(V, (3,), value=[1.0, 2.0])
        assert np.allclose(bc.values[::2], 1.0)
        assert np.allclose(bc.values[1::2], 2.0)

    def test_dofs_sorted(self):
        mesh = build_unit_square(3)
        V = build_space(mesh, 2)
        bc = DirichletBC(V, (1, 3))
        assert np.all(np.diff(bc.dofs) > 0)


def _loop_numbering(mesh, element):
    """Dof numbering and coordinates as a per-cell dictionary loop finds
    them: the reference for the array version."""
    key_to_sdof, coords = {}, []
    cell_sdofs = np.empty((mesh.num_cells, element.nnodes), dtype=np.int64)
    for ci, cell in enumerate(mesh.cells):
        cell_verts = mesh.vertices[cell]
        for ln, multi in enumerate(element.node_multiindex):
            support = [a for a in range(len(multi)) if multi[a] > 0]
            gverts = [int(cell[a]) for a in support]
            order = np.argsort(gverts)
            key = (tuple(gverts[i] for i in order),
                   tuple(multi[support[i]] for i in order))
            sdof = key_to_sdof.get(key)
            if sdof is None:
                sdof = key_to_sdof[key] = len(key_to_sdof)
                coords.append(sum(multi[a] / element.degree * cell_verts[a]
                                  for a in range(len(multi))))
            cell_sdofs[ci, ln] = sdof
    return cell_sdofs, np.array(coords)


def _assert_numbering_matches_loop(mesh, degree):
    dim = mesh.dim
    for ncomp in (1, dim):
        V = build_space(mesh, degree, ncomp=ncomp)
        cell_sdofs, coords = _loop_numbering(mesh, V.element)
        assert np.array_equal(V.cell_scalar_dofs, cell_sdofs)
        assert np.array_equal(V.scalar_dof_coords, coords)
        assert V.num_dofs == ncomp * len(coords)
        assert np.array_equal(V.cell_dofs.reshape(mesh.num_cells, -1, ncomp),
                              cell_sdofs[:, :, None] * ncomp
                              + np.arange(ncomp))


def _relabelled(mesh, rng):
    """The mesh with its vertex ids randomly permuted, its cells shuffled
    and each cell's vertex list rotated by a random amount."""
    perm = rng.permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    cells = perm[mesh.cells][rng.permutation(mesh.num_cells)]
    shift = rng.integers(mesh.dim + 1, size=(len(cells), 1))
    cells = np.take_along_axis(
        cells, (np.arange(mesh.dim + 1) + shift) % (mesh.dim + 1), axis=1)
    return Mesh(mesh.dim, vertices, cells)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_numbering_matches_cell_loop(dim, degree):
    mesh = build_unit_square(3) if dim == 2 else build_unit_cube(2)
    _assert_numbering_matches_loop(mesh, degree)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_numbering_matches_cell_loop_relabelled(dim, degree):
    # unstructured ids: the grid's vertex order is not what makes the
    # array numbering agree with the loop
    mesh = build_unit_square(3) if dim == 2 else build_unit_cube(2)
    rng = np.random.default_rng(10 * dim + degree)
    for _ in range(3):
        _assert_numbering_matches_loop(_relabelled(mesh, rng), degree)


@pytest.mark.parametrize("dim", [2, 3])
def test_numbering_memory_independent_of_vertex_count(dim):
    # a small mesh's cells shifted to the top of 2**24 + 8 vertices, held
    # as one broadcast row: the numbering must not allocate per vertex
    small = build_unit_square(2) if dim == 2 else build_unit_cube(2)
    nv = 2 ** 24 + 8
    big = Mesh(dim, np.broadcast_to(small.vertices[:1], (nv, dim)),
               small.cells + (nv - small.num_vertices))
    tracemalloc.start()
    try:
        V = build_space(big, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(V.cell_scalar_dofs,
                          build_space(small, 4).cell_scalar_dofs)
    # less than a byte per vertex; an int64 table per vertex is 128 MB
    assert peak < nv


def test_entity_codes_raise_instead_of_wrapping():
    # the largest code that fits, 2**63 - 1, is ranked; one past raises
    ranks, count = _rank_codes(np.array([[2 ** 32 - 1, 0]]),
                               np.array([[2 ** 31 - 1, 5]]), 2 ** 31)
    assert np.array_equal(ranks, [[1, 0]]) and count == 2
    with pytest.raises(ValueError, match="does not fit an int64"):
        _rank_codes(np.array([[2 ** 32]]), np.array([[0]]), 2 ** 31)


@pytest.mark.parametrize("ncomp, value", [
    (1, 1.5), (2, 1.5), (2, [1.0, -2.0]),
    (1, lambda x: x[0] - x[1]), (2, lambda x: [x[0], x[1] ** 2])])
def test_nodal_values_match_per_node_loop(ncomp, value):
    # constants are broadcast, callables called once on all nodes; both
    # must give what assigning value or value(x) node by node gives
    V = build_space(build_unit_square(3), 2, ncomp=ncomp)
    expect = np.empty((V.num_scalar_dofs, ncomp))
    for s, x in enumerate(V.scalar_dof_coords):
        expect[s] = value(x) if callable(value) else value
    assert np.array_equal(interpolate(V, value), expect.ravel())
    bc = DirichletBC(V, (1, 4), value=value)
    sdofs = V.boundary_scalar_dofs((1, 4))
    assert np.array_equal(bc.dofs,
                          (sdofs[:, None] * ncomp + np.arange(ncomp)).ravel())
    assert np.array_equal(bc.values, expect[sdofs].ravel())


def test_interpolate():
    mesh = build_unit_square(4)
    V = build_space(mesh, 2)
    x = interpolate(V, lambda p: p[0] + 2 * p[1])
    assert np.allclose(x, V.scalar_dof_coords[:, 0]
                       + 2 * V.scalar_dof_coords[:, 1])


def test_cube_space():
    mesh = build_unit_cube(2)
    V = build_space(mesh, 2)
    assert V.num_dofs == (2 * 2 + 1) ** 3


def test_nodal_callable_called_once():
    V = build_space(build_unit_square(3), 2, ncomp=2)
    calls = []

    def value(x):
        calls.append(x.shape)
        return [x[0], x[1] ** 2]

    interpolate(V, value)
    DirichletBC(V, (1, 4), value=value)
    assert calls == [(2, V.num_scalar_dofs),
                     (2, len(V.boundary_scalar_dofs((1, 4))))]


@pytest.mark.parametrize("ncomp, value", [
    (1, lambda x: 1.0 if x[0] > 0.5 else 0.0),      # a Python branch
    (1, lambda x: float(np.sum(x[0]))),              # 0-d result
    (2, lambda x: [1.0, 0.0]),                       # constants per call
    (2, lambda x: x[0]),                             # one component of two
])
def test_nodal_callables_off_the_convention_raise(ncomp, value):
    V = build_space(build_unit_square(3), 2, ncomp=ncomp)
    with pytest.raises(ValueError, match=r"x of shape \(dim, \.\.\.\)|"
                                         r"2 components"):
        interpolate(V, value)
    with pytest.raises(ValueError, match=r"x of shape \(dim, \.\.\.\)|"
                                         r"2 components"):
        DirichletBC(V, (1,), value=value)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("vector", [False, True])
def test_dirichlet_dofs_are_the_boundary_dofs(dim, vector):
    # one expansion of boundary nodes into component dofs serves both, and
    # it ascends without a sort; each value belongs to its own dof
    mesh = build_unit_square(3) if dim == 2 else build_unit_cube(2)
    ncomp = dim if vector else 1
    V = build_space(mesh, 2, ncomp=ncomp)
    markers = (1, 2 * dim)

    def value(x):
        comps = [x[0] + 10.0 * c * x[-1] + c for c in range(ncomp)]
        return comps if vector else comps[0]

    bc = DirichletBC(V, markers, value=value)
    nodes = V.boundary_scalar_dofs(markers)
    assert np.array_equal(bc.dofs, (nodes[:, None] * ncomp
                                    + np.arange(ncomp)).ravel())
    assert len(bc.dofs) and np.all(np.diff(bc.dofs) > 0)
    s, c = np.divmod(bc.dofs, ncomp)
    x = V.scalar_dof_coords[s]
    assert np.allclose(bc.values, x[:, 0] + 10.0 * c * x[:, -1] + c)

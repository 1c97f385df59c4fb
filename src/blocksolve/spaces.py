"""Global function spaces, mixed spaces, and Dirichlet boundary conditions.

Scalar dofs are numbered with array operations over all (cell, node)
pairs at once: each pair gets an entity key (the sorted vertices of the
mesh entity the node sits on plus its position along it), so dofs shared
between adjacent cells coincide, and the distinct keys are numbered in
order of first appearance, cell by cell.  A key is 5(dim+1) packed bytes,
int32 vertex ids and uint8 multi-index entries (9(dim+1) bytes on a mesh
of 2**31 vertices or more), and keys are grouped by a byte-wise sort.
Vector spaces interleave components per node.  Mixed spaces concatenate
their fields, so every field owns one contiguous index range.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .elements import lagrange_element
from .mesh import call_on_points

__all__ = ["FunctionSpace", "MixedSpace", "DirichletBC", "collect_bc_dofs",
           "collect_bc_values", "build_space", "taylor_hood", "interpolate"]

_PLANE_TOL = 1e-12


class FunctionSpace:
    def __init__(self, mesh, element):
        if element.dim != mesh.dim:
            raise ValueError("element dimension does not match mesh dimension")
        self.mesh = mesh
        self.element = element

        cells = mesh.cells
        multi = np.array(element.node_multiindex)        # (nn, dim+1)
        ncells, nn = mesh.num_cells, element.nnodes
        # entity key of every (cell, node): the global ids of the vertices
        # the node's multi-index is nonzero on, sorted, then those entries
        # in the same order; vertices off the support sort first as -1.  A
        # key packs its ids as int32 (int64 on a mesh of 2**31 vertices or
        # more) and its entries as uint8, byte after byte
        vtype = (np.int32 if mesh.num_vertices <= np.iinfo(np.int32).max
                 else np.int64)
        gverts = np.where(multi[None] > 0, cells.astype(vtype)[:, None], -1)
        order = np.argsort(gverts, axis=2)
        keys = np.concatenate(
            [np.take_along_axis(gverts, order, axis=2).view(np.uint8),
             np.take_along_axis(np.broadcast_to(multi.astype(np.uint8),
                                                gverts.shape), order, axis=2)],
            axis=2)
        # each key as one opaque item: grouping equal keys needs no
        # lexicographic order, and a byte-wise sort is several times faster
        rows = keys.view(np.dtype((np.void, keys.shape[2])))
        _, first, inverse = np.unique(rows.ravel(), return_index=True,
                                      return_inverse=True)
        # number entities in order of first appearance, cell by cell
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        cell_sdofs = rank[inverse].reshape(ncells, nn)

        # coordinates from the first (cell, node) of each entity
        firsts = np.sort(first)
        weights = multi[firsts % nn] / element.degree   # (nsdofs, dim+1)
        verts = mesh.vertices[cells[firsts // nn]]      # (nsdofs, dim+1, dim)

        self.num_scalar_dofs = len(first)
        self.scalar_dof_coords = np.einsum("sa,sad->sd", weights, verts)
        self.cell_scalar_dofs = cell_sdofs

        nc = element.ncomp
        # cell-local layout: node-major, components fastest
        self.cell_dofs = (cell_sdofs[:, :, None] * nc
                          + np.arange(nc)[None, None, :]).reshape(mesh.num_cells, -1)
        self.num_dofs = self.num_scalar_dofs * nc

    @property
    def ncomp(self):
        return self.element.ncomp

    def boundary_scalar_dofs(self, markers):
        on = np.zeros(self.num_scalar_dofs, dtype=bool)
        for m in markers:
            if not 1 <= m <= 2 * self.mesh.dim:
                raise ValueError(f"invalid boundary marker {m}")
            axis, value = self.mesh.facet_marker_plane(m)
            on |= np.abs(self.scalar_dof_coords[:, axis] - value) <= _PLANE_TOL
        return np.nonzero(on)[0]

    def boundary_dofs(self, markers):
        """Sorted global dofs (all components) whose nodes lie on the
        facets carrying the given markers."""
        sdofs = self.boundary_scalar_dofs(markers)
        nc = self.ncomp
        dofs = (sdofs[:, None] * nc + np.arange(nc)[None, :]).ravel()
        return np.sort(dofs)


class MixedSpace:
    """Ordered collection of function spaces with field-major dof layout."""

    def __init__(self, fields):
        fields = tuple(fields)
        if not fields:
            raise ValueError("mixed space needs at least one field")
        mesh = fields[0].mesh
        if any(f.mesh is not mesh for f in fields):
            raise ValueError("all fields must share one mesh")
        self.mesh = mesh
        self.fields = fields
        sizes = [f.num_dofs for f in fields]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.num_dofs = int(self.offsets[-1])

    @property
    def num_fields(self):
        return len(self.fields)

    def field_index_set(self, i):
        return np.arange(self.offsets[i], self.offsets[i + 1], dtype=np.int64)

    def field_slice(self, i):
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def split(self, x):
        return [x[self.field_slice(i)] for i in range(self.num_fields)]


def build_space(mesh, degree, ncomp=1):
    return FunctionSpace(mesh, lagrange_element(mesh.dim, degree, ncomp))


def taylor_hood(mesh, degree=2):
    """Vector P(k) velocity with P(k-1) pressure."""
    V = build_space(mesh, degree, ncomp=mesh.dim)
    W = build_space(mesh, degree - 1)
    return MixedSpace([V, W])


@dataclass
class DirichletBC:
    """Dirichlet data on a set of boundary markers.

    `value` is a constant, a sequence of per-component constants, or a
    callable of the node coordinates, called once on all boundary nodes
    with x of shape (dim, nnodes) and returning (nnodes,) for a scalar
    space or (ncomp, nnodes) for a vector one (`mesh.call_on_points`).
    `field` names the field when the BC lives inside a mixed space.
    """

    space: FunctionSpace
    markers: tuple
    value: object = 0.0
    field: int = 0
    dofs: np.ndarray = dc_field(init=False, repr=False)
    values: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        self.markers = tuple(self.markers)
        sdofs = self.space.boundary_scalar_dofs(self.markers)
        nc = self.space.ncomp
        self.dofs = (sdofs[:, None] * nc + np.arange(nc)[None, :]).ravel()
        self.values = _nodal_values(self.space.scalar_dof_coords[sdofs],
                                    self.value, nc).ravel()
        order = np.argsort(self.dofs)
        self.dofs = self.dofs[order]
        self.values = self.values[order]


def collect_bc_dofs(mixed, bcs):
    """Global Dirichlet dofs of a list of DirichletBCs within a mixed space,
    sorted and unique."""
    return np.unique(collect_bc_values(mixed, bcs)[0])


def collect_bc_values(mixed, bcs):
    """(dofs, values) with mixed-space offsets applied."""
    dofs, vals = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for bc in bcs:
        dofs.append(bc.dofs + mixed.offsets[bc.field])
        vals.append(bc.values)
    d = np.concatenate(dofs)
    v = np.concatenate(vals)
    order = np.argsort(d)
    return d[order], v[order]


def _nodal_values(coords, value, ncomp):
    """(len(coords), ncomp) values at the nodes: a constant or per-component
    constant broadcast, or a callable called once on all nodes, with x =
    coords.T of shape (dim, nnodes), returning (nnodes,) if ncomp is 1 and
    (ncomp, nnodes) otherwise."""
    shape = (len(coords), ncomp)
    if not callable(value):
        return np.broadcast_to(np.asarray(value, dtype=float), shape).copy()
    out = call_on_points(value, coords)
    if out.size != len(coords) * ncomp:
        raise ValueError(f"{value!r} returned {out.shape[1:] or 'a scalar'} "
                         f"per node, but the space has {ncomp} components")
    return out.reshape(shape)


def interpolate(space, fn):
    """Nodal interpolation of fn(x), or of a constant, into the space.  A
    callable fn takes x of shape (dim, nnodes) and returns (nnodes,) or
    (ncomp, nnodes), as for `DirichletBC`."""
    return _nodal_values(space.scalar_dof_coords, fn, space.ncomp).ravel()

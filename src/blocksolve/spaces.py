"""Global function spaces, mixed spaces, and Dirichlet boundary conditions.

Scalar dofs are numbered with array operations over all cells at once.
Each cell's vertex ids are sorted once; a node sits on the mesh entity
(vertex, edge, face or interior) spanned by the vertices its multi-index
is nonzero on, and its integer key is that entity's rank plus its local
index there, so dofs shared between adjacent cells coincide.  Entities
are ranked by int64 codes of their sorted vertices, and keys are numbered
in order of first appearance, cell by cell.  Vector spaces interleave
components per node.  Mixed spaces concatenate their fields, so every
field owns one contiguous index range.
"""

from __future__ import annotations

import itertools
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
        nn = element.nnodes
        keys, nkeys = _node_keys(cells, multi, element.degree)
        # number the keys in order of first appearance, cell by cell
        first = np.full(nkeys, keys.size)
        np.minimum.at(first, keys.ravel(), np.arange(keys.size))
        order = np.argsort(first)
        rank = np.empty(nkeys, dtype=np.int64)
        rank[order] = np.arange(nkeys)
        cell_sdofs = rank[keys]

        # coordinates from the first (cell, node) of each entity
        firsts = first[order]
        weights = multi[firsts % nn] / element.degree   # (nsdofs, dim+1)
        verts = mesh.vertices[cells[firsts // nn]]      # (nsdofs, dim+1, dim)

        self.num_scalar_dofs = nkeys
        self.scalar_dof_coords = np.einsum("sa,sad->sd", weights, verts)
        self.cell_scalar_dofs = cell_sdofs

        # cell-local layout: node-major, components fastest
        self.cell_dofs = _component_dofs(cell_sdofs, element.ncomp)
        self.num_dofs = self.num_scalar_dofs * element.ncomp

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


def _component_dofs(sdofs, ncomp):
    """The dofs (..., n * ncomp) of all components at the scalar dofs sdofs
    (..., n), node-major: ascending where sdofs ascend."""
    dofs = sdofs[..., None] * ncomp + np.arange(ncomp)
    return dofs.reshape(*sdofs.shape[:-1], -1)


def _node_keys(cells, multi, degree):
    """(keys, nkeys): the key in range(nkeys) of every (cell, node), equal
    exactly where two (cell, node) pairs are one dof, from the cells'
    vertex ids and the nodes' barycentric multi-indices.

    A node sits on the entity spanned by the vertices its multi-index is
    nonzero on, at a local index given by those entries in sorted-vertex
    order.  Vertex ids are compressed to the ones the cells use, so no
    array is sized by the mesh's vertex count.  A vertex is ranked by its
    compressed id; an entity of k > 1 vertices by the code (rank of its
    first k-1 sorted vertices) * nv + its last vertex.  Keys run through
    the entities k by k, each entity's nodes consecutive; all are used."""
    nverts = cells.shape[1]                              # dim+1
    used, cverts = np.unique(cells, return_inverse=True)
    cverts, nv = cverts.reshape(cells.shape), len(used)
    order = np.argsort(cverts, axis=1)
    svert = np.take_along_axis(cverts, order, axis=1)
    # rank of the entity on each set of positions in a cell's sorted
    # vertices; entities of more vertices than the degree carry no node
    erank = {(a,): svert[:, a] for a in range(nverts)}
    ecount = {1: nv}
    for k in range(2, min(degree, nverts) + 1):
        sets = list(itertools.combinations(range(nverts), k))
        ranks, ecount[k] = _rank_codes(
            np.stack([erank[s[:-1]] for s in sets], axis=1),
            svert[:, [s[-1] for s in sets]], nv)
        erank.update(zip(sets, ranks.T))

    # each node's entity (the positions its entries in sorted-vertex order
    # are nonzero at) and local index, looked up by those entries as a
    # base-(degree+1) code; the element's multi-indices are every such
    # entry vector, so they fill the table
    digits = (degree + 1) ** np.arange(nverts)
    cols, locs = np.zeros((2, (degree + 1) ** nverts), dtype=np.int64)
    local, column = {}, {}      # k -> {entries: index}, positions -> column
    for m in multi:
        at = tuple(np.flatnonzero(m))
        entries = local.setdefault(len(at), {})
        locs[m @ digits] = entries.setdefault(tuple(m[list(at)]), len(entries))
        cols[m @ digits] = column.setdefault(at, len(column))
    offset, nkeys = {}, 0
    for k, entries in local.items():
        offset[k], nkeys = nkeys, nkeys + ecount[k] * len(entries)
    ent = np.stack([offset[len(at)] + erank[at] * len(local[len(at)])
                    for at in column], axis=1)   # (ncells, ncolumns)
    # each (cell, node)'s entries in sorted-vertex order, as that code
    node_code = digits[np.argsort(order, axis=1)] @ multi.T   # (ncells, nn)
    keys = np.take_along_axis(ent, cols[node_code], axis=1) + locs[node_code]
    return keys, nkeys


def _rank_codes(major, minor, n):
    """(ranks, count): the rank of each code major * n + minor among the
    distinct codes, and their count; minor < n.  A code that would not fit
    an int64 raises ValueError instead of wrapping."""
    if (int(major.max()) + 1) * n > np.iinfo(np.int64).max + 1:
        raise ValueError(f"entity code {int(major.max())} * {n} + {n - 1} "
                         f"does not fit an int64")
    uniq, ranks = np.unique(major * n + minor, return_inverse=True)
    return ranks.reshape(major.shape), len(uniq)


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
    `field` names the field when the BC lives inside a mixed space.  Where
    BCs of one problem share dofs, the later BC in the list wins on every
    shared dof (`collect_bc_values`).
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
        self.dofs = _component_dofs(sdofs, self.space.ncomp)
        self.values = _nodal_values(self.space.scalar_dof_coords[sdofs],
                                    self.value, self.space.ncomp).ravel()


def collect_bc_dofs(mixed, bcs):
    """Global Dirichlet dofs of a list of DirichletBCs within a mixed space,
    sorted and unique."""
    return collect_bc_values(mixed, bcs)[0]


def collect_bc_values(mixed, bcs):
    """(dofs, values) with mixed-space offsets applied, the dofs sorted and
    unique.  Where BCs share a dof, the later one in `bcs` gives its
    value."""
    dofs, vals = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for bc in bcs:
        dofs.append(bc.dofs + mixed.offsets[bc.field])
        vals.append(bc.values)
    d = np.concatenate(dofs)
    v = np.concatenate(vals)
    # a stable sort keeps each dof's entries in BC order; keep only the
    # last, as assignment through a repeated index has no defined order
    order = np.argsort(d, kind="stable")
    d, v = d[order], v[order]
    last = np.ones(len(d), dtype=bool)
    last[:-1] = d[1:] != d[:-1]
    return d[last], v[last]


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

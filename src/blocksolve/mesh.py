"""Structured simplicial meshes of the unit square and cube.

A mesh is its vertices and cells and is immutable after construction.
There is no facet list: a boundary marker is a small integer that names a
coordinate plane (`Mesh.facet_marker_plane`), and a space finds its nodes
on a marker by their coordinates:

    2D: 1 = {x=0}, 2 = {x=1}, 3 = {y=0}, 4 = {y=1}
    3D: 1 = {x=0}, 2 = {x=1}, 3 = {y=0}, 4 = {y=1}, 5 = {z=0}, 6 = {z=1}
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh", "CellGeometry", "build_unit_square", "build_unit_cube",
           "call_on_points"]

_CONVENTION = ("callables of the coordinates take x of shape (dim, ...) and "
               "return shape (...) for a scalar or (ncomp, ...) for a vector")


def call_on_points(f, points):
    """f called once on all of `points` (..., dim).  f follows the
    coordinate-first convention: it receives x of shape (dim, ...), so
    x[0] is the first coordinate of every point, and returns shape (...)
    for a scalar or (ncomp, ...) for a vector.  The result has the value
    axis last: (...) or (..., ncomp).  Any other result shape, such as a
    0-d constant, raises ValueError rather than being broadcast."""
    pshape = points.shape[:-1]
    try:
        val = np.asarray(f(np.moveaxis(points, -1, 0)), dtype=float)
    except ValueError as exc:
        # typically a Python `if` on an array of points
        raise ValueError(f"{_CONVENTION}; calling {f!r} failed: {exc}") \
            from exc
    extra = val.ndim - len(pshape)
    if extra not in (0, 1) or val.shape[extra:] != pshape:
        raise ValueError(f"{_CONVENTION}; {f!r} returned shape {val.shape} "
                         f"for points of shape {pshape}")
    return np.moveaxis(val, 0, -1) if extra else val


class CellGeometry:
    """Affine geometry of every cell: Jacobians, inverses, determinants."""

    def __init__(self, mesh):
        verts = mesh.vertices[mesh.cells]
        self.x0 = verts[:, 0, :]
        # J[c, :, e] is the edge vector v_{e+1} - v_0
        self.J = np.transpose(verts[:, 1:, :] - verts[:, :1, :], (0, 2, 1))
        self.detJ = np.linalg.det(self.J)
        if np.any(self.detJ <= 1e-14):
            raise ValueError("degenerate cell in mesh")
        self.Jinv = np.linalg.inv(self.J)

    @functools.cached_property
    def metric(self):
        """Jinv Jinv^T per cell, (ncells, dim, dim): the reference-direction
        form of grad u . grad v."""
        return self.Jinv @ np.swapaxes(self.Jinv, 1, 2)

    def physical_points(self, rule):
        # (ncells, nq, dim)
        return self.x0[:, None, :] + rule.points @ np.swapaxes(self.J, 1, 2)

    def evaluate(self, f, rule):
        """A callable of the coordinates at the points of `rule` in every
        cell, called once on all of them (`call_on_points`): f receives x
        of shape (dim, ncells, nq) and returns (ncells, nq) or (ncomp,
        ncells, nq); the result is (ncells, nq) or (ncells, nq, ncomp)."""
        return call_on_points(f, self.physical_points(rule))


# eq=False: identity semantics; field-wise == over numpy arrays raises
@dataclass(frozen=True, eq=False)
class Mesh:
    dim: int
    vertices: np.ndarray          # (nverts, dim)
    cells: np.ndarray             # (ncells, dim+1) vertex ids, positively oriented

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @functools.cached_property
    def geometry(self):
        """Cell geometry, computed on first use and freed with the mesh."""
        return CellGeometry(self)

    def facet_marker_plane(self, marker):
        """(axis, value) of the coordinate plane a marker refers to."""
        axis = (marker - 1) // 2
        value = float((marker - 1) % 2)
        return axis, value

    def export_text(self):
        """Plain-text dump (vertex list + cell list) for debugging."""
        lines = [f"dim {self.dim}",
                 f"vertices {self.num_vertices}"]
        for v in self.vertices:
            lines.append(" ".join(repr(float(x)) for x in v))
        lines.append(f"cells {self.num_cells}")
        for c in self.cells:
            lines.append(" ".join(str(int(i)) for i in c))
        return "\n".join(lines) + "\n"


def build_unit_square(n):
    """Triangulate [0,1]^2 with an n-by-n grid, each square split along the
    lower-left to upper-right diagonal."""
    return _unit_box(2, n)


def build_unit_cube(n):
    """Tetrahedralise [0,1]^3 with n^3 cubes, each Kuhn-split into 6 tets."""
    return _unit_box(3, n)


def _kuhn_template(dim):
    """The dim! Kuhn simplices of the unit box as corner offsets
    (dim!, dim+1, dim), one per permutation of the axis order along the
    path from the low to the high corner, each oriented positively by
    swapping its last two vertices if needed.  A simplex's orientation
    depends only on its axis permutation, so every box of a grid reuses
    these.  In 2D they are the two triangles on the diagonal from (0, 0)
    to (1, 1)."""
    simplices = []
    for perm in itertools.permutations(range(dim)):
        path = [np.zeros(dim, dtype=np.int64)]
        for axis in perm:
            path.append(path[-1] + np.eye(dim, dtype=np.int64)[axis])
        if np.linalg.det(np.array(path[1:]) - path[0]) < 0:
            path[-2], path[-1] = path[-1], path[-2]
        simplices.append(path)
    return np.array(simplices)


def _unit_box(dim, n):
    """[0,1]^dim split into n^dim boxes, each into its Kuhn simplices."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    # vertex (i, j, k) has id i + (n+1) j + (n+1)^2 k: x varies fastest
    verts = np.stack([g.ravel() for g in
                      np.meshgrid(*[xs] * dim, indexing="ij")[::-1]], axis=1)
    stride = (n + 1) ** np.arange(dim)
    low = np.meshgrid(*[np.arange(n)] * dim, indexing="ij")[::-1]
    corners = (np.stack(low, axis=-1) @ stride).ravel()
    cells = corners[:, None, None] + _kuhn_template(dim) @ stride
    return Mesh(dim, verts, cells.reshape(-1, dim + 1))

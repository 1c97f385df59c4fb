"""Lagrange elements on simplices, degrees 1 through 4.

Nodes sit at equispaced reference points.  Tabulation solves a monomial
Vandermonde system, so no shape functions are hand-coded.  Vector-valued
elements keep the scalar tabulation and interleave components per node at
the function-space level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Element", "lagrange_element", "Tabulation", "tabulate"]

MAX_LAGRANGE_DEGREE = 4


def _monomial_exponents(dim, degree):
    exps = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), total):
            e = [0] * dim
            for ax in combo:
                e[ax] += 1
            exps.append(tuple(e))
    return exps


def _eval_monomials(exps, pts):
    vals = np.ones((len(pts), len(exps)))
    for m, e in enumerate(exps):
        for ax, p in enumerate(e):
            if p:
                vals[:, m] *= pts[:, ax] ** p
    return vals


def _eval_monomial_grads(exps, pts):
    npts, dim = pts.shape
    grads = np.zeros((npts, len(exps), dim))
    for m, e in enumerate(exps):
        for d in range(dim):
            if e[d] == 0:
                continue
            g = np.full(npts, float(e[d]))
            for ax, p in enumerate(e):
                q = p - 1 if ax == d else p
                if q:
                    g *= pts[:, ax] ** q
            grads[:, m, d] = g
    return grads


# eq=False: identity semantics, so an element can key a cache (one per
# (dim, degree, ncomp) from `lagrange_element`)
@dataclass(frozen=True, eq=False)
class Element:
    dim: int
    degree: int
    ncomp: int                      # 1 = scalar, dim = vector
    nodes: np.ndarray               # (nnodes, dim) reference coordinates
    node_multiindex: tuple          # barycentric multi-index of each node
    _coeffs: np.ndarray             # monomial coefficients of the nodal basis

    @property
    def nnodes(self):
        return len(self.nodes)


@dataclass(frozen=True)
class Tabulation:
    values: np.ndarray    # (npts, nnodes)
    gradients: np.ndarray  # (npts, nnodes, dim)


@lru_cache(maxsize=None)
def lagrange_element(dim, degree, ncomp=1):
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    if not 1 <= degree <= MAX_LAGRANGE_DEGREE:
        raise ValueError(f"unsupported Lagrange degree {degree}")
    if ncomp not in (1, dim):
        raise ValueError(f"ncomp must be 1 or {dim}")

    # barycentric multi-indices (a_0, ..., a_dim) summing to the degree;
    # node = sum_i (a_i / k) * reference vertex i, vertex 0 at the origin
    multis = []
    for rest in itertools.product(range(degree + 1), repeat=dim):
        if sum(rest) <= degree:
            multis.append((degree - sum(rest),) + rest)
    multis.sort(reverse=True)  # vertex i comes i-th for degree 1
    nodes = np.array([[a / degree for a in mi[1:]] for mi in multis])

    exps = _monomial_exponents(dim, degree)
    vander = _eval_monomials(exps, nodes)
    coeffs = np.linalg.solve(vander, np.eye(len(multis)))
    elem = Element(dim, degree, ncomp, nodes, tuple(multis), coeffs)
    elem._coeffs.flags.writeable = False
    return elem


def tabulate(element, points):
    """Basis values and reference gradients at the given reference points."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    if points.shape[1] != element.dim:
        raise ValueError("point dimension does not match element dimension")
    exps = _monomial_exponents(element.dim, element.degree)
    values = _eval_monomials(exps, points) @ element._coeffs
    mono_grads = _eval_monomial_grads(exps, points)
    gradients = np.einsum("pmd,mn->pnd", mono_grads, element._coeffs)
    return Tabulation(values, gradients)

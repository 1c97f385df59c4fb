"""Quadrature rules on the reference triangle and tetrahedron.

Rules are generated by collapsing tensor-product Gauss-Legendre points onto
the simplex (Duffy transform), which guarantees exactness for any requested
polynomial degree.  Degree 1 uses the one-point centroid rule.

Each rule is built once per (dim, degree) and shared by every caller; its
arrays are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "make_quadrature"]

MAX_DEGREE = 8


# eq=False: identity semantics, so a rule can key a cache
@dataclass(frozen=True, eq=False)
class QuadratureRule:
    dim: int
    degree: int
    points: np.ndarray   # (npts, dim) reference coordinates
    weights: np.ndarray  # (npts,) positive, summing to the reference volume


def _gauss01(m):
    # Gauss-Legendre on [0,1]
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


@functools.lru_cache(maxsize=None)
def make_quadrature(dim, degree):
    rule = _build_rule(dim, degree)
    rule.points.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _build_rule(dim, degree):
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"unsupported quadrature degree {degree}")

    vol = 1.0 / math.factorial(dim)
    if degree == 1:
        centroid = np.full((1, dim), 1.0 / (dim + 1))
        return QuadratureRule(dim, 1, centroid, np.array([vol]))

    # Gauss-Legendre in u on the unit box, collapsed onto the simplex:
    # x_k = u_k (1 - u_0) ... (1 - u_{k-1}), with the Jacobian
    # (1 - u_0)^(dim-1) (1 - u_1)^(dim-2) ... in the weights
    m = math.ceil((degree + dim) / 2)
    u, wu = _gauss01(m)
    U = np.meshgrid(*[u] * dim, indexing="ij")
    WU = np.meshgrid(*[wu] * dim, indexing="ij")
    w = functools.reduce(np.multiply, WU)
    pts = []
    for k in range(dim):
        x = U[k]
        for j in range(k):
            x = x * (1.0 - U[j])
        pts.append(x.ravel())
        if k < dim - 1:
            w = w * (1.0 - U[k]) ** (dim - 1 - k)
    return QuadratureRule(dim, degree, np.column_stack(pts), w.ravel())

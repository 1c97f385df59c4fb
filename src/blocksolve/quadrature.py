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

    vol = 0.5 if dim == 2 else 1.0 / 6.0
    if degree == 1:
        centroid = np.full((1, dim), 1.0 / (dim + 1))
        return QuadratureRule(dim, 1, centroid, np.array([vol]))

    if dim == 2:
        m = math.ceil((degree + 2) / 2)
        u, wu = _gauss01(m)
        v, wv = _gauss01(m)
        U, V = np.meshgrid(u, v, indexing="ij")
        WU, WV = np.meshgrid(wu, wv, indexing="ij")
        x = U
        y = V * (1.0 - U)
        w = WU * WV * (1.0 - U)
        pts = np.column_stack([x.ravel(), y.ravel()])
        return QuadratureRule(dim, degree, pts, w.ravel())

    m = math.ceil((degree + 3) / 2)
    u, wu = _gauss01(m)
    U, V, W = np.meshgrid(u, u, u, indexing="ij")
    WU, WV, WW = np.meshgrid(wu, wu, wu, indexing="ij")
    x = U
    y = V * (1.0 - U)
    z = W * (1.0 - U) * (1.0 - V)
    w = WU * WV * WW * (1.0 - U) ** 2 * (1.0 - V)
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    return QuadratureRule(dim, degree, pts, w.ravel())

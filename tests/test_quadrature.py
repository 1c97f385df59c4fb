import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksolve.quadrature import make_quadrature, MAX_DEGREE


def simplex_monomial_integral(alpha):
    """Exact integral of prod(x_i^a_i) over the unit simplex:
    prod(a_i!) / (sum(a_i) + d)!"""
    d = len(alpha)
    num = 1.0
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + d)


def test_degree_one_is_centroid_rule():
    rule = make_quadrature(2, 1)
    assert len(rule.weights) == 1
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3])
    assert np.isclose(rule.weights[0], 0.5)


def test_weights_positive_and_sum_to_volume():
    for dim, vol in ((2, 0.5), (3, 1 / 6)):
        for degree in range(1, MAX_DEGREE + 1):
            rule = make_quadrature(dim, degree)
            assert np.all(rule.weights > 0)
            assert np.isclose(rule.weights.sum(), vol, atol=1e-14)


def test_reference_triangle_x2y2():
    # int over reference triangle of x^2 y^2 = 1/180
    rule = make_quadrature(2, 4)
    val = np.sum(rule.weights * rule.points[:, 0] ** 2 *
                 rule.points[:, 1] ** 2)
    assert np.isclose(val, 1.0 / 180.0, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_monomial_exactness(dim, degree):
    rule = make_quadrature(dim, degree)
    for total in range(degree + 1):
        for alpha in _multi_indices(dim, total):
            val = np.sum(rule.weights *
                         np.prod(rule.points ** np.array(alpha), axis=1))
            exact = simplex_monomial_integral(alpha)
            assert abs(val - exact) < 1e-13, (alpha, degree)


def _multi_indices(dim, total):
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(dim - 1, total - head):
            yield (head,) + rest


def test_degree_above_max_rejected():
    with pytest.raises(ValueError):
        make_quadrature(2, MAX_DEGREE + 1)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       degree=st.integers(min_value=1, max_value=MAX_DEGREE))
def test_points_inside_simplex(dim, degree):
    rule = make_quadrature(dim, degree)
    assert np.all(rule.points >= -1e-14)
    assert np.all(rule.points.sum(axis=1) <= 1 + 1e-14)


def test_rules_are_built_once_and_read_only():
    rule = make_quadrature(2, 5)
    assert make_quadrature(2, 5) is rule
    for arr in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0

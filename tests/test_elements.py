import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksolve.elements import lagrange_element, tabulate


def test_p1_triangle_nodes_are_vertices():
    elem = lagrange_element(2, 1)
    assert elem.nnodes == 3
    assert np.allclose(elem.nodes, [[0, 0], [1, 0], [0, 1]])


def test_nodal_property():
    for dim in (2, 3):
        for degree in (1, 2, 3):
            elem = lagrange_element(dim, degree)
            tab = tabulate(elem, elem.nodes)
            assert np.allclose(tab.values, np.eye(elem.nnodes), atol=1e-12)


def test_p2_values_at_centroid():
    # vertex functions take -1/9, edge-midpoint functions 4/9;
    # partition of unity: 3*(-1/9) + 3*(4/9) = 1
    elem = lagrange_element(2, 2)
    centroid = np.array([[1 / 3, 1 / 3]])
    vals = tabulate(elem, centroid).values[0]
    for i, (node, multi) in enumerate(zip(elem.nodes,
                                          elem.node_multiindex)):
        is_vertex = max(multi) == elem.degree
        expected = -1.0 / 9.0 if is_vertex else 4.0 / 9.0
        assert np.isclose(vals[i], expected, atol=1e-13), (i, node)
    assert np.isclose(vals.sum(), 1.0, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       degree=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_partition_of_unity(dim, degree, seed):
    elem = lagrange_element(dim, degree)
    rng = np.random.default_rng(seed)
    # random barycentric points inside the reference simplex
    w = rng.dirichlet(np.ones(dim + 1), size=5)
    pts = w[:, 1:]
    tab = tabulate(elem, pts)
    assert np.allclose(tab.values.sum(axis=1), 1.0, atol=1e-10)


def test_gradients_sum_to_zero():
    elem = lagrange_element(2, 3)
    pts = np.array([[0.2, 0.3], [0.1, 0.05]])
    tab = tabulate(elem, pts)
    assert np.allclose(tab.gradients.sum(axis=1), 0.0, atol=1e-10)


def test_vector_element_components():
    elem = lagrange_element(2, 2, ncomp=2)
    scalar = lagrange_element(2, 2)
    assert (elem.nnodes, elem.ncomp) == (scalar.nnodes, 2)


def test_invalid_degree():
    with pytest.raises(ValueError):
        lagrange_element(2, 0)

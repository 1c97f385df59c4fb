import io
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksolve.mesh import build_unit_square, build_unit_cube
from blocksolve.spaces import (build_space, taylor_hood, MixedSpace,
                               DirichletBC)
from blocksolve.forms import (stiffness_form, ns_jacobian_form,
                              rb_jacobian_form)
from blocksolve.operators import (ImplicitOperator, AssembledOperator,
                                  write_matrix_market)


def _ns_operator(n=2, Re=3.0):
    mesh = build_unit_square(n)
    W = taylor_hood(mesh)
    bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4),
                       value=[0.0, 0.0], field=0)]
    form = ns_jacobian_form(W, Re=Re)
    rng = np.random.default_rng(5)
    form.context["state"] = 0.1 * rng.standard_normal(W.num_dofs)
    return ImplicitOperator(form, bcs=bcs), W


def _rb_operator(dim):
    """RB Jacobian (u, p, T) at a random state, with velocity BCs on every
    wall and temperature BCs on two."""
    mesh = build_unit_square(3) if dim == 2 else build_unit_cube(1)
    V = build_space(mesh, 2, ncomp=dim)
    Q = build_space(mesh, 1)
    T = build_space(mesh, 1)
    W = MixedSpace([V, Q, T])
    bcs = [DirichletBC(V, tuple(range(1, 2 * dim + 1)), value=[0.0] * dim,
                       field=0),
           DirichletBC(T, (1,), value=1.0, field=2),
           DirichletBC(T, (2,), value=0.0, field=2)]
    form = rb_jacobian_form(W, Ra=200.0, Pr=6.18)
    rng = np.random.default_rng(dim)
    form.context["state"] = 0.1 * rng.standard_normal(W.num_dofs)
    return ImplicitOperator(form, bcs=bcs), W


def _index_set(W, fields):
    return np.concatenate([W.field_index_set(i) for i in fields])


class TestImplicitOperator:
    def test_apply_matches_assembled(self):
        A, W = _ns_operator()
        Acsr = A.assemble().A
        rng = np.random.default_rng(6)
        x = rng.standard_normal(A.shape[1])
        assert np.allclose(A.apply(x), Acsr @ x, atol=1e-12)

    def test_extract_sub_blocks(self):
        A, W = _ns_operator()
        Acsr = A.assemble().A.toarray()
        rng = np.random.default_rng(8)
        for rf, cf in [((0,), (0,)), ((0,), (1,)), ((1,), (0,))]:
            ris, cis = _index_set(W, rf), _index_set(W, cf)
            sub = A.extract_sub(rf, cf)
            x = rng.standard_normal(len(cis))
            ref = Acsr[np.ix_(ris, cis)] @ x
            assert np.allclose(sub.apply(x), ref, atol=1e-12), (rf, cf)
        # RB: Dirichlet rows are identity on the diagonal blocks and zero
        # on the others, for the velocity and the temperature alike; a
        # block lists its fields in the order asked for, on both kinds
        field_sets = [(0,), (1,), (2,), (0, 1), (1, 0)]
        for dim in (2, 3):
            A, W = _rb_operator(dim)
            Afull = A.assemble().A.toarray()
            for rf, cf in itertools.product(field_sets, field_sets):
                if rf != cf and set(rf) & set(cf):
                    continue
                ris, cis = _index_set(W, rf), _index_set(W, cf)
                sub = A.extract_sub(rf, cf)
                x = rng.standard_normal(len(cis))
                ref = Afull[np.ix_(ris, cis)] @ x
                for got in (sub.apply(x), sub.assemble().A @ x,
                            A.assemble().extract_sub(rf, cf).apply(x)):
                    err = np.linalg.norm(got - ref)
                    assert err <= 1e-12 * np.linalg.norm(ref), (dim, rf, cf)

    def test_extract_fields_rejects_overlapping_field_sets(self):
        A, W = _rb_operator(2)
        for rf, cf in (([0], [0, 1]), ([0, 1], [0])):
            with pytest.raises(ValueError, match=re.escape(f"{rf}") + ".*"
                               + re.escape(f"{cf}")):
                A.extract_sub(rf, cf)

    def test_sub_shares_context(self):
        A, W = _ns_operator()
        sub = A.extract_sub((1,), (1,))
        assert sub.form.context is A.form.context

    def test_rb_sub_equals_standalone_ns(self):
        mesh = build_unit_square(2)
        V = build_space(mesh, 2, ncomp=2)
        Q = build_space(mesh, 1)
        T = build_space(mesh, 1)
        W = MixedSpace([V, Q, T])
        form = rb_jacobian_form(W, Ra=200.0, Pr=6.18)
        rng = np.random.default_rng(9)
        state = 0.1 * rng.standard_normal(W.num_dofs)
        form.context["state"] = state
        A = ImplicitOperator(form)
        sub = A.extract_sub((0, 1), (0, 1))

        W2 = MixedSpace([V, Q])
        ns = ns_jacobian_form(W2, Re=1.0)
        ns.context["state"] = state[:W2.num_dofs]
        ref = ImplicitOperator(ns)
        x = rng.standard_normal(W2.num_dofs)
        assert np.allclose(sub.apply(x), ref.apply(x), atol=1e-13)

    def test_memory_footprint_much_smaller_than_assembled(self):
        A, W = _ns_operator(n=4)
        assert A.memory_footprint() < A.assemble().memory_footprint()


class TestAssembledOperator:
    def test_extract_sub(self):
        A, W = _ns_operator()
        Aasm = A.assemble()
        nu = W.fields[0].num_dofs
        sub = Aasm.extract_sub((0,), (0,))
        x = np.random.default_rng(1).standard_normal(nu)
        assert np.allclose(sub.apply(x), Aasm.A[:nu, :nu] @ x)

    def test_block_keeps_its_fields(self):
        # the assembled (u, p) block of the RB Jacobian has the fields of
        # the implicit one, so a fieldsplit can split it again
        for dim in (2, 3):
            A, W = _rb_operator(dim)
            for rf in ((0, 1), (2,)):
                got = A.assemble().extract_sub(rf, (0, 1)).field_index_sets()
                expect = A.extract_sub(rf, (0, 1)).field_index_sets()
                assert len(got) == len(expect) == 2
                for g, e in zip(got, expect):
                    assert np.array_equal(g, e)
                    assert g.dtype == e.dtype
            sub = A.assemble().extract_sub((0, 1), (0, 1))
            with pytest.raises(ValueError, match=re.escape("[2]")):
                sub.extract_sub((2,), (2,))


@pytest.mark.parametrize("assembled", [False, True])
@pytest.mark.parametrize("rf, cf, bad", [
    ((-1,), (0,), [-1]), ((0,), (3,), [3]), ((0, 2), (0, 2, 0), [0, 2, 0]),
    ((), (), [])])
def test_extract_sub_rejects_field_ids_it_does_not_have(assembled, rf, cf,
                                                        bad):
    # a negative id would otherwise index the last field
    A, W = _rb_operator(2)
    if assembled:
        A = A.assemble()
    with pytest.raises(ValueError, match=re.escape(f"field ids {bad} ")):
        A.extract_sub(rf, cf)


def test_assembled_extract_sub_needs_fields():
    A = AssembledOperator(np.eye(3))
    with pytest.raises(ValueError, match="0 fields"):
        A.extract_sub((0,), (0,))


def test_matrix_market_round_trip():
    mesh = build_unit_square(2)
    V = build_space(mesh, 1)
    A = stiffness_form(V).assemble()
    buf = io.StringIO()
    write_matrix_market(A, buf)
    text = buf.getvalue()
    assert text.startswith("%%MatrixMarket matrix coordinate real general")
    import scipy.io
    B = scipy.io.mmread(io.StringIO(text)).tocsr()
    assert np.allclose((A - B).toarray(), 0.0, atol=0.0)

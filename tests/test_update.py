"""A solver tree set up once and updated per linearisation equals one set up
fresh at the new state, and a Newton solve builds its tree once.  Neither
the tree nor the Newton loop keeps an assembly or a factor it has
replaced."""

import contextlib
import gc
import io
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from blocksolve import factory, precond
from blocksolve.factory import PC_TYPES, build_pc
from blocksolve.forms import (ns_jacobian_form, rb_jacobian_form,
                              stiffness_form)
from blocksolve.mesh import build_unit_square
from blocksolve.operators import ImplicitOperator
from blocksolve.options import OptionsDB
from blocksolve.precond import AssembledPC, FieldSplitPC, PCDPC
from blocksolve.problems import (CavityConfig, ConvectionConfig, run_cavity,
                                 run_convection)
from blocksolve.spaces import (DirichletBC, MixedSpace, build_space,
                               taylor_hood)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _schur(mat):
    """A Schur fieldsplit of the cavity Jacobian: the velocity block by an
    assembled LU, the Schur complement by PCD (no PC on an assembled
    operator, which carries no pressure form)."""
    return {"pc_type": "fieldsplit", "pc_fieldsplit_type": "schur",
            "pc_fieldsplit_schur_fact_type": "lower",
            "fieldsplit_0_pc_type": "assembled",
            "fieldsplit_1_pc_type": "pcd" if mat == "matfree" else "none"}


def _on_velocity(pc_type, **extra):
    return dict({"fieldsplit_0_pc_type": pc_type}, **extra)


# case -> (the PC types it sets up, options over `_schur`, matrix-free only)
CASES = {
    "none": ({"none"}, {"fieldsplit_1_pc_type": "none"}, False),
    "jacobi": ({"assembled", "jacobi"},
               _on_velocity("assembled", fieldsplit_0_assembled_pc_type=
                            "jacobi"), False),
    "sor": ({"assembled", "sor"},
            _on_velocity("assembled", fieldsplit_0_assembled_pc_type="sor"),
            False),
    "lu": ({"assembled", "lu"}, {}, False),
    "ilu": ({"assembled", "ilu"},
            _on_velocity("assembled", fieldsplit_0_assembled_pc_type="ilu"),
            False),
    "ksp": ({"ksp", "assembled"},
            _on_velocity("ksp", fieldsplit_0_ksp_ksp_max_it="3",
                         fieldsplit_0_ksp_pc_type="assembled"), False),
    "telescope": ({"telescope", "assembled"},
                  _on_velocity("telescope",
                               fieldsplit_0_telescope_pc_type="assembled"),
                  False),
    "fieldsplit-additive": ({"fieldsplit"},
                            {"pc_fieldsplit_type": "additive"}, False),
    "fieldsplit-multiplicative": ({"fieldsplit"},
                                  {"pc_fieldsplit_type": "multiplicative"},
                                  False),
    **{f"fieldsplit-schur-{fact}": (
        {"fieldsplit"}, {"pc_fieldsplit_schur_fact_type": fact}, False)
       for fact in ("diag", "lower", "upper", "full")},
    "schwarz": ({"schwarz"}, _on_velocity("schwarz"), True),
    "pcd": ({"pcd"}, {}, True),
    "mass": ({"mass"}, {"fieldsplit_1_pc_type": "mass"}, True),
}

PARAMS = [(name, mat) for name, (_, _, matfree_only) in CASES.items()
          for mat in ("matfree", "aij") if mat == "matfree" or
          not matfree_only]


def _cavity(n=3, Re=10.0):
    W = taylor_hood(build_unit_square(n))
    lid = lambda x: [np.where(x[1] > 1.0 - 1e-12, 1.0, 0.0),
                     np.zeros_like(x[1])]
    bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4), value=lid, field=0)]
    return W, bcs, lambda: ns_jacobian_form(W, Re=Re)


def _operator(make_form, bcs, state, mat):
    form = make_form()
    form.context["state"] = state
    implicit = ImplicitOperator(form, bcs=bcs)
    return form, implicit, (implicit if mat == "matfree"
                            else implicit.assemble())


def test_cases_cover_every_pc_type():
    assert set().union(*(types for types, _, _ in CASES.values())) == \
        set(PC_TYPES)


@pytest.mark.parametrize("name, mat", PARAMS)
def test_update_equals_a_fresh_set_up(name, mat):
    W, bcs, make_form = _cavity()
    opts = dict(_schur(mat), **CASES[name][1])
    argv = [t for k, v in opts.items() for t in ("-" + k, v)]
    rng = np.random.default_rng(7)
    s0, s1, r = (rng.standard_normal(W.num_dofs) for _ in range(3))

    form, implicit, op = _operator(make_form, bcs, s0, mat)
    pc = build_pc(OptionsDB().parse_args(argv), "", op)
    z0 = pc.apply(r)
    form.context["state"] = s1
    # the same operator object when matrix-free, a new assembled one if aij
    pc.update(implicit if mat == "matfree" else implicit.assemble())

    _, _, fresh_op = _operator(make_form, bcs, s1, mat)
    fresh = build_pc(OptionsDB().parse_args(argv), "", fresh_op)
    z1 = pc.apply(r)
    assert np.array_equal(z1, fresh.apply(r))
    assert not np.array_equal(z1, z0)


class _Count:
    """Wraps a function and counts the calls whose `key` is true."""

    def __init__(self, fn, key=lambda *args: True):
        self.fn, self.key, self.calls = fn, key, 0

    def __call__(self, *args, **kwargs):
        self.calls += bool(self.key(*args))
        return self.fn(*args, **kwargs)


def test_newton_builds_the_tree_once(monkeypatch):
    builds = _Count(factory.build_ksp, key=lambda db, prefix, *a: not prefix)
    pcd_set_ups = _Count(PCDPC._set_up)
    monkeypatch.setattr(factory, "build_ksp", builds)
    monkeypatch.setattr(PCDPC, "_set_up",
                        lambda self, op: pcd_set_ups(self, op))
    db = OptionsDB()
    db.parse_file(CONFIGS / "rb-iterative.opts")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(io.StringIO()):
            res = run_convection(ConvectionConfig(n=4), db)
    assert res["report"].converged and res["report"].iterations == 2
    assert builds.calls == 1
    assert pcd_set_ups.calls == 1


@pytest.mark.parametrize("mat", ["aij", "matfree"])
def test_fieldsplit_extracts_blocks_once_per_linearisation(monkeypatch, mat):
    splits = _Count(FieldSplitPC._split)
    monkeypatch.setattr(FieldSplitPC, "_split",
                        lambda self, op: splits(self, op))
    db = OptionsDB().parse_args([
        "-mat_type", mat, "-ksp_type", "fgmres", "-pc_type", "fieldsplit",
        "-pc_fieldsplit_type", "schur", "-pc_fieldsplit_schur_fact_type",
        "full", "-fieldsplit_0_pc_type", "assembled",
        "-fieldsplit_1_ksp_type", "gmres", "-fieldsplit_1_pc_type", "none"])
    with contextlib.redirect_stdout(io.StringIO()):
        res = run_cavity(CavityConfig(n=4, re=10.0), db)
    its = res["report"].iterations
    assert res["report"].converged and its >= 2
    # the set-up and each update extract the blocks from the operator
    assert splits.calls == its


def _alive(refs):
    """The weakly referenced objects still reachable after a collection;
    an entry is a weak reference or a tuple of them."""
    gc.collect()
    return [obj for entry in refs
            for ref in (entry if isinstance(entry, tuple) else (entry,))
            if (obj := ref()) is not None]


def _assembled_by_nodes(monkeypatch):
    """Weak references to every operator an `assembled` node assembles,
    each paired with one to its CSR matrix, which a node could keep
    without the operator."""
    made = []
    inner_op = AssembledPC._inner_op

    def spy(self, op):
        out = inner_op(self, op)
        made.append((weakref.ref(out), weakref.ref(out.A)))
        return out

    monkeypatch.setattr(AssembledPC, "_inner_op", spy)
    return made


def _poisson_operator():
    V = build_space(build_unit_square(4), 2)
    return ImplicitOperator(stiffness_form(V), bcs=[
        DirichletBC(V, (1, 2, 3, 4), value=0.0, field=0)])


@pytest.mark.parametrize("inner", ["jacobi", "sor", "lu", "ilu"])
def test_assembled_node_keeps_no_assembly(inner, monkeypatch):
    # the inner node keeps what its apply reads (a factor, a diagonal,
    # triangles), never the operator it was built from
    made = _assembled_by_nodes(monkeypatch)
    op = _poisson_operator()
    pc = build_pc(OptionsDB().parse_args(
        ["-pc_type", "assembled", "-assembled_pc_type", inner]), "", op)
    assert len(made) == 1 and _alive(made) == []
    pc.update(op)
    assert len(made) == 2 and _alive(made) == []
    assert np.isfinite(pc.apply(np.ones(op.shape[0]))).all()


def test_convection_tree_keeps_no_assembly(monkeypatch):
    made = _assembled_by_nodes(monkeypatch)
    mesh = build_unit_square(2)
    V, Q, T = (build_space(mesh, 2, ncomp=2), build_space(mesh, 1),
               build_space(mesh, 1))
    W = MixedSpace([V, Q, T])
    form = rb_jacobian_form(W, Ra=200.0, Pr=6.18)
    op = ImplicitOperator(form, bcs=[
        DirichletBC(V, (1, 2, 3, 4), value=[0.0, 0.0], field=0),
        DirichletBC(T, (1, 2), value=0.0, field=2)])
    db = OptionsDB().parse_file(CONFIGS / "rb-iterative.opts")
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pc = build_pc(db, "", op)
        # the velocity block and the temperature block
        assert len(made) == 2 and _alive(made) == []
        form.context["state"] = rng.standard_normal(W.num_dofs)
        pc.update(op)
    assert len(made) == 4 and _alive(made) == []
    assert np.isfinite(pc.apply(rng.standard_normal(W.num_dofs))).all()


@pytest.mark.parametrize("pc_type, factorize", [("lu", "splu"),
                                                ("ilu", "spilu")])
def test_update_frees_the_factor_before_it_factors(pc_type, factorize,
                                                   monkeypatch):
    A = _poisson_operator().assemble()
    pc = build_pc(OptionsDB().parse_args(["-pc_type", pc_type]), "", A)
    held = []
    real = getattr(precond.spla, factorize)

    def spy(*args, **kwargs):
        held.append(pc.fact)
        return real(*args, **kwargs)

    monkeypatch.setattr(precond.spla, factorize, spy)
    pc.update(A)
    assert held == [None] and pc.fact is not None


def test_newton_frees_the_last_assembly_before_the_next(monkeypatch):
    made = []
    assemble = ImplicitOperator.assemble

    def spy(self):
        assert _alive(made) == []
        out = assemble(self)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ImplicitOperator, "assemble", spy)
    # the default tree: the Jacobian assembled (aij) and factored by LU
    with contextlib.redirect_stdout(io.StringIO()):
        res = run_cavity(CavityConfig(n=4, re=10.0), OptionsDB())
    assert res["report"].converged
    assert len(made) == res["report"].iterations >= 2

import ast
import io
from pathlib import Path

import numpy as np
import pytest

from blocksolve.mesh import build_unit_square
from blocksolve.spaces import build_space, taylor_hood, DirichletBC
from blocksolve.forms import stiffness_form, stokes_form, load_vector
from blocksolve.operators import ImplicitOperator
from blocksolve.options import OptionsDB
from blocksolve import factory
from blocksolve.factory import build_ksp, build_pc, UnknownType, report_unused
from blocksolve.krylov import KSP
from blocksolve.newton import NewtonSolver
from blocksolve.precond import (JacobiPC, SORPC, LUPC, ILUPC, NonePC,
                                FieldSplitPC, AssembledPC, TelescopePC,
                                SchwarzPC, MissingContext, Preconditioner,
                                view_ksp)


def _poisson(n=4, degree=1):
    mesh = build_unit_square(n)
    V = build_space(mesh, degree)
    bcs = [DirichletBC(V, (1, 2, 3, 4), value=0.0, field=0)]
    A = ImplicitOperator(stiffness_form(V), bcs=bcs)
    b = load_vector(A.form, 1.0)
    b[A.bc_rows] = 0.0
    return A, b


def _stokes(n=4):
    mesh = build_unit_square(n)
    W = taylor_hood(mesh)
    bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4), value=[0.0, 0.0], field=0)]
    return ImplicitOperator(stokes_form(W), bcs=bcs)


class TestBuildKSP:
    def test_reads_type_and_tolerances(self):
        db = OptionsDB().parse_args(
            ["-ksp_type", "cg", "-ksp_rtol", "1e-9", "-ksp_atol", "1e-30",
             "-ksp_max_it", "123", "-pc_type", "jacobi"])
        A, b = _poisson()
        ksp = build_ksp(db, "", A.assemble())
        assert ksp.type == "cg"
        assert ksp.rtol == 1e-9
        assert ksp.atol == 1e-30
        assert ksp.max_it == 123
        assert isinstance(ksp.pc, JacobiPC)
        x, rep = ksp.solve(A, b)
        assert rep.converged

    def test_prefix_scoping(self):
        db = OptionsDB().parse_args(
            ["-inner_ksp_type", "cg", "-inner_pc_type", "none",
             "-ksp_type", "gmres"])
        A, _ = _poisson()
        ksp = build_ksp(db, "inner_", A.assemble())
        assert ksp.type == "cg"
        assert isinstance(ksp.pc, NonePC)

    def test_gmres_knobs(self):
        db = OptionsDB().parse_args(
            ["-ksp_gmres_restart", "17", "-ksp_gmres_modifiedgramschmidt",
             "-ksp_pc_side", "right", "-pc_type", "none"])
        A, _ = _poisson()
        ksp = build_ksp(db, "", A.assemble())
        assert ksp.restart == 17
        assert ksp.orthogonalization == "modified"
        assert ksp.side == "right"

    def test_unapplied_side_rejected_before_pc_set_up(self):
        # jacobi on a matrix-free operator would fail at set-up; the side
        # is rejected first
        db = OptionsDB().parse_args(["-inner_ksp_type", "cg",
                                     "-inner_ksp_pc_side", "right",
                                     "-inner_pc_type", "jacobi"])
        A, _ = _poisson()
        with pytest.raises(ValueError, match="inner_: cg preconditions on "
                                             "the left, not 'right'"):
            build_ksp(db, "inner_", A)

    def test_constant_nullspace_flag(self):
        db = OptionsDB().parse_args(["-ksp_constant_nullspace",
                                     "-pc_type", "none"])
        A, _ = _poisson()
        ksp = build_ksp(db, "", A.assemble())
        assert ksp.nullspace is not None
        v = ksp.nullspace.project(np.ones(A.shape[1]))
        assert np.allclose(v, 0.0)

    def test_monitor_flag_prints(self, capsys):
        db = OptionsDB().parse_args(["-ksp_monitor", "-ksp_type", "cg",
                                     "-pc_type", "jacobi"])
        A, b = _poisson()
        ksp = build_ksp(db, "", A.assemble())
        ksp.solve(A.assemble(), b)
        out = capsys.readouterr().out
        assert "  0 KSP Residual norm " in out

    def test_defaults(self):
        A, _ = _poisson()
        ksp = build_ksp(OptionsDB(), "", A.assemble())
        assert ksp.type == "gmres"
        assert isinstance(ksp.pc, JacobiPC)  # assembled default
        ksp2 = build_ksp(OptionsDB(), "", A)
        assert isinstance(ksp2.pc, NonePC)  # matrix-free default

    # the default preconditioner suits the operator it is set up on, which
    # may differ from the one the Krylov method applies
    def test_default_pc_of_an_assembled_pmat(self):
        A, _ = _poisson()
        ksp = build_ksp(OptionsDB(), "", A, A.assemble())
        assert isinstance(ksp.pc, JacobiPC)

    def test_default_pc_of_a_matrix_free_pmat(self):
        A, _ = _poisson()
        ksp = build_ksp(OptionsDB(), "", A.assemble(), A)
        assert isinstance(ksp.pc, NonePC)


class TestBuildPC:
    def test_sor_options(self):
        db = OptionsDB().parse_args(
            ["-pc_type", "sor", "-pc_sor_omega", "1.3", "-pc_sor_its", "2"])
        A, _ = _poisson()
        pc = build_pc(db, "", A.assemble())
        assert isinstance(pc, SORPC)
        assert pc.omega == 1.3
        assert pc.its == 2

    def test_unknown_type_raises(self):
        db = OptionsDB().parse_args(["-pc_type", "sparta"])
        A, _ = _poisson()
        with pytest.raises(UnknownType):
            build_pc(db, "", A.assemble())

    def test_foreign_amg_aliased_with_warning(self):
        db = OptionsDB().parse_args(["-pc_type", "hypre"])
        A, _ = _poisson()
        with pytest.warns(UserWarning, match="hypre"):
            pc = build_pc(db, "", A.assemble())
        assert isinstance(pc, LUPC)

    def test_foreign_factorization_package_accepted(self):
        db = OptionsDB().parse_args(
            ["-pc_type", "lu", "-pc_factor_mat_solver_type", "mumps"])
        A, _ = _poisson()
        with pytest.warns(UserWarning, match="mumps"):
            pc = build_pc(db, "", A.assemble())
        assert isinstance(pc, LUPC)

    def test_python_indirection_mapped(self):
        db = OptionsDB().parse_args(
            ["-pc_type", "python",
             "-pc_python_type", "somepkg.solving.AssembledPC"])
        A, _ = _poisson()
        with pytest.warns(UserWarning):
            pc = build_pc(db, "", A)
        assert isinstance(pc, AssembledPC)

    def test_python_indirection_unmappable_raises(self):
        db = OptionsDB().parse_args(
            ["-pc_type", "python", "-pc_python_type", "mystery.Thing"])
        A, _ = _poisson()
        with pytest.raises(UnknownType):
            build_pc(db, "", A)

    @pytest.mark.parametrize("target, local", [
        ("firedrake.PCDPC", "pcd"), ("firedrake.MassInvPC", "mass"),
        ("firedrake.PatchPC", "schwarz"), ("firedrake.ASMStarPC", "schwarz"),
        ("SSC", "schwarz"), ("mypcs.MyPatchSmoother", None),
        ("mypcs.AssembledPCPlus", None), ("assembled", None)])
    def test_python_indirection_exact_class_names(self, target, local):
        # the class name is matched whole: a user class whose name holds
        # "Patch" is not silently replaced by schwarz
        db = OptionsDB().parse_args(
            ["-pc_type", "python", "-pc_python_type", target])
        if local is None:
            with pytest.raises(UnknownType, match="known classes: PCDPC"):
                factory._resolve_pc_type(db, "", "none")
        else:
            with pytest.warns(UserWarning, match=f"using '{local}'"):
                assert factory._resolve_pc_type(db, "", "none") == local

    def test_telescope_is_passthrough(self):
        db = OptionsDB().parse_args(
            ["-pc_type", "telescope", "-telescope_pc_type", "jacobi"])
        A, _ = _poisson()
        Aasm = A.assemble()
        pc = build_pc(db, "", Aasm)
        assert isinstance(pc, TelescopePC)
        r = np.arange(1.0, A.shape[0] + 1)
        ref = JacobiPC().set_up(Aasm).apply(r)
        assert np.allclose(pc.apply(r), ref)

    def test_schwarz_from_options(self):
        # Schwarz always keeps its patch inverses: the removed switch is
        # reported as unused, not silently accepted
        db = OptionsDB().parse_args(
            ["-pc_type", "schwarz", "-pc_schwarz_store_operators", "false"])
        A, _ = _poisson(degree=3)
        pc = build_pc(db, "", A)
        assert isinstance(pc, SchwarzPC)
        assert report_unused(db, io.StringIO()) == [
            "pc_schwarz_store_operators"]


class TestFieldSplitTrees:
    def test_additive_default_splits(self):
        db = OptionsDB().parse_args(
            ["-pc_type", "fieldsplit",
             "-fieldsplit_0_pc_type", "lu", "-fieldsplit_1_pc_type", "lu"])
        A = _stokes()
        with pytest.raises(Exception):
            # zero pressure block cannot be LU-factored: additive split
            # on Stokes is expected to fail at set-up
            build_pc(db, "", A)

    def test_splits_parsed_from_options(self):
        db = OptionsDB().parse_args(
            ["-pc_type", "fieldsplit", "-pc_fieldsplit_type", "schur",
             "-pc_fieldsplit_schur_fact_type", "lower",
             "-pc_fieldsplit_0_fields", "0",
             "-pc_fieldsplit_1_fields", "1",
             "-fieldsplit_0_ksp_type", "preonly",
             "-fieldsplit_0_pc_type", "assembled",
             "-fieldsplit_1_ksp_type", "gmres",
             "-fieldsplit_1_ksp_rtol", "1e-4",
             "-fieldsplit_1_pc_type", "none"])
        A = _stokes()
        pc = build_pc(db, "", A)
        assert isinstance(pc, FieldSplitPC)
        assert pc.fs_type == "schur"
        assert pc.fact_type == "lower"
        assert pc.splits == [(0,), (1,)]
        assert pc.sub_ksps[0].type == "preonly"
        assert isinstance(pc.sub_ksps[0].pc, AssembledPC)
        assert pc.sub_ksps[1].type == "gmres"
        assert pc.sub_ksps[1].rtol == 1e-4

    def test_grouped_fields(self):
        db = OptionsDB().parse_args(
            ["-pc_type", "fieldsplit",
             "-pc_fieldsplit_0_fields", "0,1",
             "-fieldsplit_0_pc_type", "assembled"])
        A = _stokes()
        pc = build_pc(db, "", A)
        assert pc.splits == [(0, 1)]
        assert pc.sub_ops[0].shape == A.shape

    def test_nested_tree_from_file(self):
        text = """
        -ksp_type fgmres
        -ksp_rtol 1e-10
        -pc_type fieldsplit
        -pc_fieldsplit_type schur
        -pc_fieldsplit_schur_fact_type lower
        -prefix_push fieldsplit_0_
          -ksp_type preonly
          -pc_type assembled
          -assembled_pc_type lu
        -prefix_pop
        -prefix_push fieldsplit_1_
          -ksp_type gmres
          -ksp_rtol 1e-8
          -pc_type none
        -prefix_pop
        """
        db = OptionsDB().parse_file(io.StringIO(text))
        A = _stokes()
        ksp = build_ksp(db, "", A)
        tree = view_ksp(ksp)
        assert "KSP (-) type: fgmres" in tree
        assert "type: fieldsplit" in tree
        assert "factorization=lower" in tree
        assert "KSP (fieldsplit_0_) type: preonly" in tree
        assert "PC (fieldsplit_0_assembled_) type: lu" in tree
        assert "KSP (fieldsplit_1_) type: gmres" in tree

    def test_tree_solves_stokes(self):
        db = OptionsDB().parse_args(
            ["-ksp_type", "fgmres", "-ksp_rtol", "1e-10",
             "-pc_type", "fieldsplit", "-pc_fieldsplit_type", "schur",
             "-pc_fieldsplit_schur_fact_type", "full",
             "-fieldsplit_0_pc_type", "assembled",
             "-fieldsplit_1_ksp_type", "gmres",
             "-fieldsplit_1_ksp_rtol", "1e-12",
             "-fieldsplit_1_ksp_max_it", "200",
             "-fieldsplit_1_ksp_constant_nullspace",
             "-fieldsplit_1_pc_type", "none",
             "-ksp_constant_nullspace"])
        A = _stokes()
        ksp = build_ksp(db, "", A)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.shape[0])
        b[A.bc_rows] = 0.0
        b = ksp.nullspace.project(b)
        x, rep = ksp.solve(A, b)
        assert rep.converged
        assert rep.iterations <= 3


    @pytest.mark.parametrize("fields, shared, left_out", [
        (("0", "0,1"), [0], []),       # velocity in both splits
        (("0",), [], [1]),             # pressure in no split
    ])
    def test_splits_must_partition_the_fields(self, fields, shared,
                                              left_out):
        args = ["-outer_pc_type", "fieldsplit",
                "-outer_pc_fieldsplit_type", "additive"]
        for i, f in enumerate(fields):
            args += [f"-outer_pc_fieldsplit_{i}_fields", f]
        db = OptionsDB().parse_args(args)
        splits = [tuple(int(t) for t in f.split(",")) for f in fields]
        with pytest.raises(ValueError) as err:
            build_pc(db, "outer_", _stokes())
        msg = str(err.value)
        assert msg.startswith("pc fieldsplit (-outer_): splits ")
        assert str(splits) in msg
        assert f"in several: {shared}, in none: {left_out}" in msg


class TestBookkeeping:
    def test_report_unused(self, capsys):
        db = OptionsDB().parse_args(
            ["-ksp_type", "cg", "-pc_type", "jacobi",
             "-bogus_knob", "7"])
        A, _ = _poisson()
        build_ksp(db, "", A.assemble())
        import sys
        unused = report_unused(db, stream=sys.stderr)
        assert "bogus_knob" in unused
        assert "ksp_type" not in unused
        err = capsys.readouterr().err
        assert "-bogus_knob 7" in err


class TestSetUpErrorsNamePrefix:
    # a set-up error deep in the tree names the option prefix of the node
    # that raised it
    def test_matrix_free_block_under_sor(self):
        db = OptionsDB().parse_args(["-pc_type", "fieldsplit",
                                     "-fieldsplit_0_pc_type", "sor"])
        with pytest.raises(MissingContext,
                           match="pc sor \\(-fieldsplit_0_\\) needs an "
                                 "assembled operator"):
            build_ksp(db, "", _stokes())

    def test_assembled_operator_under_schwarz(self):
        db = OptionsDB().parse_args(["-outer_pc_type", "schwarz"])
        A, _ = _poisson(degree=2)
        with pytest.raises(MissingContext,
                           match="pc schwarz \\(-outer_\\) needs an "
                                 "implicit operator"):
            build_ksp(db, "outer_", A.assemble())

    @pytest.mark.parametrize("pc_type, error, message", [
        ("jacobi", ValueError, "zero diagonal entry"),
        ("sor", ValueError, "zero diagonal entry"),
        ("lu", RuntimeError, "singular"),
    ])
    def test_singular_assembled_block(self, pc_type, error, message):
        # the pressure-pressure block of Stokes is empty
        db = OptionsDB().parse_args(
            ["-pc_type", "fieldsplit",
             "-fieldsplit_1_pc_type", "assembled",
             "-fieldsplit_1_assembled_pc_type", pc_type])
        with pytest.raises(error) as err:
            build_ksp(db, "", _stokes())
        msg = str(err.value)
        assert f"pc {pc_type} (-fieldsplit_1_assembled_)" in msg
        assert message in msg

    @pytest.mark.parametrize("prefix, args, message", [
        ("", ["-pc_type", "fieldsplit", "-fieldsplit_0_ksp_type", "foo"],
         "fieldsplit_0_: unknown ksp type"),
        ("", ["-pc_type", "fieldsplit", "-fieldsplit_0_ksp_gmres_restart",
              "0"], "fieldsplit_0_: tolerances must be nonnegative"),
        ("outer_", ["-outer_ksp_rtol", "-1"],
         "outer_: tolerances must be nonnegative"),
        ("", ["-pc_type", "fieldsplit", "-fieldsplit_0_pc_type", "sor",
              "-fieldsplit_0_pc_sor_omega", "2"],
         "pc sor (-fieldsplit_0_): sor relaxation"),
        ("", ["-pc_type", "fieldsplit", "-fieldsplit_0_pc_type", "sor",
              "-fieldsplit_0_pc_sor_its", "0"],
         "pc sor (-fieldsplit_0_): sor needs at least one sweep"),
        ("outer_", ["-outer_pc_type", "fieldsplit",
                    "-outer_pc_fieldsplit_type", "foo"],
         "pc fieldsplit (-outer_): unknown fieldsplit type"),
        ("outer_", ["-outer_pc_type", "fieldsplit",
                    "-outer_pc_fieldsplit_type", "schur",
                    "-outer_pc_fieldsplit_schur_fact_type", "foo"],
         "pc fieldsplit (-outer_): unknown schur factorization"),
        ("", ["-pc_type", "fieldsplit", "-fieldsplit_0_ksp_max_it", "-1"],
         "fieldsplit_0_: tolerances must be nonnegative, restart >= 1, "
         "max_it >= 0"),
    ])
    def test_option_errors(self, prefix, args, message):
        db = OptionsDB().parse_args(args)
        with pytest.raises(ValueError) as err:
            build_ksp(db, prefix, _stokes())
        assert message in str(err.value)


def test_substitutions_name_table_entries():
    assert set(factory._PC_ALIASES.values()) <= set(factory._PC_MAKERS)
    assert set(factory._PYTHON_PC_MAP.values()) <= set(factory._PC_MAKERS)


@pytest.mark.parametrize("pc_type", factory.PC_TYPES)
def test_table_maker_makes_its_type(pc_type, monkeypatch):
    # a maker reads its options and makes the node; build_pc sets it up
    set_ups = []
    monkeypatch.setattr(Preconditioner, "set_up",
                        lambda self, op: set_ups.append(self))
    pc = factory._PC_MAKERS[pc_type](OptionsDB(), "p_")
    assert set_ups == []
    assert pc.type_name == pc_type
    assert pc.prefix == "p_"


def _names_the_table(node):
    """`db`, `<any>.db`, `options` or `<any>.options`: the names the option
    table goes by."""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name in ("db", "options")


def _option_reads(path):
    """Calls `<table>.get(...)` and `<any>.get_bool/get_int/get_float(...)`
    in a source file: the typed getters are methods of the table alone."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and (node.func.attr in ("get_bool", "get_int", "get_float")
                 or (node.func.attr == "get"
                     and _names_the_table(node.func.value)))]


def test_only_the_factory_reads_the_option_table():
    src = Path(factory.__file__).parent
    assert _option_reads(src / "factory.py")
    assert [read for path in sorted(src.glob("*.py"))
            if path.name != "factory.py" for read in _option_reads(path)] == []


def test_unset_options_leave_the_constructor_defaults():
    db, (A, _) = OptionsDB(), _poisson()
    residual, form = object(), object()
    built = [
        (build_ksp(db, "", A), KSP(), {"pc"}),
        (factory._PC_MAKERS["sor"](db, ""), SORPC(), set()),
        (factory._PC_MAKERS["ilu"](db, ""), ILUPC(), set()),
        (factory._PC_MAKERS["fieldsplit"](db, ""),
         FieldSplitPC(sub_ksp_maker=None), {"sub_ksp_maker"}),
        (factory.build_snes(db, residual, form, (), None),
         NewtonSolver(residual, form, ksp_maker=None),
         {"ksp_maker"}),
    ]
    for made, constructed, skip in built:
        assert ({k: v for k, v in vars(made).items() if k not in skip}
                == {k: v for k, v in vars(constructed).items()
                    if k not in skip}), type(made).__name__

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blocksolve import cli
from blocksolve.cli import main
from blocksolve.krylov import KSP
from blocksolve.operators import AssembledOperator, ImplicitOperator
from blocksolve.options import OptionsDB
from blocksolve.problems import (PoissonConfig, CavityConfig,
                                 ConvectionConfig, run_poisson, run_cavity,
                                 run_convection, poisson_mms, l2_error)

ROOT = __file__.rsplit("/tests/", 1)[0]
_ILU = ["poisson", "--n", "2", "--", "-pc_type", "ilu", "-mat_type", "aij"]


def _db(*tokens):
    return OptionsDB().parse_args(list(tokens))


class TestPoissonDriver:
    def test_default_solve(self):
        res = run_poisson(PoissonConfig(n=8), _db("-ksp_rtol", "1e-10"))
        assert res["report"].converged
        x = res["solution"]
        assert np.all(np.isfinite(x))
        assert x.max() > 0.05  # roughly the peak of the f=1 solution

    def test_mms_error_shrinks(self):
        errs = []
        for n in (4, 8):
            res = run_poisson(PoissonConfig(n=n, degree=2, mms=True),
                              _db("-ksp_rtol", "1e-12"))
            errs.append(res["l2_error"])
        assert errs[1] < errs[0] / 6.0  # ~cubic convergence for P2

    def test_matfree_matches_assembled(self):
        xs = []
        for mat in ("matfree", "aij"):
            res = run_poisson(PoissonConfig(n=6, degree=2),
                              _db("-mat_type", mat, "-ksp_rtol", "1e-12"))
            xs.append(res["solution"])
        assert np.allclose(xs[0], xs[1], atol=1e-9)

    def test_3d(self):
        res = run_poisson(PoissonConfig(n=3, dim=3, mms=True),
                          _db("-ksp_rtol", "1e-10"))
        assert res["report"].converged
        assert res["l2_error"] < 0.2


class TestNonlinearDrivers:
    def test_cavity(self):
        res = run_cavity(CavityConfig(n=4, re=50.0), _db())
        rep = res["report"]
        assert rep.converged
        assert rep.iterations <= 6

    def test_convection(self):
        res = run_convection(ConvectionConfig(n=4), _db())
        rep = res["report"]
        assert rep.converged
        assert rep.iterations <= 5
        W = res["space"]
        T = res["solution"][W.field_slice(2)]
        assert T.max() <= 1.0 + 1e-8 and T.min() >= -1e-8

    def test_snes_monitor(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run_cavity(CavityConfig(n=4, re=10.0), _db("-snes_monitor"))
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("0 SNES Function norm ")


class TestCLI:
    def test_poisson_exit_code_and_summary(self, capsys):
        code = main(["poisson", "--n", "6", "--mms",
                     "--", "-ksp_rtol", "1e-10"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("poisson: dofs=")
        assert "l2_error=" in out

    def test_failure_exit_code(self, capsys):
        code = main(["poisson", "--n", "8",
                     "--", "-ksp_rtol", "1e-14", "-ksp_max_it", "2"])
        assert code == 1

    def test_nonlinear_failure_exit_code(self, capsys):
        code = main(["navier-stokes", "--n", "4", "--", "-snes_max_it", "1"])
        assert code == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, message", [
        (["poisson", "--n", "4", "--", "-ksp_max_it", "-1"], "max_it >= 0"),
        (["poisson", "--n", "4", "--", "-ksp_type", "foo"],
         "unknown ksp type 'foo'"),
        (["poisson", "--n", "4", "--", "-pc_type", "foo"],
         "option -pc_type 'foo'"),
        (["poisson", "--n", "4", "--", "-ksp_rtol", "abc"],
         "cannot read 'abc' as a float"),
        (["poisson", "--n", "4", "--", "-ksp_type", "cg", "stray"],
         "expected an option"),
        (["poisson", "--n", "4", "--", "-pc_type", "fieldsplit",
          "-fieldsplit_0_pc_type", "sor", "-fieldsplit_0_pc_sor_omega", "2"],
         "pc sor (-fieldsplit_0_)"),
        # checked in problems.py, outside the factory
        (["navier-stokes", "--n", "4", "--", "-snes_max_it", "-1"],
         "newton: max_it must be nonnegative"),
        (["poisson", "--n", "2", "--", "-mat_type", "aijj"],
         "unknown mat type 'aijj'"),
        (["poisson", "--n", "2", "--", "-pmat_type", "aijj"],
         "unknown pmat type 'aijj'"),
        # a node its operator cannot serve, found at tree set-up
        (["poisson", "--n", "4", "--", "-pc_type", "sor"],
         "pc sor (-) needs an assembled operator"),
        # composition errors, found at set-up (library callers still get a
        # ValueError)
        (["poisson", "--n", "4", "--", "-pc_type", "fieldsplit",
          "-pc_fieldsplit_type", "schur"],
         "pc fieldsplit (-): schur fieldsplit needs exactly two splits"),
        (["navier-stokes", "--n", "4", "--", "-mat_type", "aij",
          "-ksp_type", "gmres", "-pc_type", "sor"],
         "pc sor (-): zero diagonal entry in row 162"),
        (["poisson", "--n", "4", "--", "-pc_type", "fieldsplit",
          "-pc_fieldsplit_0_fields", "1"],
         "pc fieldsplit (-): splits [(1,)] must put each of the fields"),
        (["poisson", "--n", "4", "--", "-pc_type", "schwarz"],
         "pc schwarz (-) needs polynomial degree >= 2"),
        (["poisson", "--n", "4", "--", "-pc_type", "python",
          "-pc_python_type", "mypcs.MyPatchSmoother"],
         "option -pc_python_type 'mypcs.MyPatchSmoother': cannot map"),
        # a file that cannot be opened, before and after the solve
        (["poisson", "--n", "2", "--options-file", "nope.opts"],
         "No such file or directory: 'nope.opts'"),
        (["poisson", "--n", "2", "--options-file", f"{ROOT}/configs"],
         "Is a directory"),
        (["poisson", "--n", "2", "--", "-ksp_view", "/nonexistent/v.txt"],
         "No such file or directory: '/nonexistent/v.txt'"),
        (["poisson", "--n", "2", "--export-matrix", "/nonexistent/m.txt"],
         "No such file or directory: '/nonexistent/m.txt'"),
        # values outside the ranges scipy's spilu documents
        (_ILU + ["-pc_factor_fill", "0"],
         "pc ilu (-): ilu fill factor must be finite and at least 1, not 0"),
        (_ILU + ["-pc_factor_fill", "-1"], "ilu fill factor must be"),
        (_ILU + ["-pc_factor_fill", "nan"], "ilu fill factor must be"),
        (_ILU + ["-pc_factor_fill", "inf"], "ilu fill factor must be"),
        (_ILU + ["-pc_factor_drop_tol", "-1"],
         "pc ilu (-): ilu drop tolerance must lie in [0, 1], not -1"),
        (_ILU + ["-pc_factor_drop_tol", "nan"], "ilu drop tolerance must lie"),
        # NaN tolerances
        (["poisson", "--n", "2", "--", "-ksp_rtol", "nan"],
         "ksp: tolerances must be nonnegative, restart >= 1, max_it >= 0, "
         "not rtol=nan"),
        (["poisson", "--n", "2", "--", "-ksp_type", "richardson",
          "-ksp_rtol", "nan"], "ksp: tolerances must be nonnegative"),
        (["poisson", "--n", "2", "--", "-ksp_atol", "nan"], "atol=nan"),
        (["navier-stokes", "--n", "2", "--", "-snes_rtol", "nan"],
         "newton: tolerances must be nonnegative, not rtol=nan"),
        (["navier-stokes", "--n", "2", "--", "-snes_atol", "nan"],
         "newton: tolerances must be nonnegative, not rtol=1e-08, atol=nan"),
        # the fieldsplit error line names its option
        (["poisson", "--n", "2", "--", "-pc_type", "fieldsplit",
          "-pc_fieldsplit_0_fields", "a"],
         "option -pc_fieldsplit_0_fields: cannot read 'a' as"),
        (["poisson", "--n", "2", "--", "-pc_type", "fieldsplit",
          "-pc_fieldsplit_0_fields", "0,,1"],
         "option -pc_fieldsplit_0_fields: cannot read '0,,1' as"),
        # a nested fieldsplit names itself as every other node does
        (["rayleigh-benard", "--n", "2", "--", "-pc_type", "fieldsplit",
          "-pc_fieldsplit_0_fields", "0,1", "-pc_fieldsplit_1_fields", "2",
          "-fieldsplit_0_pc_type", "fieldsplit",
          "-fieldsplit_0_pc_fieldsplit_0_fields", "1"],
         "pc fieldsplit (-fieldsplit_0_): splits [(1,)] must put each of "
         "the fields 0 to 1 in exactly one split"),
    ])
    def test_bad_solver_option_is_one_line_and_exit_2(self, argv, message,
                                                      capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("blocksolve: error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["poisson", "--n", "4", "--degree", "2", "--kappa", "0", "--",
          "-mat_type", "matfree", "-pc_type", "schwarz"],
         "pc schwarz (-): Factor is exactly singular"),
        (["poisson", "--n", "4", "--degree", "2", "--kappa", "-1", "--",
          "-mat_type", "matfree", "-pc_type", "schwarz"],
         "ksp: indefinite operator in CG at iteration 1"),
        (["navier-stokes", "--n", "4", "--", "-mat_type", "aij",
          "-ksp_type", "gmres", "-pc_type", "fieldsplit",
          "-fieldsplit_1_pc_type", "lu"],
         "pc lu (-fieldsplit_1_): Factor is exactly singular"),
        (["poisson", "--n", "4", "--degree", "2", "--", "-pc_type", "none",
          "-ksp_max_it", "2", "-ksp_error_if_not_converged"],
         "ksp: max_its after 2 iterations"),
        (["navier-stokes", "--n", "4", "--", "-ksp_type", "cg",
          "-pc_type", "none"],
         "newton step 1: linear solve failed (ksp: indefinite operator"),
        (["navier-stokes", "--n", "4", "--", "-snes_max_it", "1",
          "-snes_error_if_not_converged"],
         "newton: max_its after 1 iterations"),
        # the zero pressure block maps the first Krylov vector to zero
        (["navier-stokes", "--n", "3", "--", "-ksp_type", "gmres",
          "-pc_type", "fieldsplit", "-pc_fieldsplit_type", "additive",
          "-fieldsplit_1_ksp_type", "gmres", "-fieldsplit_1_pc_type",
          "none"],
         "newton step 0: linear solve failed (fieldsplit_1_: gmres "
         "breakdown at iteration 1"),
    ])
    def test_breakdown_is_one_line_and_exit_1(self, argv, message, capsys):
        # a singular factor, a Krylov or a Newton error is a failure to
        # converge: exit 1, with the node and the reason on one line
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("blocksolve: error: " + message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["poisson", "--n", "0"], "argument --n: must be at least 1"),
        (["rayleigh-benard", "--n", "-2"], "argument --n: must be at least"),
        (["poisson", "--degree", "5"], "argument --degree: invalid choice"),
        (["navier-stokes", "--degree", "1"],
         "argument --degree: invalid choice"),
        (["bench-matvec"], "invalid choice: 'bench-matvec'"),
        (["navier-stokes", "--re", "0"],
         "argument --re: must be positive and finite, not 0"),
        (["navier-stokes", "--re", "-10"], "argument --re: must be positive"),
        (["navier-stokes", "--re", "nan"], "argument --re: must be positive"),
        (["navier-stokes", "--re", "inf"], "argument --re: must be positive"),
        (["rayleigh-benard", "--pr", "0"],
         "argument --pr: must be positive and finite, not 0"),
        (["rayleigh-benard", "--pr", "-1"], "argument --pr: must be positive"),
        (["rayleigh-benard", "--pr", "nan"],
         "argument --pr: must be positive"),
        (["rayleigh-benard", "--pr=-inf"], "argument --pr: must be positive"),
    ])
    def test_bad_driver_argument_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Traceback" not in err
        assert message in err.splitlines()[-1]

    def test_unused_options_reported(self, capsys):
        main(["poisson", "--n", "4", "--", "-zzz_knob", "1"])
        assert "unused options" in capsys.readouterr().err

    def test_options_file(self, tmp_path, capsys):
        f = tmp_path / "o.opts"
        f.write_text("-ksp_type cg\n-pc_type jacobi\n-mat_type aij\n")
        code = main(["poisson", "--n", "6", "--options-file", str(f)])
        assert code == 0

    def test_ksp_view_to_stdout(self, capsys):
        main(["poisson", "--n", "4", "--", "-ksp_view", "-pc_type", "none"])
        out = capsys.readouterr().out
        assert "KSP (-) type: cg" in out
        assert "PC (-) type: none" in out

    def test_ksp_view_to_file(self, tmp_path):
        target = tmp_path / "view.txt"
        main(["poisson", "--n", "4", "--", "-ksp_view", str(target)])
        assert "KSP (-) type: cg" in target.read_text()

    @pytest.mark.parametrize("value", ["false", "0", "off", "No"])
    def test_ksp_view_false_shows_nothing(self, value, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        main(["poisson", "--n", "4", "--degree", "2",
              "--", "-ksp_view", value])
        assert list(tmp_path.iterdir()) == []
        assert "KSP (" not in capsys.readouterr().out

    def test_export_matrix_and_mesh(self, tmp_path, capsys):
        mfile = tmp_path / "A.mtx"
        mesh_file = tmp_path / "mesh.txt"
        code = main(["poisson", "--n", "2",
                     "--export-matrix", str(mfile),
                     "--export-mesh", str(mesh_file)])
        assert code == 0
        assert mfile.read_text().startswith("%%MatrixMarket")
        head = mesh_file.read_text().splitlines()[0]
        assert head.startswith("dim 2")

    def test_table_mode(self, capsys):
        code = main(["poisson", "--n", "4", "--degree", "1", "--table",
                     "--", "-ksp_rtol", "1e-12"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "n,dofs,l2_error,rate"
        assert len(out) == 4
        last_rate = float(out[-1].rsplit(",", 1)[1])
        assert 1.7 < last_rate < 2.3

    def test_table_views_go_to_the_callers_stdout(self, capsys):
        buf = io.StringIO()
        code = main(["poisson", "--n", "2", "--degree", "2", "--table",
                     "--", "-ksp_view"], stdout=buf)
        assert code == 0
        assert buf.getvalue().count("KSP (-) type: cg") == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--export-matrix", "--export-mesh"])
    def test_table_refuses_exports(self, flag, tmp_path, capsys):
        target = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(["poisson", "--n", "2", "--degree", "2", "--table",
                  flag, str(target), "--", "-ksp_view"],
                 stdout=io.StringIO())
        assert exc.value.code == 2
        assert "--table" in capsys.readouterr().err
        assert not target.exists()

    def test_runs_as_a_module(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [ROOT + "/src", env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "blocksolve", "poisson",
                               "--n", "2"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("poisson: dofs=")

    def test_navier_stokes_subcommand(self, capsys):
        code = main(["navier-stokes", "--n", "4", "--re", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "navier-stokes: dofs=" in out
        assert "newton_its=" in out

    def test_default_newton_tree_applies_no_operator_in_its_solves(
            self, monkeypatch):
        # the default preonly/lu solve factors the Jacobian and tests no
        # norm, so no Newton step's linear solve applies an operator
        applies = []
        for cls in (AssembledOperator, ImplicitOperator):
            def counting(op, x, _apply=cls.apply):
                applies.append(op)
                return _apply(op, x)
            monkeypatch.setattr(cls, "apply", counting)
        per_solve = []

        def recording(ksp, A, b, _solve=KSP.solve):
            before = len(applies)
            out = _solve(ksp, A, b)
            per_solve.append((ksp.type, len(applies) - before))
            return out
        monkeypatch.setattr(KSP, "solve", recording)
        buf = io.StringIO()
        assert main(["navier-stokes", "--n", "8"], stdout=buf) == 0
        newton_its = int(buf.getvalue().split("newton_its=")[1].split()[0])
        assert per_solve == [("preonly", 0)] * newton_its

    def test_rayleigh_benard_subcommand(self, capsys):
        code = main(["rayleigh-benard", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rayleigh-benard: dofs=" in out

    RB_AIJ = ["rayleigh-benard", "--n", "4", "--options-file",
              f"{ROOT}/configs/rb-iterative.opts", "--", "-mat_type", "aij"]

    def test_nested_fieldsplit_on_assembled_operator(self):
        buf = io.StringIO()
        code = main(self.RB_AIJ + [
            "-fieldsplit_0_fieldsplit_1_ksp_type", "gmres",
            "-fieldsplit_0_fieldsplit_1_pc_type", "none"], stdout=buf)
        assert code == 0
        assert "newton_its=2 " in buf.getvalue()

    def test_pcd_on_assembled_operator_names_its_node(self, capsys):
        # the inner fieldsplit splits the assembled block; PCD, which reads
        # the form, is the node that stops, as a configuration error; the
        # hypre substitution built before it is reported on its own line
        code = main(self.RB_AIJ, stdout=io.StringIO())
        assert code == 2
        assert capsys.readouterr().err == (
            "blocksolve: warning: option "
            "-fieldsplit_0_fieldsplit_0_assembled_pc_type hypre: not "
            "available, using 'lu' instead\n"
            "blocksolve: error: pc pcd (-fieldsplit_0_fieldsplit_1_) needs "
            "an implicit operator carrying a form\n")

    def test_sor_to_schwarz_switch_same_driver(self):
        # identical driver invocation, solver swapped purely via options
        for cfg in ("configs/poisson-sor.opts", "configs/poisson-schwarz.opts"):
            buf = io.StringIO()
            code = main(["poisson", "--n", "8", "--degree", "3",
                         "--options-file", f"{ROOT}/{cfg}"], stdout=buf)
            assert code == 0, cfg
            assert buf.getvalue().startswith("poisson: dofs=")


# the command line that runs each shipped option file, at the sizes of the
# golden-view acceptance check
CONFIG_RUNS = {
    "cavity-pcd": ["navier-stokes", "--n", "4"],
    "poisson-hypre": ["poisson", "--n", "4", "--degree", "3"],
    "poisson-sor": ["poisson", "--n", "4", "--degree", "3"],
    "poisson-schwarz": ["poisson", "--n", "4", "--degree", "3"],
    "rb-direct": ["rayleigh-benard", "--n", "4"],
    "rb-iterative": ["rayleigh-benard", "--n", "4"],
}


def test_every_config_has_a_run():
    names = sorted(p.stem for p in Path(ROOT, "configs").glob("*.opts"))
    assert names == sorted(CONFIG_RUNS)


@pytest.mark.parametrize("name", sorted(CONFIG_RUNS))
def test_shipped_config_reads_every_option(name, capsys):
    # an option nothing reads (a renamed knob, a typo) is reported on
    # stderr; a shipped file must have none
    code = main(CONFIG_RUNS[name] + ["--options-file",
                                     f"{ROOT}/configs/{name}.opts"],
                stdout=io.StringIO())
    err = capsys.readouterr().err
    assert code == 0
    assert "unused options" not in err, err


def test_substitution_warning_is_one_line(capsys):
    code = main(["poisson", "--n", "4", "--options-file",
                 f"{ROOT}/configs/poisson-hypre.opts"], stdout=io.StringIO())
    assert code == 0
    assert capsys.readouterr().err == (
        "blocksolve: warning: option -pc_type hypre: not available, using "
        "'lu' instead\n")


def test_warning_turned_into_an_error_is_one_line_and_exit_2(capsys):
    # as under `python -W error::UserWarning`
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        code = main(["poisson", "--n", "4", "--options-file",
                     f"{ROOT}/configs/poisson-hypre.opts"],
                    stdout=io.StringIO())
    assert code == 2
    assert capsys.readouterr().err == (
        "blocksolve: error: option -pc_type hypre: not available, using "
        "'lu' instead\n")


def test_unused_options_are_one_warning_line(capsys):
    main(["poisson", "--n", "4", "--", "-log_view", "-foo", "1"],
         stdout=io.StringIO())
    assert capsys.readouterr().err == (
        "blocksolve: warning: unused options: -log_view true -foo 1\n")


def test_everything_printed_goes_to_the_stdout_of_main():
    # monitors print deep in the solver tree, and the table line in the
    # driver: all of them to the stream `main` was given
    buf, elsewhere = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(elsewhere):
        code = main(["navier-stokes", "--n", "3", "--", "-ksp_monitor",
                     "-snes_monitor", "-ksp_type", "gmres", "-pc_type", "lu"],
                    stdout=buf)
    assert code == 0
    lines = buf.getvalue().splitlines()
    assert len(lines) == 14
    assert sum("KSP Residual norm" in line for line in lines) == 8
    assert elsewhere.getvalue() == ""


def test_nested_ksp_view(capsys):
    code = main(["navier-stokes", "--n", "3", "--", "-ksp_type", "fgmres",
                 "-pc_type", "fieldsplit", "-pc_fieldsplit_type", "schur",
                 "-fieldsplit_0_ksp_view", "-fieldsplit_1_ksp_type",
                 "gmres", "-fieldsplit_1_pc_type", "none"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.startswith("KSP (fieldsplit_0_) type: preonly\n"
                          "  PC (fieldsplit_0_) type: jacobi\n")
    assert err == ""


@pytest.mark.parametrize("command, config", [
    ("poisson", PoissonConfig), ("navier-stokes", CavityConfig),
    ("rayleigh-benard", ConvectionConfig)])
def test_driver_defaults_are_the_config_defaults(command, config):
    args = cli._build_parser().parse_args([command])
    for f in dataclasses.fields(config):
        assert getattr(args, f.name) == f.default, f.name

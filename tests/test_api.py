"""The public names of the package resolve: each module's `__all__`, every
name `blocksolve/__init__.py` imports, and every entry point the benchmark's
tracer (`perfbench/tracer.py`) wraps.  No module imports inside a
function, and every preconditioner type defines its own `apply`."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import blocksolve
from blocksolve import precond
from blocksolve.factory import PC_TYPES
from blocksolve.krylov import KSP

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(blocksolve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"blocksolve.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"blocksolve.{name}.__all__ names missing {missing}"


def test_no_function_level_imports():
    # an import inside a function hides a module dependency, often a cycle
    found = set()
    for path in sorted(Path(blocksolve.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{path.name}:{n.lineno}" for n in ast.walk(node)
                             if isinstance(n, (ast.Import, ast.ImportFrom)))
    assert sorted(found) == []


def test_no_global_statements():
    # a function that rebinds module state (a call-depth counter, say)
    # makes a solve depend on what ran before or around it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(blocksolve.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


def test_package_imports_resolve():
    tree = ast.parse(Path(blocksolve.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(blocksolve, n)] == []


# the functions and methods `perfbench/tracer.py` replaces by timing
# wrappers; a rename would silently drop its spans under `--trace 1`
TRACED = [
    "mesh.build_unit_square", "mesh.build_unit_cube",
    "spaces.FunctionSpace.__init__",
    "forms.SpaceEval.__init__", "forms.Form.block_local_matrices",
    "forms.Form.action", "forms.Form.assemble", "forms.Form.flops_per_apply",
    "forms.load_vector", "forms.ns_residual", "forms.rb_residual",
    "forms.poisson_residual",
    "operators.ImplicitOperator.apply", "operators.AssembledOperator.apply",
    "operators.ImplicitOperator.extract_sub",
    "operators.AssembledOperator.extract_sub",
    "krylov.KSP.solve",
    "precond.Preconditioner.set_up", "precond.SchurOperator.apply",
    "factory.build_ksp", "factory.build_pc",
    "newton.NewtonSolver.solve",
    "problems.run_poisson", "problems.run_cavity", "problems.run_convection",
    "problems.l2_error",
]


@pytest.mark.parametrize("path", TRACED)
def test_traced_entry_points_resolve(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"blocksolve.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_ksp_solve_signature():
    # perfbench/case.py reads b as the second positional argument of the
    # outermost KSP.solve and takes b as its initial residual, x = 0
    assert str(inspect.signature(KSP.solve)) == "(self, A, b)"


def test_every_pc_type_defines_its_own_apply():
    # the tracer names each apply span after the class whose body defines
    # `apply`, so an inherited apply would be counted under another type
    classes = [cls for cls in vars(precond).values()
               if isinstance(cls, type)
               and issubclass(cls, precond.Preconditioner)
               and cls is not precond.Preconditioner
               and cls.type_name in PC_TYPES]
    assert {cls.type_name for cls in classes} == set(PC_TYPES)
    assert [cls.__name__ for cls in classes if "apply" not in vars(cls)] == []


def test_readme_lift_gives_nonzero_dirichlet_values():
    # u = 1 on the boundary and f = 0: the exact solution is u = 1, which
    # the README's library recipe reaches only with the lifted right-hand
    # side, as the operator zeroes its Dirichlet columns
    V = blocksolve.build_space(blocksolve.build_unit_square(8), degree=2)
    bc = blocksolve.DirichletBC(V, (1, 2, 3, 4), value=1.0)
    A = blocksolve.ImplicitOperator(blocksolve.stiffness_form(V), bcs=[bc])
    b = blocksolve.load_vector(A.form, 0.0)
    xg = np.zeros(A.shape[1])
    xg[bc.dofs] = bc.values
    b -= blocksolve.ImplicitOperator(A.form).apply(xg)
    b[bc.dofs] = bc.values
    db = blocksolve.OptionsDB().parse_args(
        ["-ksp_type", "cg", "-ksp_rtol", "1e-10", "-pc_type", "schwarz"])
    x, report = blocksolve.build_ksp(db, "", A).solve(A, b)
    assert report.converged
    assert np.abs(x - 1.0).max() <= 1e-8

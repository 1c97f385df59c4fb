import numpy as np
import pytest

from blocksolve.mesh import build_unit_square
from blocksolve.spaces import (build_space, taylor_hood, DirichletBC,
                               collect_bc_values)
from blocksolve.forms import (ns_jacobian_form, ns_residual, stiffness_form,
                              poisson_residual, load_vector)
from blocksolve.krylov import KSP, Nullspace
from blocksolve.operators import AssembledOperator
from blocksolve.precond import LUPC, NonePC
from blocksolve.newton import (NewtonSolver, NewtonDivergedMaxIts,
                               LinearSolveFailed)


def _cavity(n=4, Re=50.0):
    mesh = build_unit_square(n)
    W = taylor_hood(mesh)
    lid = lambda x: [np.where(x[1] > 1.0 - 1e-12, 1.0, 0.0),
                     np.zeros_like(x[1])]
    bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4), value=lid, field=0)]
    form = ns_jacobian_form(W, Re=Re)
    residual = lambda x: ns_residual(form, x, bcs=bcs)
    nsp = Nullspace([np.concatenate([np.zeros(W.fields[0].num_dofs),
                                     np.ones(W.fields[1].num_dofs)])])
    return form, residual, bcs, nsp, W


def _direct(nullspace=None):
    """Maker of a direct solve whose KSP carries `nullspace`."""
    def make(A, Apc):
        mat = Apc if hasattr(Apc, "A") else Apc.assemble()
        return KSP("preonly", pc=LUPC().set_up(mat), nullspace=nullspace)
    return make


class TestConvergence:
    def test_linear_problem_one_step(self):
        mesh = build_unit_square(4)
        V = build_space(mesh, 1)
        bcs = [DirichletBC(V, (1, 2, 3, 4), value=0.0, field=0)]
        form = stiffness_form(V)
        b = load_vector(form, 1.0)
        solver = NewtonSolver(
            lambda x: poisson_residual(form, x, bcs=bcs, rhs=b),
            form, bcs=bcs, ksp_maker=_direct(), mat_type="aij", rtol=1e-10)
        x, rep = solver.solve()
        assert rep.converged
        assert rep.iterations == 1
        assert np.linalg.norm(poisson_residual(form, x, bcs=bcs, rhs=b)) < 1e-9

    def test_cavity_quadratic(self):
        form, residual, bcs, nsp, W = _cavity(Re=50.0)
        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=_direct(nsp),
                              mat_type="aij", rtol=1e-10)
        x, rep = solver.solve()
        assert rep.converged
        assert rep.iterations <= 6
        # asymptotically quadratic: the last contraction is dramatic
        assert rep.residual_norms[-1] < 1e-6 * rep.residual_norms[-2]

    def test_matfree_matches_assembled(self):
        form, residual, bcs, nsp, W = _cavity(Re=20.0)
        xs = []
        for mat_type, pmat_type in [("aij", None), ("matfree", "aij")]:
            f = ns_jacobian_form(W, Re=20.0)
            r = lambda x: ns_residual(f, x, bcs=bcs)
            solver = NewtonSolver(r, f, bcs=bcs, ksp_maker=_direct(nsp),
                                  mat_type=mat_type, pmat_type=pmat_type,
                                  rtol=1e-10)
            x, rep = solver.solve()
            assert rep.converged
            xs.append(nsp.project(x))
        assert np.allclose(xs[0], xs[1], atol=1e-8)

    def test_default_assembles_the_jacobian(self):
        # as the CLI's Newton does when -mat_type is unset
        form, residual, bcs, nsp, W = _cavity(Re=10.0)
        made = []

        def maker(A, Apc):
            made.append((A, Apc))
            return _direct(nsp)(A, Apc)

        _, rep = NewtonSolver(residual, form, bcs=bcs, ksp_maker=maker,
                              rtol=1e-10).solve()
        assert rep.converged
        A, Apc = made[0]
        assert isinstance(A, AssembledOperator) and Apc is A

    def test_overlapping_bcs_later_one_wins(self):
        # markers 3 and 4 are y = 0 and y = 1; both BCs hold y = 0
        V = build_space(build_unit_square(16), 2)
        bcs = [DirichletBC(V, (1, 2, 3), value=1.0),
               DirichletBC(V, (3, 4), value=2.0)]
        on = V.boundary_scalar_dofs((1, 2, 3, 4))
        expect = np.where(np.isin(on, V.boundary_scalar_dofs((3, 4))),
                          2.0, 1.0)
        form = stiffness_form(V)
        b = load_vector(form, 1.0)
        r = poisson_residual(form, np.zeros(V.num_dofs), bcs=bcs, rhs=b)
        assert np.array_equal(r[on], -expect)
        states = []

        def residual(x):
            states.append(x.copy())
            return poisson_residual(form, x, bcs=bcs, rhs=b)

        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=_direct(),
                              mat_type="aij", rtol=1e-10)
        x, rep = solver.solve()
        assert rep.converged
        assert np.array_equal(states[0][on], expect)
        assert np.allclose(x[on], expect, rtol=0, atol=1e-12)

    def test_bcs_imposed_on_solution(self):
        form, residual, bcs, nsp, W = _cavity(Re=10.0)
        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=_direct(nsp),
                              mat_type="aij", rtol=1e-10)
        x, rep = solver.solve()
        dofs, values = collect_bc_values(W, bcs)
        assert np.allclose(x[dofs], values, atol=1e-12)


class TestDiagnostics:
    def test_monitor_format(self):
        lines = []
        form, residual, bcs, nsp, W = _cavity(Re=10.0)
        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=_direct(nsp),
                              mat_type="aij", rtol=1e-8, monitor=lines.append)
        solver.solve()
        assert lines[0].startswith("0 SNES Function norm ")
        for i, line in enumerate(lines):
            tokens = line.split()
            assert tokens[0] == str(i)
            assert " SNES Function norm " in line
            float(tokens[-1])

    def test_max_its_report(self):
        form, residual, bcs, nsp, W = _cavity(Re=50.0)
        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=_direct(nsp),
                              mat_type="aij", rtol=1e-14, atol=0.0,
                              max_it=1)
        x, rep = solver.solve()
        assert not rep.converged
        assert rep.reason == "max_its"
        assert rep.iterations == 1

    def test_negative_max_it_rejected(self):
        form, residual, bcs, nsp, W = _cavity(Re=50.0)
        with pytest.raises(ValueError, match="newton: max_it"):
            NewtonSolver(residual, form, bcs=bcs, ksp_maker=_direct(),
                         max_it=-1)
        # no step at all still reports the initial residual
        _, rep = NewtonSolver(residual, form, bcs=bcs, ksp_maker=_direct(),
                              rtol=1e-14, atol=0.0, max_it=0).solve()
        assert rep.reason == "max_its" and rep.iterations == 0
        assert rep.residual_norm == rep.residual_norms[0]

    def test_error_if_not_converged(self):
        form, residual, bcs, nsp, W = _cavity(Re=50.0)
        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=_direct(nsp),
                              mat_type="aij", rtol=1e-14, atol=0.0,
                              max_it=1, error_if_not_converged=True)
        with pytest.raises(NewtonDivergedMaxIts) as err:
            solver.solve()
        assert err.value.report.reason == "max_its"

    def test_linear_failure_wrapped(self):
        form, residual, bcs, nsp, W = _cavity(Re=50.0)
        maker = lambda A, Apc: KSP("gmres", rtol=1e-13, max_it=1,
                                   pc=NonePC().set_up(A), nullspace=nsp,
                                   error_if_not_converged=True)
        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=maker,
                              mat_type="aij")
        with pytest.raises(LinearSolveFailed):
            solver.solve()

    def test_counts_linear_iterations(self):
        form, residual, bcs, nsp, W = _cavity(Re=10.0)
        maker = lambda A, Apc: KSP("gmres", rtol=1e-10, max_it=2000,
                                   pc=LUPC().set_up(Apc), nullspace=nsp)
        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=maker,
                              mat_type="aij", rtol=1e-8)
        x, rep = solver.solve()
        assert rep.converged
        assert rep.linear_iterations >= rep.iterations


class TestTreeReuse:
    def test_maker_called_once_and_pc_updated_per_step(self):
        form, residual, bcs, nsp, W = _cavity(Re=50.0)
        made, updates = [], []

        class CountingLU(LUPC):
            def update(self, op):
                updates.append(form.context["state"])
                return super().update(op)

        def maker(A, Apc):
            made.append(form.context["state"])
            return KSP("preonly", pc=CountingLU().set_up(Apc), nullspace=nsp)

        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=maker,
                              mat_type="aij", rtol=1e-10)
        x, rep = solver.solve()
        assert rep.converged and rep.iterations >= 3
        assert len(made) == 1 and len(updates) == rep.iterations - 1
        states = made + updates
        assert len({id(s) for s in states}) == len(states)
        assert not any(s.flags.writeable for s in states)
        # the returned solution is the caller's to change
        assert x.flags.writeable
        x[0] += 1.0

    @pytest.mark.parametrize("hook", ["maker", "monitor"])
    def test_writing_into_the_state_mid_solve_raises(self, hook):
        form, residual, bcs, nsp, W = _cavity(Re=50.0)

        def write(*_):
            form.context["state"][0] = 1.0

        def maker(A, Apc):
            if hook == "maker":
                write()
            return _direct(nsp)(A, Apc)

        # the monitor's first call comes before the first linearisation
        monitor = (lambda line: line.startswith("0 ") or write()) \
            if hook == "monitor" else None
        solver = NewtonSolver(residual, form, bcs=bcs, ksp_maker=maker,
                              mat_type="aij", rtol=1e-10, monitor=monitor)
        with pytest.raises(ValueError, match="read-only"):
            solver.solve()

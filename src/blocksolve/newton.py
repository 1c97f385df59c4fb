"""Newton's method over a residual callback and a Jacobian block form.

The solver lifts Dirichlet data onto the initial iterate, so Newton
corrections live in the homogeneous subspace and the unit-diagonal
Dirichlet rows of the Jacobian keep them there.  The Jacobian can be kept
matrix-free or assembled each step, independently for the operator the
Krylov method applies and the one the preconditioner is built from.  The
solver tree is built once, at the first linearisation, and updated at
every later one (`Preconditioner.update`).
"""

from __future__ import annotations

import numpy as np

from .krylov import KrylovError
from .operators import ImplicitOperator, mat_types, select_operators
from .spaces import collect_bc_values

__all__ = ["NewtonSolver", "NewtonReport", "NewtonError",
           "NewtonDivergedMaxIts", "LinearSolveFailed"]


class NewtonError(Exception):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NewtonDivergedMaxIts(NewtonError):
    pass


class LinearSolveFailed(NewtonError):
    pass


class NewtonReport:
    def __init__(self, converged, reason, iterations, linear_iterations,
                 residual_norms):
        self.converged = converged
        self.reason = reason
        self.iterations = iterations
        self.linear_iterations = linear_iterations
        self.residual_norms = list(residual_norms)

    @property
    def residual_norm(self):
        return self.residual_norms[-1]

    def __repr__(self):
        tag = "converged" if self.converged else "diverged"
        return (f"NewtonReport({tag} {self.reason}, its={self.iterations}, "
                f"linear_its={self.linear_iterations}, "
                f"rnorm={self.residual_norm:.6e})")


class NewtonSolver:
    """Newton iteration x <- x + d, J(x) d = -F(x).

    residual_fn(state) evaluates F with Dirichlet rows holding the
    boundary defect; jacobian_form is the block form of J, whose context
    state is set before every linearisation to a read-only copy of the
    iterate, so a write into it raises instead of leaving the solver tree
    stale.  ksp_maker(A, Apc) returns the linear solver, with J's
    nullspace; it is called at the first linearisation only, and every
    later step updates the solver's preconditioner on Apc alone,
    `ksp.pc.update(Apc)`, so state-free nodes keep what they built."""

    def __init__(self, residual_fn, jacobian_form, bcs=(), *, ksp_maker,
                 rtol=1e-8, atol=1e-50, max_it=50, mat_type="aij",
                 pmat_type=None, monitor=None, error_if_not_converged=False):
        if max_it < 0:
            raise ValueError(f"newton: max_it must be nonnegative, "
                             f"not {max_it}")
        if not (rtol >= 0 and atol >= 0):  # a NaN tolerance fails
            raise ValueError(f"newton: tolerances must be nonnegative, not "
                             f"rtol={rtol:g}, atol={atol:g}")
        self.residual_fn = residual_fn
        self.jacobian_form = jacobian_form
        self.bcs = tuple(bcs)
        self.ksp_maker = ksp_maker
        self.rtol = rtol
        self.atol = atol
        self.max_it = max_it
        self.mat_type, self.pmat_type = mat_types(mat_type, pmat_type)
        self.monitor = monitor
        self.error_if_not_converged = error_if_not_converged

    def lift_bcs(self, x):
        """Impose the Dirichlet data on an iterate, in place."""
        space = self.jacobian_form.row_space
        if self.bcs:
            dofs, values = collect_bc_values(space, self.bcs)
            x[dofs] = values
        return x

    def _monitor(self, it, norm):
        if self.monitor is not None:
            self.monitor(f"{it} SNES Function norm {norm:.12e}")

    def _finish(self, x, converged, reason, it, linear_its, norms):
        report = NewtonReport(converged, reason, it, linear_its, norms)
        if not converged and self.error_if_not_converged:
            raise NewtonDivergedMaxIts(
                f"newton: {reason} after {it} iterations "
                f"(residual {norms[-1]:.3e})", report)
        return x, report

    def solve(self, x0=None):
        form = self.jacobian_form
        n = form.col_space.num_dofs
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
        self.lift_bcs(x)
        # the operator reads the state from the form's context, so one
        # serves every step
        implicit = ImplicitOperator(form, bcs=self.bcs)
        norms = []
        linear_its = 0
        ksp = None
        for it in range(self.max_it + 1):
            r = self.residual_fn(x)
            norm = float(np.linalg.norm(r))
            norms.append(norm)
            self._monitor(it, norm)
            if not np.isfinite(norm):
                return self._finish(x, False, "diverged_nan", it,
                                    linear_its, norms)
            if it == 0:
                tol = max(self.rtol * norm, self.atol)
            if norm <= tol:
                return self._finish(x, True, "rtol", it, linear_its, norms)
            if it == self.max_it:
                break
            state = x.copy()
            state.flags.writeable = False
            form.context["state"] = state
            A = Apc = None   # free the last step's assembly before this one
            A, Apc = select_operators(implicit, self.mat_type,
                                      self.pmat_type)
            if ksp is None:
                ksp = self.ksp_maker(A, Apc)
            else:
                ksp.pc.update(Apc)
            try:
                # the KSP projects its nullspace out of -r
                d, lin_report = ksp.solve(A, -r)
            except KrylovError as err:
                raise LinearSolveFailed(
                    f"newton step {it}: linear solve failed ({err})",
                    NewtonReport(False, "linear_solve_failed", it,
                                 linear_its, norms)) from err
            linear_its += lin_report.iterations
            x = x + d
        return self._finish(x, False, "max_its", self.max_it,
                            linear_its, norms)

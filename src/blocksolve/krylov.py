"""Krylov and stationary iterative solvers with a preconditioner slot.

Every solve starts from x = 0: its first residual is b itself, at no
operator apply.  Left Richardson takes the norm of z = M^-1 r and steps
with that z; right Richardson applies M^-1 in its step only.  GMRES (and
FGMRES, the same method on the right) ends, as PETSc's KSPGMRES does, as
soon as a cycle's least-squares estimate |g_k| of the residual norm meets
the tolerance, and reports that estimate.  It computes b - A x (and M^-1
of it on the left) only when a cycle stopped at `restart` or `max_it`:
that residual starts the next cycle, or decides the `max_it` verdict
(`rtol` if it meets the tolerance).  A happy breakdown (the residual lies
in the Krylov space) ends the cycle with its solution; a step that maps its
Krylov vector to zero leaves the least-squares triangle singular and
raises a `KrylovError` naming the solver and the iteration.

Convergence is declared on the preconditioned residual norm for left
preconditioning and on the true residual norm for right/flexible
preconditioning.  A registered nullspace is projected out of the right-hand
side, of every operator application, and of every preconditioned direction.

A solve reports the norm its method tests and computes no other, since
||b - A x|| would cost an operator apply (for a Schur complement, a full
inner solve).  As PETSc's KSPPREONLY, `preonly` tests no norm: it applies
the preconditioner once and computes ||b - A x|| only for its monitor, so
without one its report holds None.
"""

from __future__ import annotations

import numpy as np

from .precond import NonePC

__all__ = ["KSP", "SolveReport", "Nullspace", "KrylovError",
           "DivergedMaxIts", "DivergedNaN", "IndefiniteOperator"]

KSP_TYPES = ("cg", "gmres", "fgmres", "richardson", "preonly")


class KrylovError(Exception):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DivergedMaxIts(KrylovError):
    pass


class DivergedNaN(KrylovError):
    pass


class IndefiniteOperator(KrylovError):
    pass


class SolveReport:
    """Outcome of one solve.  `residual_norm` is the norm the method tests
    convergence on: for a GMRES or FGMRES solve that converged inside a
    cycle, that cycle's least-squares estimate, as in PETSc, and otherwise
    the residual computed at the cycle's end.  For `preonly` it is
    ||b - A x|| when a monitor printed it and None otherwise, never a
    stale value."""

    def __init__(self, converged, reason, iterations, residual_norm):
        self.converged = converged
        self.reason = reason
        self.iterations = iterations
        self.residual_norm = residual_norm

    def __repr__(self):
        tag = "converged" if self.converged else "diverged"
        rnorm = self.residual_norm
        rnorm = "None" if rnorm is None else f"{rnorm:.6e}"
        return (f"SolveReport({tag} {self.reason}, its={self.iterations}, "
                f"rnorm={rnorm})")


class Nullspace:
    """Orthonormalised set of vectors to project out of a solve."""

    def __init__(self, vectors):
        basis = []
        for v in vectors:
            v = np.array(v, dtype=float)
            for u in basis:
                v -= np.dot(u, v) * u
            n = np.linalg.norm(v)
            if n > 1e-14:
                basis.append(v / n)
        self.basis = basis

    def project(self, v):
        for u in self.basis:
            v = v - np.dot(u, v) * u
        return v


class KSP:
    """Iterative solver context: type, tolerances, preconditioner, monitor.
    Without a given `pc` it holds a `NonePC` of its prefix."""

    def __init__(self, ksp_type="gmres", rtol=1e-5, atol=1e-50, max_it=10000,
                 restart=30, orthogonalization="classical", side=None,
                 pc=None, nullspace=None, monitor=None, prefix="",
                 error_if_not_converged=False):
        if ksp_type not in KSP_TYPES:
            raise ValueError(f"{prefix or 'ksp'}: unknown ksp type "
                             f"{ksp_type!r}; known: {', '.join(KSP_TYPES)}")
        # written so that a NaN tolerance fails
        if not (rtol >= 0 and atol >= 0) or restart < 1 or max_it < 0:
            raise ValueError(f"{prefix or 'ksp'}: tolerances must be "
                             f"nonnegative, restart >= 1, max_it >= 0, not "
                             f"rtol={rtol:g}, atol={atol:g}, "
                             f"restart={restart}, max_it={max_it}")
        self.type = ksp_type
        self.rtol = rtol
        self.atol = atol
        self.max_it = max_it
        self.restart = restart
        self.orthogonalization = orthogonalization
        # the sides each type applies, its default first, as in PETSc
        sides = {"cg": ["left"], "fgmres": ["right"]}.get(ksp_type,
                                                          ["left", "right"])
        self.side = sides[0] if side is None else side
        if self.side not in sides:
            raise ValueError(f"{prefix or 'ksp'}: {ksp_type} preconditions on "
                             f"the {' or '.join(sides)}, not {self.side!r}")
        self.pc = NonePC(prefix=prefix) if pc is None else pc
        self.nullspace = nullspace
        self.monitor = monitor
        self.prefix = prefix
        self.error_if_not_converged = error_if_not_converged

    # -- helpers ----------------------------------------------------------

    def _project(self, v):
        if self.nullspace is not None:
            return self.nullspace.project(v)
        return v

    def _apply_pc(self, r):
        return self._project(self.pc.apply(r))

    def _apply_op(self, A, v):
        return self._project(A.apply(v))

    def _monitor(self, it, rnorm):
        if self.monitor is not None:
            self.monitor(f"  {it} KSP Residual norm {rnorm:.12e}")

    def _check_nan(self, rnorm, it):
        if not np.isfinite(rnorm):
            raise DivergedNaN(
                f"{self.prefix or 'ksp'}: non-finite residual at iteration {it}",
                SolveReport(False, "diverged_nan", it, rnorm))

    def _finish(self, x, converged, reason, it, rnorm):
        report = SolveReport(converged, reason, it, rnorm)
        if not converged and self.error_if_not_converged:
            raise DivergedMaxIts(
                f"{self.prefix or 'ksp'}: {reason} after {it} iterations "
                f"(residual {rnorm:.3e})", report)
        return x, report

    # -- drivers ----------------------------------------------------------

    def solve(self, A, b):
        b = self._project(np.asarray(b, dtype=float))
        return getattr(self, "_solve_" + self.type)(A, b)

    def _solve_preonly(self, A, b):
        x = self._apply_pc(b)
        rnorm = None
        if self.monitor is not None:
            # for a Schur complement, this apply is a full inner solve
            rnorm = np.linalg.norm(b - A.apply(x))
            self._monitor(0, rnorm)
        return self._finish(x, True, "preonly", 1, rnorm)

    def _solve_richardson(self, A, b):
        left = self.side == "left"
        x = np.zeros_like(b)
        r = b
        z = self._apply_pc(r) if left else None
        rnorm0 = rnorm = np.linalg.norm(z if left else r)
        self._monitor(0, rnorm)
        tol = max(self.rtol * rnorm0, self.atol)
        for it in range(1, self.max_it + 1):
            x = x + (z if left else self._apply_pc(r))
            r = b - self._apply_op(A, x)
            z = self._apply_pc(r) if left else None
            rnorm = np.linalg.norm(z if left else r)
            self._check_nan(rnorm, it)
            self._monitor(it, rnorm)
            if rnorm <= tol:
                return self._finish(x, True, "rtol", it, rnorm)
        return self._finish(x, False, "max_its", self.max_it, rnorm)

    def _solve_cg(self, A, b):
        x = np.zeros_like(b)
        r = b
        z = self._apply_pc(r)
        rz = np.dot(r, z)
        rnorm0 = rnorm = np.sqrt(abs(rz))
        self._monitor(0, rnorm)
        tol = max(self.rtol * rnorm0, self.atol)
        if rnorm0 <= self.atol:
            return self._finish(x, True, "atol", 0, rnorm)
        p = z
        for it in range(1, self.max_it + 1):
            Ap = self._apply_op(A, p)
            pAp = np.dot(p, Ap)
            if pAp <= 0:
                raise IndefiniteOperator(
                    f"{self.prefix or 'ksp'}: indefinite operator in CG at "
                    f"iteration {it} (pAp = {pAp:.3e})",
                    SolveReport(False, "indefinite_operator", it, rnorm))
            alpha = rz / pAp
            x = x + alpha * p
            r = r - alpha * Ap
            z = self._apply_pc(r)
            rz_new = np.dot(r, z)
            if rz_new < 0:
                raise IndefiniteOperator(
                    f"{self.prefix or 'ksp'}: indefinite preconditioner in CG "
                    f"at iteration {it}",
                    SolveReport(False, "indefinite_pc", it, rnorm))
            rnorm = np.sqrt(rz_new)
            self._check_nan(rnorm, it)
            self._monitor(it, rnorm)
            if rnorm <= tol:
                return self._finish(x, True, "rtol", it, rnorm)
            beta = rz_new / rz
            rz = rz_new
            p = z + beta * p
        return self._finish(x, False, "max_its", self.max_it, rnorm)

    def _solve_gmres(self, A, b):
        left = self.side == "left"
        x = np.zeros_like(b)
        r = self._apply_pc(b) if left else b
        beta = np.linalg.norm(r)
        self._check_nan(beta, 0)
        self._monitor(0, beta)
        if beta <= self.atol:
            return self._finish(x, True, "atol", 0, beta)
        tol = max(self.rtol * beta, self.atol)
        total_it = 0
        while True:
            # b, or the residual a cycle cut at `restart` or `max_it` left,
            # decides whether another cycle starts
            if beta <= tol:
                return self._finish(x, True, "rtol", total_it, beta)
            if total_it >= self.max_it:
                return self._finish(x, False, "max_its", total_it, beta)

            m = self.restart
            V = [r / beta]
            Z = []
            H = np.zeros((m + 1, m))
            g = np.zeros(m + 1)
            g[0] = beta
            cs = np.zeros(m)
            sn = np.zeros(m)
            k = 0
            while k < m and total_it < self.max_it:
                if left:
                    w = self._apply_pc(self._apply_op(A, V[k]))
                else:
                    z = self._apply_pc(V[k])
                    Z.append(z)
                    w = self._apply_op(A, z)
                if self.orthogonalization == "modified":
                    for i in range(k + 1):
                        H[i, k] = np.dot(V[i], w)
                        w = w - H[i, k] * V[i]
                else:
                    h = np.array([np.dot(v, w) for v in V[:k + 1]])
                    H[:k + 1, k] = h
                    w = w - sum(h[i] * V[i] for i in range(k + 1))
                H[k + 1, k] = np.linalg.norm(w)
                if H[k + 1, k] > 1e-300:
                    V.append(w / H[k + 1, k])
                else:
                    V.append(w)
                # Givens rotations
                for i in range(k):
                    t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                    H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                    H[i, k] = t
                # H[k + 1, k] == 0 over a nonzero diagonal is a happy
                # breakdown: sn = 0 makes |g[k + 1]| = 0, which ends the
                # cycle with its solution.  A zero rotated diagonal leaves
                # the triangle singular: the step mapped V[k] to 0
                denom = np.hypot(H[k, k], H[k + 1, k])
                if denom == 0:
                    raise KrylovError(
                        f"{self.prefix or 'ksp'}: {self.type} breakdown at "
                        f"iteration {total_it + 1}: the operator maps the "
                        f"Krylov vector to zero",
                        SolveReport(False, "breakdown", total_it + 1,
                                    abs(g[k])))
                cs[k] = H[k, k] / denom
                sn[k] = H[k + 1, k] / denom
                H[k, k] = denom
                H[k + 1, k] = 0.0
                g[k + 1] = -sn[k] * g[k]
                g[k] = cs[k] * g[k]
                k += 1
                total_it += 1
                rnorm = abs(g[k])
                self._check_nan(rnorm, total_it)
                self._monitor(total_it, rnorm)
                if rnorm <= tol:
                    break
            # assemble update
            y = np.linalg.solve(np.triu(H[:k, :k]), g[:k])
            basis = V if left else Z
            x = self._project(x + sum(y[i] * basis[i] for i in range(k)))
            if rnorm <= tol:
                return self._finish(x, True, "rtol", total_it, rnorm)
            r = b - self._apply_op(A, x)
            r = self._apply_pc(r) if left else r
            beta = np.linalg.norm(r)
            self._check_nan(beta, total_it)

    # right-preconditioned GMRES keeps each z = M^-1 v it applied A to, so
    # a preconditioner that varies between applies is fine
    _solve_fgmres = _solve_gmres

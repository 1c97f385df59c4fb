"""Composable preconditioners.

Every preconditioner is set up on one linear operator, keeps only what
its `apply` (one application of the inverse of its defining matrix M)
reads, and exposes a `view` tree for inspection; `update` refreshes it
for a new linearisation (see `Preconditioner`).  Algebraic
preconditioners (jacobi, sor, lu, ilu) demand an assembled operator,
fieldsplit an operator of either kind with fields, and context-bearing
ones (pcd, mass, schwarz, assembled) read the form off an implicit
operator and raise MissingContext when there is none.

`sor` factors nothing, as PETSc's MatSOR: it sweeps the triangles of A,
read straight off its CSR arrays, with SuperLU's triangular solve
`gstrs`.  That kernel comes from scipy's private module
`scipy.sparse.linalg._dsolve._superlu`; the public
`spsolve_triangular` calls it, and
`tests/test_precond.py::test_sor_matches_split_triangles` pins the
sweeps bit for bit to that function.

Nested solvers are supplied as maker callables so that option-driven
construction (the solver factory) and direct library use share one code
path: a maker receives the sub-operator and returns a fully configured
KSP (or preconditioner) for it.  Every composite preconditioner requires
its makers; the defaults of its nested solvers and their option prefixes
come from `factory.build_pc` alone.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# SuperLU's triangular solve, private: pinned to the public
# spsolve_triangular by tests/test_precond.py::test_sor_matches_split_triangles
from scipy.sparse.linalg._dsolve._superlu import gstrs as _gstrs

from .forms import (Form, StateWind, AdvectionTerm, StiffnessTerm,
                    mass_form, stiffness_form)
from .operators import (AssembledOperator, ImplicitOperator, LinearOperator)
from .spaces import build_space
from .elements import lagrange_element, tabulate

__all__ = ["Preconditioner", "MissingContext", "CompositionError",
           "SingularFactor",
           "NonePC", "JacobiPC", "SORPC", "LUPC", "ILUPC", "KSPPC",
           "AssembledPC", "TelescopePC", "FieldSplitPC", "PCDPC",
           "MassSchurPC", "SchwarzPC", "SchurOperator", "view_ksp"]


class MissingContext(Exception):
    """The preconditioner needs PDE-level context the operator lacks."""


class CompositionError(ValueError):
    """The solver tree does not fit its operator, found at set-up: a zero
    diagonal under jacobi or sor, a schur fieldsplit without two splits,
    splits that do not cover the fields once each, a schwarz node on a
    degree-1 space or with unequal Dirichlet rows and columns, a sor node
    on a matrix too large for 32-bit indices.  The message names the
    node."""


class SingularFactor(RuntimeError, np.linalg.LinAlgError):
    """Set-up met an exactly singular matrix: a sparse LU factor (a
    RuntimeError, as scipy raises it) or a batch of Schwarz patch blocks
    (a LinAlgError, as numpy raises it); or a sor sweep's triangular solve
    failed.  The message names the node."""


def _assembled(op, pc):
    if isinstance(op, AssembledOperator):
        return op.A
    raise MissingContext(
        f"{pc.name} needs an assembled operator; wrap the solve with an "
        f"'assembled' preconditioner or assemble the operator first")


def _implicit(op, pc):
    if isinstance(op, ImplicitOperator):
        return op
    raise MissingContext(
        f"{pc.name} needs an implicit operator carrying a form")


def _nonzero_diagonal(A, pc):
    d = A.diagonal()
    zero = np.flatnonzero(d == 0.0)
    if len(zero):
        raise CompositionError(f"{pc.name}: zero diagonal entry in row "
                               f"{zero[0]}")
    return d


def _factor(factorize, A, pc, **options):
    """`factorize` (splu or spilu) of A as CSC; scipy's RuntimeError on an
    exactly singular factor is raised again as a `SingularFactor` naming
    the tree node."""
    A = sp.csc_matrix(A)
    try:
        return factorize(A, **options)
    except RuntimeError as exc:
        raise SingularFactor(f"{pc.name}: {exc}") from exc


class Preconditioner:
    """A node of the solver tree, set up on one operator, as PETSc's
    PCSetOperators hands the PC its KSP's Pmat.  A subclass builds itself
    in `_set_up(op)`, once, keeping only what `apply(r)` reads to apply
    M^-1 and not op (only `KSPPC` keeps it).  `update(op)` refreshes it
    for a new linearisation of the same problem, the operator of the
    set-up (or a new assembly of it) at a new state, through
    `_update(op)`: by default a fresh set-up, which is always correct.  A
    subclass whose pieces do not all read the state overrides `_update`
    to rebuild only those that do, and a composite updates its children,
    as Firedrake's `PCBase.update` refreshes what `initialize` built."""

    type_name = "none"

    def __init__(self, prefix=""):
        self.prefix = prefix

    @property
    def name(self):
        """This node of the solver tree in error messages: its type and
        option prefix, `pc sor (-fieldsplit_0_)`."""
        return f"pc {self.type_name} (-{self.prefix})"

    def set_up(self, op):
        self._set_up(op)
        return self

    def _set_up(self, op):
        pass

    def update(self, op):
        """Refresh for a new linearisation on op (the set-up's operator,
        or a new assembly of it, at a new state).  Returns self."""
        self._update(op)
        return self

    def _update(self, op):
        """A fresh set-up on op."""
        self.set_up(op)

    def apply(self, r):
        raise NotImplementedError

    def view(self, indent=0):
        pad = " " * indent
        lines = [f"{pad}PC ({self.prefix or '-'}) type: {self.type_name}"]
        lines.extend(self._view_body(indent + 2))
        return "\n".join(lines)

    def _view_body(self, indent):
        return []


def view_ksp(ksp, indent=0):
    """Text tree for a KSP and its nested preconditioner."""
    pad = " " * indent
    lines = [f"{pad}KSP ({ksp.prefix or '-'}) type: {ksp.type}"]
    if ksp.type not in ("preonly",):
        detail = (f"rtol={ksp.rtol:g}, atol={ksp.atol:g}, "
                  f"max_it={ksp.max_it}")
        if ksp.type in ("gmres", "fgmres"):
            detail += (f", restart={ksp.restart}, "
                       f"orthogonalization={ksp.orthogonalization}")
        detail += f", side={ksp.side}"
        lines.append(f"{pad}  {detail}")
    lines.append(ksp.pc.view(indent + 2))
    return "\n".join(lines)


# --- algebraic -------------------------------------------------------------

class NonePC(Preconditioner):
    type_name = "none"

    def apply(self, r):
        return r.copy()


class JacobiPC(Preconditioner):
    type_name = "jacobi"

    def _set_up(self, op):
        self.invdiag = 1.0 / _nonzero_diagonal(_assembled(op, self), self)

    def apply(self, r):
        return self.invdiag * r


def _intc(index, pc):
    """An index array as the C int of SuperLU's kernels.  A value that
    does not fit is refused, as `spsolve_triangular` refuses it, never
    cast silently."""
    if index.dtype != np.intc and index.size and \
            index.max() > np.iinfo(np.intc).max:
        raise CompositionError(f"{pc.name}: index {index.max()} does not "
                               f"fit SuperLU's 32-bit indices")
    return index.astype(np.intc, copy=False)


def _triangle(A, keep, pc):
    """(data, indices, indptr) of the entries of the canonical CSR matrix
    A where `keep`, row by row, with C int indices; `data` is a copy."""
    before = np.zeros(len(keep) + 1, dtype=A.indptr.dtype)
    np.cumsum(keep, out=before[1:])
    return A.data[keep], _intc(A.indices[keep], pc), _intc(before[A.indptr],
                                                           pc)


class SORPC(Preconditioner):
    """(S)SOR sweeps.  Forward sweeps by default; `symmetric` gives the
    SSOR preconditioner (usable with CG).

    As PETSc's MatSOR, nothing is factored: each sweep is one triangular
    solve with D/omega + L or D/omega + U, whose entries set-up reads
    straight from A, by SuperLU's kernel `gstrs` (the one
    `scipy.sparse.linalg.spsolve_triangular` calls), scaled as that
    function scales them.  The CSR arrays of a triangle T are the CSC
    arrays of its transpose, so `gstrs` solves (LU)^T x = b with U the
    strict lower triangle and L the identity (forward), or L the upper
    triangle and U empty (backward).  Each triangle's columns are divided
    by D/omega, which makes its diagonal 1, and x is divided by D/omega
    after the solve."""

    type_name = "sor"

    def __init__(self, omega=1.0, its=1, symmetric=True, prefix=""):
        super().__init__(prefix)
        if not 0.0 < omega < 2.0:
            raise ValueError(f"{self.name}: sor relaxation must lie in "
                             f"(0, 2)")
        if its < 1:
            raise ValueError(f"{self.name}: sor needs at least one sweep, "
                             f"not {its}")
        self.omega = omega
        self.its = its
        self.symmetric = symmetric

    def _set_up(self, op):
        """The `gstrs` arguments of both sweeps, read off A with one mask
        over its column indices against the row ids.  `_nonzero_diagonal`
        has checked that A stores every diagonal entry, so in sorted rows
        it is each row's first entry of the upper triangle."""
        A = _assembled(op, self).tocsr()
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        self.A = A if self.its > 1 else None  # only a repeated sweep reads A
        n = A.shape[0]
        self._dw = _nonzero_diagonal(A, self) / self.omega
        self._inv = 1.0 / self._dw
        row = np.repeat(np.arange(n, dtype=A.indices.dtype),
                        np.diff(A.indptr))
        lower = A.indices < row
        ldata, lind, lptr = _triangle(A, lower, self)
        udata, uind, uptr = _triangle(A, ~lower, self)
        udata[uptr[:-1]] = self._dw
        ldata *= self._inv[lind]
        udata *= self._inv[uind]
        ids = np.arange(n + 1, dtype=np.intc)
        self._fwd = (n, n, np.ones(n), ids[:-1], ids,
                     n, len(ldata), ldata, lind, lptr)
        self._bwd = (n, len(udata), udata, uind, uptr,
                     n, 0, np.empty(0), ids[:0], np.zeros(n + 1, np.intc))

    def _solve(self, sweep, b):
        """x with T x = b for the triangle T of `sweep` (`_fwd`, `_bwd`)."""
        x, info = _gstrs("T", *sweep, b)
        if info:
            raise SingularFactor(f"{self.name}: SuperLU's triangular solve "
                                 f"failed (info={info})")
        return x * self._inv

    def _sweep(self, r):
        w = self.omega
        y = self._solve(self._fwd, r)
        if self.symmetric:
            return w * (2.0 - w) * self._solve(self._bwd, self._dw * y)
        return y

    def apply(self, r):
        z = self._sweep(r)
        for _ in range(self.its - 1):
            z = z + self._sweep(r - self.A @ z)
        return z

    def _view_body(self, indent):
        pad = " " * indent
        return [f"{pad}omega={self.omega:g}, its={self.its}, "
                f"symmetric={self.symmetric}"]


class LUPC(Preconditioner):
    type_name = "lu"

    def _set_up(self, op):
        self.fact = None   # an update frees the old factor before it factors
        self.fact = _factor(spla.splu, _assembled(op, self), self)

    def apply(self, r):
        return self.fact.solve(r)


class ILUPC(Preconditioner):
    type_name = "ilu"

    def __init__(self, drop_tol=1e-4, fill_factor=10.0, prefix=""):
        super().__init__(prefix)
        # the ranges `spilu` documents (an infinite fill factor ends in a
        # MemoryError); a NaN fails both checks
        if not 1.0 <= fill_factor < np.inf:
            raise ValueError(f"{self.name}: ilu fill factor must be finite "
                             f"and at least 1, not {fill_factor:g}")
        if not 0.0 <= drop_tol <= 1.0:
            raise ValueError(f"{self.name}: ilu drop tolerance must lie in "
                             f"[0, 1], not {drop_tol:g}")
        self.drop_tol = drop_tol
        self.fill_factor = fill_factor

    def _set_up(self, op):
        self.fact = None   # an update frees the old factor before it factors
        self.fact = _factor(spla.spilu, _assembled(op, self), self,
                            drop_tol=self.drop_tol,
                            fill_factor=self.fill_factor)

    def apply(self, r):
        return self.fact.solve(r)

    def _view_body(self, indent):
        pad = " " * indent
        return [f"{pad}drop_tol={self.drop_tol:g}, "
                f"fill_factor={self.fill_factor:g}"]


# --- solver-as-preconditioner ---------------------------------------------

class KSPPC(Preconditioner):
    """An inner Krylov solve used as a preconditioner.  The outer method
    must be flexible (fgmres or richardson) unless the inner iteration is
    run to a fixed, state-independent operation count.  The one node that
    keeps the operator it is set up on: its apply solves with it."""

    type_name = "ksp"

    def __init__(self, *, ksp_maker, prefix=""):
        super().__init__(prefix)
        self.ksp_maker = ksp_maker

    def _set_up(self, op):
        self.op = op
        self.ksp = self.ksp_maker(op)

    def _update(self, op):
        self.op = op
        self.ksp.pc.update(op)

    def apply(self, r):
        x, _ = self.ksp.solve(self.op, r)
        return x

    def _view_body(self, indent):
        return [view_ksp(self.ksp, indent)]


class TelescopePC(Preconditioner):
    """Pass-through wrapper around an inner preconditioner (kept for
    option-file compatibility with redistribution-style solver layouts;
    serial operation makes it the identity wrapper)."""

    type_name = "telescope"

    def __init__(self, *, inner_maker, prefix=""):
        super().__init__(prefix)
        self.inner_maker = inner_maker

    def _set_up(self, op):
        self.inner = self.inner_maker(self._inner_op(op))

    def _update(self, op):
        self.inner.update(self._inner_op(op))

    def _inner_op(self, op):
        """The operator the inner preconditioner is built on."""
        return op

    def apply(self, r):
        return self.inner.apply(r)

    def _view_body(self, indent):
        return [self.inner.view(indent)]


class AssembledPC(TelescopePC):
    """Force-assemble an implicit operator and precondition with an inner
    (typically algebraic) preconditioner built on the assembled matrix."""

    type_name = "assembled"

    def _inner_op(self, op):
        if isinstance(op, AssembledOperator):
            return op
        return _implicit(op, self).assemble()

    def apply(self, r):
        return self.inner.apply(r)


# --- fieldsplit ------------------------------------------------------------

class SchurOperator(LinearOperator):
    """Matrix-free Schur complement S = A11 - A10 inv(A00) A01, where the
    inner inverse is realised by a solver on the (0,0) block.  The
    operator keeps the (1,1) sub-operator around so that preconditioners
    built on S can still reach its form."""

    def __init__(self, a11, a10, a01, a00_ksp, a00):
        self.a11 = a11
        self.a10 = a10
        self.a01 = a01
        self.a00_ksp = a00_ksp
        self.a00 = a00
        self.shape = a11.shape

    def inner_solve(self, v):
        x, _ = self.a00_ksp.solve(self.a00, v)
        return x

    def apply(self, x):
        y = self.a11.apply(x)
        return y - self.a10.apply(self.inner_solve(self.a01.apply(x)))


# a step of a fieldsplit sweep: z[split] += the sub-solve of
# (r[split] if takes_r else 0) - sum of a_ij z[j] over its (j, a_ij) blocks
_Step = namedtuple("_Step", "split blocks takes_r", defaults=(True,))


class FieldSplitPC(Preconditioner):
    """Block preconditioning by fields: additive (block Jacobi),
    multiplicative (lower block Gauss-Seidel), or a 2x2 Schur-complement
    factorisation (diag / lower / upper / full).  The splits must put each
    field in exactly one split.

    Every type is one block-triangular sweep, built from the operator at
    set-up and at each update: the splits i in solve order, each with the
    off-diagonal blocks A_ij that carry earlier splits j into its
    right-hand side; a step adds to z_i the sub-solve of r_i - sum_j A_ij
    z_j.  Additive steps carry no blocks,
    multiplicative ones every lower block.  A Schur sweep has the
    SchurOperator as the operator of split 1: `diag` carries no blocks,
    `lower` carries A10, `upper` solves split 1 first and carries A01, and
    `full` is `lower` plus the upper correction z_0 += solve_0(-A01 z_1),
    whose right-hand side does not start from r_0."""

    type_name = "fieldsplit"

    def __init__(self, splits=None, fs_type="additive", fact_type="full", *,
                 sub_ksp_maker, prefix=""):
        super().__init__(prefix)
        if fs_type not in ("additive", "multiplicative", "schur"):
            raise ValueError(f"{self.name}: unknown fieldsplit type "
                             f"{fs_type!r}")
        if fact_type not in ("diag", "lower", "upper", "full"):
            raise ValueError(f"{self.name}: unknown schur factorization "
                             f"{fact_type!r}")
        self.splits = splits
        self.fs_type = fs_type
        self.fact_type = fact_type
        self.sub_ksp_maker = sub_ksp_maker

    def _index_sets(self, op):
        fields = op.field_index_sets()
        if fields is None:
            raise MissingContext(f"{self.name} needs an operator with "
                                 f"field information")
        splits = self.splits
        if splits is None:
            splits = [(i,) for i in range(len(fields))]
        self.splits = [tuple(s) for s in splits]
        used = [f for s in self.splits for f in s]
        if sorted(used) != list(range(len(fields))):
            shared = sorted({f for f in used if used.count(f) > 1})
            left_out = sorted(set(range(len(fields))) - set(used))
            unknown = sorted(set(used) - set(range(len(fields))))
            raise CompositionError(
                f"{self.name}: splits "
                f"{self.splits} must put each of the fields 0 to "
                f"{len(fields) - 1} in exactly one split (in several: "
                f"{shared}, in none: {left_out}, unknown: {unknown})")
        return [np.concatenate([fields[f] for f in s]) for s in self.splits]

    def _set_up(self, op):
        self.sub_ksps = []
        self._split(op)

    def _update(self, op):
        """The blocks, sweep and Schur complement are extracted again from
        op, of either kind, and the kept sub-KSPs updated on them."""
        self._split(op)

    def _split(self, op):
        """Index sets, blocks and sweep of op, and the sub-KSP of each
        split on its operator: made at set-up, updated after."""
        iss = self.index_sets = self._index_sets(op)
        ns = len(iss)
        block = lambda i, j: op.extract_sub(iss[i], iss[j])
        self.sub_ops = [block(i, i) for i in range(ns)]

        def solver(i):
            if i < len(self.sub_ksps):
                self.sub_ksps[i].pc.update(self.sub_ops[i])
            else:
                self.sub_ksps.append(self.sub_ksp_maker(i, self.sub_ops[i]))
            return self.sub_ksps[i]

        if self.fs_type != "schur":
            lower = self.fs_type == "multiplicative"
            self.sweep = [_Step(i, [(j, block(i, j))
                                    for j in range(i if lower else 0)])
                          for i in range(ns)]
            for i in range(ns):
                solver(i)
            return
        if ns != 2:
            raise CompositionError(f"{self.name}: schur fieldsplit needs "
                                   f"exactly two splits")
        a01, a10 = block(0, 1), block(1, 0)
        self.sub_ops[1] = SchurOperator(self.sub_ops[1], a10, a01, solver(0),
                                        self.sub_ops[0])
        solver(1)
        lower = [_Step(0, []), _Step(1, [(0, a10)])]
        self.sweep = {"diag": [_Step(0, []), _Step(1, [])], "lower": lower,
                      "upper": [_Step(1, []), _Step(0, [(1, a01)])],
                      "full": lower + [_Step(0, [(1, a01)], False)],
                      }[self.fact_type]

    def apply(self, r):
        iss = self.index_sets
        z = np.zeros_like(r)
        for i, blocks, takes_r in self.sweep:
            rhs = r[iss[i]] if takes_r else np.zeros(len(iss[i]))
            for j, a_ij in blocks:
                rhs = rhs - a_ij.apply(z[iss[j]])
            # on the operator its sub-KSP was built on
            x, _ = self.sub_ksps[i].solve(self.sub_ops[i], rhs)
            z[iss[i]] += x
        return z

    def _view_body(self, indent):
        pad = " " * indent
        lines = [f"{pad}type={self.fs_type}" +
                 (f", factorization={self.fact_type}"
                  if self.fs_type == "schur" else "")]
        for i, s in enumerate(self.splits):
            lines.append(f"{pad}split {i}: fields {s}")
            lines.append(view_ksp(self.sub_ksps[i], indent + 2))
        return lines


# --- pressure Schur approximations ----------------------------------------

def _pressure_setup(op, pc):
    """Pressure space, context, and state space off a Schur or implicit
    operator."""
    if isinstance(op, SchurOperator):
        op = op.a11
    impl = _implicit(op, pc)
    form = impl.form
    if form.col_space.num_fields != 1:
        raise MissingContext(f"{pc.name} expects a single-field pressure "
                             f"block")
    if form.col_space.fields[0].ncomp != 1:
        raise MissingContext(f"{pc.name} expects a scalar pressure space")
    return form.col_space.fields[0], form.context, form.state_space


class PCDPC(Preconditioner):
    """Pressure convection-diffusion Schur approximation
    z = inv(Kp) Fp inv(Mp) r with Mp the pressure mass matrix, Kp the
    pressure Laplacian (pure Neumann, one pinned dof), and Fp the pressure
    convection-diffusion operator linearised at the current state.  As in
    Firedrake's PCD, Mp, Kp and their solvers are built once at set-up;
    `update` reassembles only Fp, at the new state."""

    type_name = "pcd"

    def __init__(self, *, mp_maker, kp_maker, prefix=""):
        super().__init__(prefix)
        self.mp_maker = mp_maker
        self.kp_maker = kp_maker

    def _set_up(self, op):
        p_space, ctx, state_space = _pressure_setup(op, self)
        if "state" not in ctx:
            raise MissingContext(f"{self.name} needs a state in the "
                                 f"operator context to linearise the "
                                 f"pressure convection term")
        Re = float(ctx.get("Re", 1.0))
        vf = int(ctx.get("velocity_field", 0))
        self.mp_op = AssembledOperator(mass_form(p_space).assemble())
        pin = np.array([0], dtype=np.int64)
        self.kp_op = ImplicitOperator(stiffness_form(p_space),
                                      bc_rows=pin, bc_cols=pin).assemble()
        fp = [StiffnessTerm(1.0 / Re), AdvectionTerm(StateWind(vf))]
        self.fp_form = Form("convection_diffusion", p_space, p_space,
                            {(0, 0): fp}, context=ctx, state_space=state_space)
        self.Fp = self.fp_form.assemble()
        self.mp_ksp = self.mp_maker(self.mp_op)
        self.kp_ksp = self.kp_maker(self.kp_op)

    def _update(self, op):
        self.Fp = self.fp_form.assemble()

    def apply(self, r):
        y, _ = self.mp_ksp.solve(self.mp_op, r)
        y = self.Fp @ y
        y[0] = 0.0  # pinned pressure dof fixes the constant mode
        z, _ = self.kp_ksp.solve(self.kp_op, y)
        return z

    def _view_body(self, indent):
        pad = " " * indent
        return [f"{pad}mass solve:", view_ksp(self.mp_ksp, indent + 2),
                f"{pad}laplacian solve:", view_ksp(self.kp_ksp, indent + 2)]


class MassSchurPC(Preconditioner):
    """Viscosity-scaled pressure mass approximation of the Schur
    complement: z = (1/Re) inv(Mp) r.  Nothing in it reads the state, so
    `update` keeps Mp and its solver."""

    type_name = "mass"

    def __init__(self, *, mp_maker, prefix=""):
        super().__init__(prefix)
        self.mp_maker = mp_maker

    def _set_up(self, op):
        p_space, ctx, _ = _pressure_setup(op, self)
        self.scale = 1.0 / float(ctx.get("Re", 1.0))
        self.mp_op = AssembledOperator(mass_form(p_space).assemble())
        self.mp_ksp = self.mp_maker(self.mp_op)

    def _update(self, op):
        pass

    def apply(self, r):
        z, _ = self.mp_ksp.solve(self.mp_op, r)
        return self.scale * z

    def _view_body(self, indent):
        pad = " " * indent
        return [f"{pad}scale={self.scale:g}", view_ksp(self.mp_ksp, indent)]


# --- two-level additive Schwarz -------------------------------------------

# block entries per chunk of patches whose blocks are summed from element
# matrices and inverted in one batched call.  It bounds the set-up
# transients of a chunk: its blocks, their inverses and, in proportion,
# the element-matrix entries gathered to sum them.  Fewer, larger chunks
# cut the Python work per chunk; 2**14 entries (128 KB of blocks) keep the
# set-up peak of 2D P4 n=16 under 1.7 times the bytes it keeps, where 2**15
# would not
_PATCH_CHUNK = 2 ** 14


class _PatchGroup(namedtuple("_PatchGroup", "dofs pair_row cell loc")):
    """k vertex patches of m dofs, `dofs` (k, m), and the int32 map that
    sums their blocks from element matrices: the (cell, vertex) pairs of
    their stars, ordered by patch, with the row in `dofs` of the patch of
    each (`pair_row`), its `cell`, and `loc` (npairs, ncomp, nnodes), the
    place in the patch of each local dof of the cell, or -1."""

    def blocks(self, E):
        """(rows, blocks) for each chunk of patches, summed from the element
        matrices E (`Form.block_local_matrices`): a unit, a pair or, when E
        couples no components, a (pair, component), adds the entries
        between its local dofs in the patch, and only those, in one
        bincount.  The index arithmetic is int32 when every entry of E has
        an int32 offset, as `Form.assemble` chooses its index type."""
        k, m = self.dofs.shape
        K, nn = E.shape[1], E.shape[3]
        itype = (np.int32 if E.size <= np.iinfo(np.int32).max
                 else np.int64)
        step = max(1, _PATCH_CHUNK // (m * m))
        for s in range(0, k, step):
            rows = slice(s, min(s + step, k))
            p0, p1 = np.searchsorted(self.pair_row, (s, rows.stop))
            loc = self.loc[p0:p1]
            # items: the local dofs in the patch, by pair, component, node
            item = np.flatnonzero(loc >= 0).astype(itype)
            place = loc.ravel().take(item)
            pair, local = np.divmod(item, loc.shape[1] * nn)
            comp, node = np.divmod(local, nn)
            per = nn if K == 1 else loc.shape[1] * nn   # local dofs a unit
            n = np.bincount(item // per,
                            minlength=loc.size // per).astype(itype)
            reps = np.repeat(n, n)        # entries in an item's row
            # an item's row repeats it; col[e] is the column item of entry e
            col = np.repeat(np.repeat(np.cumsum(n, dtype=itype) - n, n)
                            - (np.cumsum(reps, dtype=itype) - reps), reps)
            col += np.arange(len(col), dtype=itype)
            # row of each item in the (len*m, m) stack of the chunk's blocks
            row = ((self.pair_row[p0:p1] - s) * m)[pair] + place
            tgt = np.repeat(row * m, reps) + place[col]
            comp *= K > 1
            cell = self.cell[p0:p1].astype(itype)
            src = ((cell * (K * K * nn * nn))[pair]
                   + (comp * K * nn + node) * nn)
            vals = E.ravel()[np.repeat(src, reps)
                             + (comp * nn * nn + node)[col]]
            yield rows, np.bincount(tgt, vals, minlength=(rows.stop - s)
                                    * m * m).reshape(-1, m, m)


class SchwarzPC(Preconditioner):
    """Two-level additive Schwarz: vertex-patch solves on the fine space
    plus an exact coarse solve on the piecewise-linear space on the same
    mesh, combined additively.  Patch dofs are those whose supporting
    cells all lie in the vertex star; Dirichlet dofs act as identity.

    Everything comes from the operator: the form, its Newton state and its
    Dirichlet dofs, the same for rows and columns.  The coarse Dirichlet
    dofs are the coarse dofs that a fine Dirichlet dof interpolates from
    (its row of the prolongation P).  So any square single-field implicit
    operator will do, such as the velocity block of a fieldsplit
    (`-fieldsplit_0_pc_type schwarz`).

    Only the coarse operator is assembled.  A patch block is the sum of the
    element matrices of the vertex star restricted to the patch dofs, as
    PCPATCH builds patch operators from cell integrals: every cell that
    couples two patch dofs is in the star, and no Dirichlet dof is in a
    patch.  Patches are grouped by size (`_PatchGroup`); set-up inverts
    each group's blocks, a chunk at a time, and keeps only its `(dofs,
    inverse)` in `patches`, the inverses (k, m, m) the same bytes as LU
    factors.  When every term of the form declares itself SPD
    (`Term.spd`: mass and stiffness with a positive number as
    coefficient), the blocks are SPD and each batch is inverted from its
    Cholesky factor (LAPACK potrf/potri), which also makes every inverse
    exactly symmetric; otherwise by LU.  A singular block raises
    `SingularFactor` on either path.  An apply is one gather, batched
    product and scatter per group, as PCPATCH's dense-inverse mode applies
    patches."""

    type_name = "schwarz"

    def _set_up(self, op):
        impl = _implicit(op, self)
        form = impl.form
        if form.col_space.num_fields != 1 or form.row_space is not form.col_space:
            raise MissingContext(f"{self.name} expects a square "
                                 f"single-field operator")
        V = form.col_space.fields[0]
        if V.element.degree < 2:
            raise CompositionError(f"{self.name} needs polynomial degree "
                                   f">= 2; the coarse space would coincide "
                                   f"with the fine one")
        self.bc_dofs = np.unique(impl.bc_rows)
        if not np.array_equal(self.bc_dofs, np.unique(impl.bc_cols)):
            raise CompositionError(f"{self.name} needs the same Dirichlet "
                                   f"rows and columns")
        groups = self._build_patches(V, self.bc_dofs)

        # coarse level: same form and Newton state on the degree-1 space
        Vc = build_space(V.mesh, 1, ncomp=V.ncomp)
        coarse_form = Form(form.kind + "_coarse", Vc, Vc, form.blocks,
                           context=form.context,
                           state_space=form.state_space)
        self.P = self._prolongation(V, Vc)
        self.R = self.P.T.tocsr()   # the restriction, kept for every apply
        cbc = np.unique(self.P[self.bc_dofs].indices)
        self.coarse_bc = cbc
        Ac = ImplicitOperator(coarse_form, bc_rows=cbc, bc_cols=cbc).assemble()
        self.coarse_fact = _factor(spla.splu, Ac.A, self)

        E = form.block_local_matrices(0, 0)
        spd = all(term.spd for term in form.blocks[0, 0])
        self.patches = []
        for group in groups:
            inv = np.empty(group.dofs.shape + group.dofs.shape[1:])
            for rows, blocks in group.blocks(E):
                try:
                    inv[rows] = (sla.inv(blocks, assume_a="pos",
                                         check_finite=False) if spd
                                 else np.linalg.inv(blocks))
                except np.linalg.LinAlgError as exc:
                    raise SingularFactor(f"{self.name}: Singular matrix") \
                        from exc
            self.patches.append((group.dofs, inv))

    @staticmethod
    def _prolongation(V, Vc):
        """Interpolation from the degree-1 space into the fine space.  A
        fine node takes the degree-1 basis values at it in the last cell
        that holds it; the cells sharing it differ in the last bit."""
        flat = V.cell_scalar_dofs.ravel()
        _, last = np.unique(flat[::-1], return_index=True)
        cell, node = np.divmod(len(flat) - 1 - last, V.element.nnodes)
        vals = tabulate(lagrange_element(V.mesh.dim, 1),
                        V.element.nodes).values[node]   # (nfine, nverts)
        keep = np.abs(vals) > 1e-14
        Ps = sp.csr_matrix((vals[keep], (np.nonzero(keep)[0],
                                         Vc.cell_scalar_dofs[cell][keep])),
                           shape=(V.num_scalar_dofs, Vc.num_scalar_dofs))
        if V.ncomp == 1:
            return Ps
        return sp.kron(Ps, sp.eye(V.ncomp), format="csr")

    @staticmethod
    def _build_patches(V, bc_dofs):
        """Vertex patches grouped by size, in vertex order within a size, as
        `_PatchGroup`s; a patch holds its dofs ascending, without those in
        `bc_dofs`.  A scalar dof belongs to the patch of vertex v when every
        cell that supports it contains v, that is when the number of its
        cells containing v equals its number of cells."""
        cells, nc, nn = V.mesh.cells, V.ncomp, V.element.nnodes
        ns, cell_sdofs = V.num_scalar_dofs, V.cell_scalar_dofs
        # one (vertex, dof) pair per cell containing both, keyed vertex-major
        keys, count = np.unique(cells[:, None, :] * ns
                                + cell_sdofs[:, :, None], return_counts=True)
        keys = keys[count == np.bincount(cell_sdofs.ravel())[keys % ns]]
        # as vertex * num_dofs + dof, with the components of each dof
        keys = (keys[:, None] * nc + np.arange(nc)).ravel()
        keys = keys[~np.isin(keys % V.num_dofs, bc_dofs)]
        verts, dofs = np.divmod(keys, V.num_dofs)
        sizes = np.bincount(verts, minlength=V.mesh.num_vertices)
        first = np.cumsum(sizes) - sizes
        # the place of each local dof of a cell in the patch of each vertex
        local = cells[:, :, None] * V.num_dofs + V.cell_dofs[:, None, :]
        place = np.searchsorted(keys, local)
        inside = keys.take(place, mode="clip") == local
        place -= first[cells][:, :, None]
        # patches by size; (cell, vertex) pairs by patch, then cell
        order = np.argsort(sizes, kind="stable")
        pair_row = order.argsort()[cells].ravel()
        by_row = np.argsort(pair_row, kind="stable")
        pair_row = pair_row[by_row]
        loc = np.ascontiguousarray(np.where(inside, place, -1).astype(
            np.int32).reshape(-1, nn, nc)[by_row].transpose(0, 2, 1))
        groups = []
        for m in np.unique(sizes[sizes > 0]):
            r0, r1 = np.searchsorted(sizes[order], (m, m + 1))
            p0, p1 = np.searchsorted(pair_row, (r0, r1))
            groups.append(_PatchGroup(
                dofs[first[order[r0:r1]][:, None] + np.arange(m)],
                (pair_row[p0:p1] - r0).astype(np.int32),
                (by_row[p0:p1] // cells.shape[1]).astype(np.int32),
                loc[p0:p1]))
        return groups

    def apply(self, r):
        rc = self.R @ r
        rc[self.coarse_bc] = 0.0
        zc = self.coarse_fact.solve(rc)
        z = self.P @ zc
        for dofs, inv in self.patches:
            y = inv @ r[dofs][..., None]
            z += np.bincount(dofs.ravel(), y.ravel(), minlength=len(r))
        if len(self.bc_dofs):
            z[self.bc_dofs] = r[self.bc_dofs]
        return z

    def _view_body(self, indent):
        pad = " " * indent
        np_ = sum(len(dofs) for dofs, _ in self.patches)
        max_patch = max((dofs.shape[1] for dofs, _ in self.patches),
                        default=0)
        return [f"{pad}patches={np_}, max_patch={max_patch}, "
                f"coarse_dofs={self.P.shape[1]}, store_operators=True"]

"""Weak-form catalogue: element kernels, global assembly, matrix-free action.

A Form is a block-structured bilinear form over mixed spaces.  Each block is
a sum of terms from a small kernel vocabulary (mass, stiffness, advection,
linearised reaction, pressure gradient/divergence, buoyancy and temperature
coupling).  Every term has two definitions of the same integrand: `local`
builds element matrices for every cell at once, which global assembly
scatters into CSR; `pointwise` evaluates the integrand at the quadrature
points, which the matrix-free action uses.

Assembly uses the tensor representation of affine simplices (Kirby and
Logg, "A compiler for variational forms", ACM TOMS 32(3), 2006).  Each
term builds a per-point factor of shape (ncells, nq*a*b): weight times
coefficient, with the per-cell `Jinv` folded in for each slot that reads
gradients (a, b = dim there, 1 for values).  One product with the
reference tensor R[(q, a, b), (i, j)] of the test and trial tabulations
gives the element matrices of every cell; terms that couple components
carry the component indices as leading axes of the factor.  No physical
gradient array (ncells, nq, nn, dim) is formed, and state coefficients
come from the same quadrature-point evaluation the action uses.

The action works at quadrature points and never forms an element matrix.
For each trial field it gathers the local dofs once and takes values and
physical gradients with one product against the reference tabulation and
one batched product with the per-cell affine `Jinv`.  The terms add their
integrands into per-test-field accumulators, which are weighted, mapped
back through `Jinv` transposed and the transposed tabulations, and
scattered with one `bincount` per test field.  State coefficients (the
Newton wind and state gradients) are evaluated from `context["state"]` on
every apply, so nothing can go stale.  Action and assembly agree to
rounding.

Boundary conditions follow one canonical convention: assembled matrices have
Dirichlet rows and columns zeroed with a unit diagonal, and the matrix-free
action reproduces that matrix by zeroing Dirichlet entries of the input and
copying them through to the output.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from .quadrature import make_quadrature, MAX_DEGREE
from .elements import tabulate
from .spaces import FunctionSpace, MixedSpace

__all__ = [
    "Form", "mass_form", "stiffness_form", "convection_diffusion_form",
    "stokes_form", "ns_jacobian_form", "rb_jacobian_form",
    "pressure_mass_form", "pressure_laplacian_form", "pcd_form",
    "apply_bcs_matrix", "collect_bc_dofs",
    "ns_residual", "rb_residual", "jacobian_check",
]

UPWARD = {2: np.array([0.0, 1.0]), 3: np.array([0.0, 0.0, 1.0])}


class SpaceEval:
    """Tabulated basis data of one space at one rule, mapped to all cells.
    The physical gradients are formed on first use."""

    def __init__(self, space, geom, rule):
        self.space = space
        self.Jinv = geom.Jinv
        tab = tabulate(space.element, rule.points)
        self.values = tab.values                      # (nq, nn)
        self.ref_grads = tab.gradients                # (nq, nn, dim)

    @functools.cached_property
    def grads(self):
        """Physical gradients (ncells, nq, nn, dim)."""
        return np.einsum("qne,ced->cqnd", self.ref_grads, self.Jinv)

    def function_values(self, x):
        """Pointwise values of the (possibly vector) function x: scalar ->
        (ncells, nq); vector -> (ncells, nq, ncomp)."""
        xloc = self._local(x)
        if self.space.ncomp == 1:
            return np.einsum("qn,cn->cq", self.values, xloc)
        return np.einsum("qn,cnk->cqk", self.values, xloc)

    def function_grads(self, x):
        """Pointwise gradients: scalar -> (ncells, nq, dim); vector ->
        (ncells, nq, ncomp, dim)."""
        xloc = self._local(x)
        if self.space.ncomp == 1:
            return np.einsum("cqnd,cn->cqd", self.grads, xloc)
        return np.einsum("cqnd,cnk->cqkd", self.grads, xloc)

    def _local(self, x):
        nc = self.space.ncomp
        loc = x[self.space.cell_dofs]
        if nc == 1:
            return loc
        return loc.reshape(len(loc), -1, nc)


class _Reference:
    """Reference tabulation of one space at one rule, shared by the
    matrix-free action, assembly and load vectors: values (nq, nn) and
    gradients with rows ordered (point, reference direction), (nq*dim,
    nn).  Local dofs are handled component-major, (ncells*ncomp, nn)."""

    def __init__(self, space, rule):
        tab = tabulate(space.element, rule.points)
        nq, nn, dim = tab.gradients.shape
        self.space = space
        self.ncomp = space.ncomp
        self.values = tab.values
        self.grads = tab.gradients.transpose(0, 2, 1).reshape(nq * dim, nn)

    def slot(self, kind):
        """The basis at the points for a term slot reading "values" or
        "grads": (nq, 1, nn) or (nq, dim, nn) over reference directions."""
        nq, nn = self.values.shape
        table = self.values if kind == "values" else self.grads
        return table.reshape(nq, -1, nn)

    def gather(self, x):
        """Local dofs of x, component-major."""
        dofs = self.space.cell_dofs
        xloc = x[dofs].reshape(len(dofs), -1, self.ncomp)
        return xloc.transpose(0, 2, 1).reshape(-1, xloc.shape[1])

    def scatter(self, yloc):
        """Sum component-major local values into a vector of the space."""
        dofs = self.space.cell_dofs
        yloc = yloc.reshape(len(dofs), self.ncomp, -1).transpose(0, 2, 1)
        return np.bincount(dofs.ravel(), weights=yloc.ravel(),
                           minlength=self.space.num_dofs)


class _AtPoints:
    """One field at the quadrature points of every cell: values (ncells,
    ncomp, nq) and physical gradients (ncells, ncomp, nq, dim), each
    computed from the gathered local dofs on first use."""

    def __init__(self, ref, xloc, Jinv):
        self.ref = ref
        self.xloc = xloc  # (ncells*ncomp, nn)
        self.Jinv = Jinv

    @functools.cached_property
    def values(self):
        return (self.xloc @ self.ref.values.T).reshape(
            len(self.Jinv), self.ref.ncomp, -1)

    @functools.cached_property
    def grads(self):
        ncells, dim, _ = self.Jinv.shape
        ref = (self.xloc @ self.ref.grads.T).reshape(ncells, -1, dim)
        return (ref @ self.Jinv).reshape(ncells, self.ref.ncomp, -1, dim)


class _StateAtPoints(dict):
    """Fields of the form's Newton state at the quadrature points, each
    evaluated once per action from `context["state"]`."""

    def __init__(self, form):
        super().__init__()
        self.form = form

    def __missing__(self, field):
        form = self.form
        x = form.context["state"][form.state_space.field_slice(field)]
        at = self[field] = form.at_points(form.state_space.fields[field], x)
        return at


# --- kernel vocabulary ----------------------------------------------------
#
# Each term computes local matrices (ncells, nt, ns) in the interleaved
# component layout of the involved spaces, and its integrand at the
# quadrature points in the component-major layout of `_AtPoints`.  `wq` is
# weights * detJ, shape (ncells, nq).

def _component_diag(scalar_local, ncomp):
    if ncomp == 1:
        return scalar_local
    nc, ni, nj = scalar_local.shape
    out = np.zeros((nc, ni * ncomp, nj * ncomp))
    for k in range(ncomp):
        out[:, k::ncomp, k::ncomp] = scalar_local
    return out


def _interleave(blk):
    """Place per-component blocks blk[:, k, l] of shape (ncells, kt, ks, nt,
    ns) at stride kt in the rows and ks in the columns: (ncells, nt*kt,
    ns*ks)."""
    ncells, kt, ks, nt, ns = blk.shape
    out = np.empty((ncells, nt * kt, ns * ks))
    for k in range(kt):
        for l in range(ks):
            out[:, k::kt, l::ks] = blk[:, k, l]
    return out


def _weighted_jinv(form):
    """wq[c, q] Jinv[c, e, d] as (ncells, d, nq*e): the factor of a term
    whose one gradient slot has its physical direction d as the component
    index of the vector space on the other side."""
    JinvT = np.swapaxes(form.geom.Jinv, 1, 2)
    f = form.wq[:, None, :, None] * JinvT[:, :, None, :]
    return f.reshape(len(f), form.mesh.dim, -1)


class Term:
    """One kernel contribution to a block of a form, defined twice over the
    same integrand.

    `local` returns element matrices (ncells, nt, ns) for assembly, from a
    per-point factor through `Form.element_matrices`, which reads the
    term's `test` and `trial` slots.
    `pointwise` returns the integrand of the matrix-free action at the
    quadrature points, unweighted, as a pair (against test values, against
    test gradients) of new arrays (ncells, kt, nq) and (ncells, kt, nq,
    dim), either of them None.  It reads `trial` of the trial field
    (`u.values` or `u.grads`, see `_AtPoints`).
    Both read, if `state` is a pair (field, "values" | "grads"), that data
    of the Newton state field from `state[field]` (see `_StateAtPoints`).
    """

    trial = "values"
    test = "values"
    state = None

    def local(self, form, test, trial, state):
        raise NotImplementedError

    def pointwise(self, form, u, state):
        raise NotImplementedError

    def flops_per_cell(self, nq, kt, ks, dim):
        """Flops of `pointwise` on one cell, adding into the accumulator
        included."""
        raise NotImplementedError


class MassTerm(Term):
    def __init__(self, coef=1.0):
        self.coef = coef

    def local(self, form, test, trial, state):
        c = form.coefficient_at_points(self.coef)
        scalar = form.element_matrices(self, test, trial, form.wq * c)
        return _component_diag(scalar, trial.ncomp)

    def pointwise(self, form, u, state):
        return form.pointwise_coefficient(self.coef) * u.values, None

    def flops_per_cell(self, nq, kt, ks, dim):
        return 2 * ks * nq


class StiffnessTerm(Term):
    trial = test = "grads"

    def __init__(self, coef=1.0):
        self.coef = coef

    def local(self, form, test, trial, state):
        c = form.coefficient_at_points(self.coef)
        Jinv = form.geom.Jinv
        metric = Jinv @ np.swapaxes(Jinv, 1, 2)  # (ncells, e, f)
        factor = (form.wq * c)[:, :, None, None] * metric[:, None]
        scalar = form.element_matrices(self, test, trial,
                                       factor.reshape(len(factor), -1))
        return _component_diag(scalar, trial.ncomp)

    def pointwise(self, form, u, state):
        c = np.asarray(form.pointwise_coefficient(self.coef))
        return None, c[..., None] * u.grads

    def flops_per_cell(self, nq, kt, ks, dim):
        return 2 * ks * nq * dim


class AdvectionTerm(Term):
    """(w . grad u, v) with the wind supplied by a coefficient."""

    trial = "grads"

    def __init__(self, wind):
        self.wind = wind
        if isinstance(wind, StateWind):
            self.state = (wind.field, "values")

    def _wind(self, form, state):
        """The wind at the quadrature points, (ncells, nq, dim)."""
        if self.state:
            return np.swapaxes(state[self.wind.field].values, 1, 2)
        return form.wind_at_points(self.wind)

    def local(self, form, test, trial, state):
        # w . grad psi_j = (Jinv w) . reference gradient of psi_j
        wref = self._wind(form, state) @ np.swapaxes(form.geom.Jinv, 1, 2)
        factor = form.wq[:, :, None] * wref
        scalar = form.element_matrices(self, test, trial,
                                       factor.reshape(len(factor), -1))
        return _component_diag(scalar, trial.ncomp)

    def pointwise(self, form, u, state):
        w = self._wind(form, state)
        return np.sum(u.grads * w[:, None], axis=3), None

    def flops_per_cell(self, nq, kt, ks, dim):
        return 2 * ks * nq * dim


class VectorReactionTerm(Term):
    """Newton linearisation term (du . grad u0, v); couples components."""

    def __init__(self, state_field):
        self.state_field = state_field
        self.state = (state_field, "grads")

    def local(self, form, test, trial, state):
        g0 = state[self.state_field].grads  # (ncells, k, nq, l)
        factor = np.swapaxes(g0, 2, 3) * form.wq[:, None, None, :]
        return _interleave(form.element_matrices(self, test, trial, factor))

    def pointwise(self, form, u, state):
        g0 = state[self.state_field].grads  # (ncells, k, nq, l)
        return np.sum(g0 * np.swapaxes(u.values, 1, 2)[:, None], axis=3), None

    def flops_per_cell(self, nq, kt, ks, dim):
        return 2 * kt * ks * nq


class PressureGradientTerm(Term):
    """-(p, div v): vector test space, scalar trial space."""

    test = "grads"

    def local(self, form, test, trial, state):
        blk = form.element_matrices(self, test, trial, _weighted_jinv(form))
        return _interleave(-blk[:, :, None])

    def pointwise(self, form, u, state):
        ncells, _, nq = u.values.shape
        dim = form.mesh.dim
        g = np.zeros((ncells, dim, nq, dim))
        for k in range(dim):
            g[:, k, :, k] = -u.values[:, 0]
        return None, g

    def flops_per_cell(self, nq, kt, ks, dim):
        return dim * nq


class DivergenceTerm(Term):
    """(div u, q): scalar test space, vector trial space."""

    trial = "grads"

    def local(self, form, test, trial, state):
        blk = form.element_matrices(self, test, trial, _weighted_jinv(form))
        return _interleave(blk[:, None])

    def pointwise(self, form, u, state):
        return np.trace(u.grads, axis1=1, axis2=3)[:, None], None

    def flops_per_cell(self, nq, kt, ks, dim):
        return ks * nq


class BuoyancyTerm(Term):
    """(c dT zhat, v): vector test space, scalar trial space."""

    def __init__(self, coef):
        self.coef = coef

    def local(self, form, test, trial, state):
        c = form.coefficient_value(self.coef)
        zhat = UPWARD[test.mesh.dim]
        scalar = form.element_matrices(self, test, trial, form.wq)
        blk = (c * zhat)[:, None, None, None] * scalar[:, None, None]
        return _interleave(blk)

    def pointwise(self, form, u, state):
        c = form.coefficient_value(self.coef)
        zhat = UPWARD[form.mesh.dim]
        return (c * zhat)[None, :, None] * u.values, None

    def flops_per_cell(self, nq, kt, ks, dim):
        return 2 * kt * nq


class ScalarCouplingTerm(Term):
    """(du . grad s0, s): scalar test space, vector trial space."""

    def __init__(self, state_field):
        self.state_field = state_field
        self.state = (state_field, "grads")

    def local(self, form, test, trial, state):
        g0 = state[self.state_field].grads[:, 0]  # (ncells, nq, dim)
        factor = np.swapaxes(g0, 1, 2) * form.wq[:, None, :]
        return _interleave(form.element_matrices(self, test, trial,
                                                 factor)[:, None])

    def pointwise(self, form, u, state):
        g0 = state[self.state_field].grads[:, 0]  # (ncells, nq, dim)
        return np.sum(u.values * np.swapaxes(g0, 1, 2), axis=1,
                      keepdims=True), None

    def flops_per_cell(self, nq, kt, ks, dim):
        return 2 * ks * nq


# --- the form itself ------------------------------------------------------

class Form:
    """Block bilinear form with named coefficients and an optional mutable
    problem context (the PDE-level information a matrix-free operator and
    the preconditioners acting on it can read)."""

    def __init__(self, kind, row_space, col_space, blocks, context=None,
                 quad_degree=None, bc_diagonal=None, state_space=None):
        same = row_space is col_space
        if isinstance(row_space, FunctionSpace):
            row_space = MixedSpace([row_space])
        if isinstance(col_space, FunctionSpace):
            col_space = row_space if same else MixedSpace([col_space])
        if row_space.mesh is not col_space.mesh:
            raise ValueError("test and trial spaces live on different meshes")
        # whether Dirichlet dofs get a unit diagonal (square form over the
        # same fields) or plain zero rows/columns (off-diagonal block)
        self.bc_diagonal = (row_space is col_space if bc_diagonal is None
                            else bc_diagonal)
        self.kind = kind
        self.row_space = row_space
        self.col_space = col_space
        # the space the Newton state in the context lives on; sub-forms of a
        # bigger Jacobian keep reading the parent state
        self.state_space = state_space if state_space is not None else col_space
        self.blocks = dict(blocks)
        self.context = context if context is not None else {}
        if quad_degree is None:
            k = max(f.element.degree for f in
                    row_space.fields + col_space.fields)
            quad_degree = min(2 * k + 1, MAX_DEGREE)
        self.quad_degree = quad_degree
        self.mesh = row_space.mesh
        self.geom = self.mesh.geometry
        self.rule = make_quadrature(self.mesh.dim, quad_degree)
        self.wq = self.rule.weights[None, :] * self.geom.detJ[:, None]
        self._evals = {}
        self._refs = {}

    # -- context helpers ---------------------------------------------------

    def space_eval(self, space):
        ev = self._evals.get(id(space))
        if ev is None:
            ev = SpaceEval(space, self.geom, self.rule)
            self._evals[id(space)] = ev
        return ev

    def coefficient_value(self, coef):
        if isinstance(coef, str):
            return self.context[coef]
        return coef

    def _reference(self, space):
        ref = self._refs.get(id(space))
        if ref is None:
            ref = self._refs[id(space)] = _Reference(space, self.rule)
        return ref

    def at_points(self, space, x):
        """The function x of `space` at the quadrature points."""
        ref = self._reference(space)
        return _AtPoints(ref, ref.gather(x), self.geom.Jinv)

    def pointwise_coefficient(self, coef):
        """A constant coefficient as a float; a callable one at all
        quadrature points, (ncells, 1, nq)."""
        coef = self.coefficient_value(coef)
        if callable(coef):
            return self.coefficient_at_points(coef)[:, None, :]
        return float(coef)

    def coefficient_at_points(self, coef):
        """Scalar coefficient at all quadrature points, (ncells, nq)."""
        coef = self.coefficient_value(coef)
        if callable(coef):
            pts = self.geom.physical_points(self.rule)
            return np.apply_along_axis(coef, 2, pts)
        return np.broadcast_to(float(coef), self.wq.shape)

    def wind_at_points(self, wind):
        """Vector wind coefficient at all quadrature points, (ncells, nq,
        dim)."""
        wind = self.coefficient_value(wind)
        if callable(wind):
            pts = self.geom.physical_points(self.rule)
            return np.apply_along_axis(lambda x: np.asarray(wind(x)), 2, pts)
        arr = np.asarray(wind, dtype=float)
        ncells, nq = self.wq.shape
        return np.broadcast_to(arr, (ncells, nq, self.mesh.dim))

    # -- kernels -----------------------------------------------------------

    def element_matrices(self, term, test, trial, factor):
        """Element matrices of `term` between the spaces `test` and `trial`
        from its per-point factor, in one product with the reference
        tensor R[(q, e, f), (i, j)] = A[q, e, i] B[q, f, j], where A and B
        are the test and trial basis in the term's slots (`_Reference.slot`:
        e and f run over the reference directions of a "grads" slot and
        take one value for "values", a and b values in all).  `factor` is
        (..., nq*a*b), its last axis ordered (q, e, f); the result is (...,
        nt, ns)."""
        A = self._reference(test).slot(term.test)
        B = self._reference(trial).slot(term.trial)
        nt, ns = A.shape[2], B.shape[2]
        R = (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(-1,
                                                                      nt * ns)
        out = factor.reshape(-1, len(R)) @ R
        return out.reshape(factor.shape[:-1] + (nt, ns))

    def block_local_matrices(self, i, j):
        """Sum of all kernel contributions to block (i, j), or None."""
        terms = self.blocks.get((i, j))
        if not terms:
            return None
        test = self.row_space.fields[i]
        trial = self.col_space.fields[j]
        state = _StateAtPoints(self)
        out = None
        for term in terms:
            loc = term.local(self, test, trial, state)
            out = loc if out is None else out + loc
        return out

    def flops_per_apply(self):
        """Analytic flop count of one matrix-free application: the
        tabulation products and `Jinv` maps of every trial, state and test
        field the terms use, and the pointwise terms."""
        ncells, nq = self.wq.shape
        dim = self.mesh.dim
        fields = {"trial": self.col_space.fields, "test": self.row_space.fields,
                  "state": self.state_space.fields}
        maps = set()
        per_cell = 0
        for (i, j), terms in self.blocks.items():
            kt = self.row_space.fields[i].ncomp
            ks = self.col_space.fields[j].ncomp
            for term in terms:
                maps.add(("trial", j, term.trial))
                maps.add(("test", i, term.test))
                if term.state:
                    maps.add(("state",) + term.state)
                per_cell += term.flops_per_cell(nq, kt, ks, dim)
        for role, f, kind in maps:
            space = fields[role][f]
            nn, k = space.element.nnodes, space.ncomp
            if kind == "values":
                per_cell += 2 * k * nq * nn
            else:
                per_cell += 2 * k * nq * dim * (nn + dim)
            if role == "test":
                # quadrature weights, then the scatter
                per_cell += k * nq * (1 if kind == "values" else dim) + k * nn
        return ncells * per_cell

    # -- global operations -------------------------------------------------

    def _bc_dofs(self, bcs, bc_rows, bc_cols):
        if bcs:
            d = collect_bc_dofs(self.row_space, bcs)
            return d, d
        none = np.empty(0, dtype=np.int64)
        return (none if bc_rows is None else np.asarray(bc_rows),
                none if bc_cols is None else np.asarray(bc_cols))

    def assemble(self, bcs=(), bc_rows=None, bc_cols=None):
        """Global CSR matrix with symmetric Dirichlet treatment."""
        rows, cols, vals = [], [], []
        for (i, j) in self.blocks:
            loc = self.block_local_matrices(i, j)
            if loc is None:
                continue
            rdofs = self.row_space.fields[i].cell_dofs + self.row_space.offsets[i]
            cdofs = self.col_space.fields[j].cell_dofs + self.col_space.offsets[j]
            ncells, nt, ns = loc.shape
            rows.append(np.repeat(rdofs, ns, axis=1).ravel())
            cols.append(np.tile(cdofs, (1, nt)).ravel())
            vals.append(loc.ravel())
        shape = (self.row_space.num_dofs, self.col_space.num_dofs)
        if not rows:
            return sp.csr_matrix(shape)
        A = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=shape).tocsr()
        A.sum_duplicates()
        br, bc = self._bc_dofs(bcs, bc_rows, bc_cols)
        if len(br) or len(bc):
            A = apply_bcs_matrix(A, br, bc, diagonal=self.bc_diagonal)
        return A

    def action(self, x, bcs=(), bc_rows=None, bc_cols=None):
        """Matrix-free y = A x consistent with assemble(), evaluated at the
        quadrature points."""
        x = np.asarray(x, dtype=float)
        rs, cs = self.row_space, self.col_space
        if len(x) != cs.num_dofs:
            raise ValueError("input length does not match trial space")
        br, bc = self._bc_dofs(bcs, bc_rows, bc_cols)
        x0 = x
        if len(bc):
            x0 = x.copy()
            x0[bc] = 0.0
        trial = {}
        state = _StateAtPoints(self)
        # test field -> [against values (c, kt, q), against grads (c, kt, q, dim)]
        acc = {}
        for (i, j), terms in self.blocks.items():
            if not terms:
                continue
            u = trial.get(j)
            if u is None:
                u = trial[j] = self.at_points(cs.fields[j],
                                              x0[cs.field_slice(j)])
            yi = acc.setdefault(i, [None, None])
            for term in terms:
                for slot, part in enumerate(term.pointwise(self, u, state)):
                    if part is None:
                        continue
                    if yi[slot] is None:
                        yi[slot] = part
                    else:
                        yi[slot] += part
        y = np.zeros(rs.num_dofs)
        ncells, nq = self.wq.shape
        JinvT = np.swapaxes(self.geom.Jinv, 1, 2)
        for i, (yv, yg) in acc.items():
            ref = self._reference(rs.fields[i])
            yloc = 0.0
            if yv is not None:
                yloc = (yv * self.wq[:, None]).reshape(-1, nq) @ ref.values
            if yg is not None:
                yg = (yg * self.wq[:, None, :, None]).reshape(
                    ncells, -1, self.mesh.dim) @ JinvT
                yloc = yloc + yg.reshape(-1, nq * self.mesh.dim) @ ref.grads
            y[rs.field_slice(i)] += ref.scatter(yloc)
        if len(br):
            if self.bc_diagonal:
                y[br] = x[br]
            else:
                y[br] = 0.0
        return y


class StateWind:
    """Marker: take the wind from a state field of the trial space."""

    def __init__(self, field=0):
        self.field = field


def collect_bc_dofs(mixed, bcs):
    """Global Dirichlet dofs of a list of DirichletBCs within a mixed space."""
    dofs = [np.empty(0, dtype=np.int64)]
    for bc in bcs:
        dofs.append(bc.dofs + mixed.offsets[bc.field])
    return np.unique(np.concatenate(dofs))


def collect_bc_values(mixed, bcs):
    """(dofs, values) with mixed-space offsets applied."""
    dofs, vals = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for bc in bcs:
        dofs.append(bc.dofs + mixed.offsets[bc.field])
        vals.append(bc.values)
    d = np.concatenate(dofs)
    v = np.concatenate(vals)
    order = np.argsort(d)
    return d[order], v[order]


def apply_bcs_matrix(A, bc_rows, bc_cols=None, diagonal=True):
    """Zero Dirichlet rows and columns; unit diagonal for square forms."""
    if bc_cols is None:
        bc_cols = bc_rows
    n, m = A.shape
    keep_r = np.ones(n)
    keep_r[bc_rows] = 0.0
    keep_c = np.ones(m)
    keep_c[bc_cols] = 0.0
    A = (sp.diags(keep_r) @ A @ sp.diags(keep_c)).tocsr()
    if diagonal and n == m:
        diag = np.zeros(n)
        diag[bc_rows] = 1.0
        A = (A + sp.diags(diag)).tocsr()
    return A


# --- catalogue ------------------------------------------------------------

def mass_form(space, coef=1.0, context=None):
    return Form("mass", space, space, {(0, 0): [MassTerm(coef)]},
                context=context)


def stiffness_form(space, kappa=1.0, context=None):
    return Form("stiffness", space, space, {(0, 0): [StiffnessTerm(kappa)]},
                context=context)


def convection_diffusion_form(space, nu=1.0, wind=None, context=None):
    terms = [StiffnessTerm(nu)]
    if wind is not None:
        terms.append(AdvectionTerm(wind))
    return Form("convection_diffusion", space, space, {(0, 0): terms},
                context=context)


def stokes_form(mixed, Re=1.0, context=None):
    context = context if context is not None else {}
    context.setdefault("Re", Re)
    blocks = {
        (0, 0): [StiffnessTerm(1.0 / Re)],
        (0, 1): [PressureGradientTerm()],
        (1, 0): [DivergenceTerm()],
    }
    return Form("stokes", mixed, mixed, blocks, context=context)


def ns_jacobian_form(mixed, Re=1.0, context=None):
    """Newton Jacobian of steady Navier-Stokes on a velocity/pressure pair."""
    context = context if context is not None else {}
    context.setdefault("Re", Re)
    context.setdefault("state", np.zeros(mixed.num_dofs))
    context.setdefault("velocity_field", 0)
    context.setdefault("pressure_field", 1)
    blocks = {
        (0, 0): [StiffnessTerm(1.0 / Re), AdvectionTerm(StateWind(0)),
                 VectorReactionTerm(0)],
        (0, 1): [PressureGradientTerm()],
        (1, 0): [DivergenceTerm()],
    }
    return Form("ns_jacobian", mixed, mixed, blocks, context=context)


def rb_jacobian_form(mixed, Ra, Pr, context=None):
    """Newton Jacobian of Rayleigh-Benard convection on (u, p, T)."""
    context = context if context is not None else {}
    context.setdefault("Ra", Ra)
    context.setdefault("Pr", Pr)
    context.setdefault("Re", 1.0)
    context.setdefault("state", np.zeros(mixed.num_dofs))
    context.setdefault("velocity_field", 0)
    context.setdefault("pressure_field", 1)
    context.setdefault("temperature_field", 2)
    blocks = {
        (0, 0): [StiffnessTerm(1.0), AdvectionTerm(StateWind(0)),
                 VectorReactionTerm(0)],
        (0, 1): [PressureGradientTerm()],
        (1, 0): [DivergenceTerm()],
        (0, 2): [BuoyancyTerm(Ra / Pr)],
        (2, 0): [ScalarCouplingTerm(2)],
        (2, 2): [StiffnessTerm(Pr), AdvectionTerm(StateWind(0))],
    }
    return Form("rb_jacobian", mixed, mixed, blocks, context=context)


def pressure_mass_form(p_space, context=None):
    return Form("pressure_mass", p_space, p_space,
                {(0, 0): [MassTerm()]}, context=context)


def pressure_laplacian_form(p_space, context=None):
    return Form("pressure_laplacian", p_space, p_space,
                {(0, 0): [StiffnessTerm()]}, context=context)


def pcd_form(p_space, Re, wind, context=None, state_space=None):
    """Pressure convection-diffusion operator (1/Re) K_p + advection."""
    return Form("pressure_convection_diffusion", p_space, p_space,
                {(0, 0): [StiffnessTerm(1.0 / Re), AdvectionTerm(wind)]},
                context=context, state_space=state_space)


def load_vector(form, f, field=0):
    """Assemble the load functional (f, v) against field `field` of the
    form's test space.  f is a constant or callable of the coordinates."""
    space = form.row_space.fields[field]
    if callable(f):
        pts = form.geom.physical_points(form.rule)
        fq = np.apply_along_axis(lambda x: np.atleast_1d(np.asarray(f(x), dtype=float)),
                                 2, pts)
    else:
        fq = np.broadcast_to(np.atleast_1d(np.asarray(f, dtype=float)),
                             form.wq.shape + (space.ncomp,))
    # (ncells, ncomp, nq) against the tabulated test values, then laid out
    # node-major with components fastest, as the cell dofs are
    loc = np.swapaxes(fq * form.wq[..., None], 1, 2) @ form.space_eval(
        space).values
    out = np.zeros(form.row_space.num_dofs)
    _scatter(space, form.row_space.offsets[field], np.swapaxes(loc, 1, 2),
             out)
    return out


# --- residuals ------------------------------------------------------------

def _scatter(space, offset, yloc, out):
    dofs = space.cell_dofs + offset
    out += np.bincount(dofs.ravel(), weights=yloc.ravel(), minlength=len(out))


def _vector_test_integral(ev, wq, pointwise):
    """Integrate (pointwise, v) for a vector test space; pointwise is
    (ncells, nq, ncomp).  Returns interleaved (ncells, ndofs)."""
    blk = np.einsum("cq,cqk,qi->cki", wq, pointwise, ev.values)
    return _interleave(blk[:, :, None, :, None])[..., 0]


def _vector_test_grad_integral(ev, wq, pointwise):
    """Integrate (pointwise : grad v); pointwise is (ncells, nq, ncomp, dim)."""
    blk = np.einsum("cq,cqkd,cqid->cki", wq, pointwise, ev.grads)
    return _interleave(blk[:, :, None, :, None])[..., 0]


def _residual_bc_rows(mixed, state, bcs, r):
    dofs, vals = collect_bc_values(mixed, bcs)
    r[dofs] = state[dofs] - vals
    return r


def ns_residual(form, state, bcs=(), forcing=None):
    """Residual of steady Navier-Stokes at the given state.  Dirichlet
    entries hold state - boundary value so Newton enforces the BCs."""
    mixed = form.col_space
    V, W = mixed.fields[0], mixed.fields[1]
    Re = form.coefficient_value(form.context.get("Re", 1.0))
    ev_u = form.space_eval(V)
    ev_p = form.space_eval(W)
    u = state[mixed.field_slice(0)]
    p = state[mixed.field_slice(1)]
    wq = form.wq

    uq = ev_u.function_values(u)       # (c, q, k)
    gu = ev_u.function_grads(u)        # (c, q, k, d)
    pq = ev_p.function_values(p)       # (c, q)

    r = np.zeros(mixed.num_dofs)
    conv = np.einsum("cqd,cqkd->cqk", uq, gu)
    mom = _vector_test_grad_integral(ev_u, wq / Re, gu)
    mom += _vector_test_integral(ev_u, wq, conv)
    # -(p, div v)
    div_v = np.einsum("cq,cqid->cqid", pq, ev_u.grads)
    blk = np.einsum("cq,cqid->cdi", wq, div_v)
    mom -= _interleave(blk[:, :, None, :, None])[..., 0]
    if forcing is not None:
        fq = np.apply_along_axis(lambda x: np.asarray(forcing(x)), 2,
                                 form.geom.physical_points(form.rule))
        mom -= _vector_test_integral(ev_u, wq, fq)
    _scatter(V, mixed.offsets[0], mom, r)

    divu = np.einsum("cqkk->cq", gu)
    cont = np.einsum("cq,cq,qi->ci", wq, divu, ev_p.values)
    _scatter(W, mixed.offsets[1], cont, r)

    return _residual_bc_rows(mixed, state, bcs, r)


def rb_residual(form, state, bcs=()):
    """Residual of stationary Rayleigh-Benard convection at the state."""
    mixed = form.col_space
    V, W, Q = mixed.fields
    Ra = form.coefficient_value(form.context["Ra"])
    Pr = form.coefficient_value(form.context["Pr"])
    ev_u = form.space_eval(V)
    ev_p = form.space_eval(W)
    ev_t = form.space_eval(Q)
    u = state[mixed.field_slice(0)]
    p = state[mixed.field_slice(1)]
    T = state[mixed.field_slice(2)]
    wq = form.wq
    zhat = UPWARD[form.mesh.dim]

    uq = ev_u.function_values(u)
    gu = ev_u.function_grads(u)
    pq = ev_p.function_values(p)
    Tq = ev_t.function_values(T)
    gT = ev_t.function_grads(T)

    r = np.zeros(mixed.num_dofs)
    conv = np.einsum("cqd,cqkd->cqk", uq, gu)
    buoy = (Ra / Pr) * np.einsum("cq,k->cqk", Tq, zhat)
    mom = _vector_test_grad_integral(ev_u, wq, gu)
    mom += _vector_test_integral(ev_u, wq, conv + buoy)
    blk = np.einsum("cq,cq,cqid->cdi", wq, pq, ev_u.grads)
    mom -= _interleave(blk[:, :, None, :, None])[..., 0]
    _scatter(V, mixed.offsets[0], mom, r)

    divu = np.einsum("cqkk->cq", gu)
    cont = np.einsum("cq,cq,qi->ci", wq, divu, ev_p.values)
    _scatter(W, mixed.offsets[1], cont, r)

    tconv = np.einsum("cqd,cqd->cq", uq, gT)
    temp = np.einsum("cq,cqd,cqid->ci", wq * Pr, gT, ev_t.grads)
    temp += np.einsum("cq,cq,qi->ci", wq, tconv, ev_t.values)
    _scatter(Q, mixed.offsets[2], temp, r)

    return _residual_bc_rows(mixed, state, bcs, r)


def poisson_residual(form, state, bcs=(), rhs=None):
    """Residual of the assembled linear system A x - b (affine problem)."""
    r = form.action(state, bcs=bcs)
    if rhs is not None:
        mixed = form.col_space
        bc_dofs = collect_bc_dofs(mixed, bcs) if bcs else None
        b = rhs.copy()
        if bcs:
            b[bc_dofs] = 0.0
        r = r - b
    if bcs:
        _residual_bc_rows(form.col_space, state, bcs, r)
    return r


def jacobian_check(residual_fn, jac_form, state, bcs=(), ndirs=3, h=1e-6,
                   rng=None):
    """Max relative discrepancy between central finite differences of the
    residual and the Jacobian action over random directions."""
    rng = np.random.default_rng(rng)
    bc_dofs = collect_bc_dofs(jac_form.col_space, bcs) if bcs else []
    worst = 0.0
    for _ in range(ndirs):
        d = rng.standard_normal(len(state))
        # Newton corrections carry homogeneous BCs; probe the same subspace
        d[bc_dofs] = 0.0
        jac_form.context["state"] = state
        jd = jac_form.action(d, bcs=bcs)
        rp = residual_fn(state + h * d)
        rm = residual_fn(state - h * d)
        fd = (rp - rm) / (2 * h)
        denom = max(np.linalg.norm(jd), 1.0)
        worst = max(worst, np.linalg.norm(fd - jd) / denom)
    return worst

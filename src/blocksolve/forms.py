"""Weak-form catalogue: element kernels, global assembly, matrix-free action.

A Form is a block-structured bilinear form over mixed spaces.  Each block is
a sum of terms from a small kernel vocabulary (mass, stiffness, advection,
linearised reaction, pressure gradient/divergence, buoyancy and temperature
coupling).  All kernels are evaluated for every cell at once with einsum,
and the matrix-free action uses exactly the same local matrices as global
assembly, so the two agree to rounding.

Boundary conditions follow one canonical convention: assembled matrices have
Dirichlet rows and columns zeroed with a unit diagonal, and the matrix-free
action reproduces that matrix by zeroing Dirichlet entries of the input and
copying them through to the output.
"""

from __future__ import annotations

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
    """Tabulated basis data of one space at one rule, mapped to all cells."""

    def __init__(self, space, geom, rule):
        self.space = space
        tab = tabulate(space.element, rule.points)
        self.values = tab.values                      # (nq, nn)
        # physical gradients (ncells, nq, nn, dim)
        self.grads = np.einsum("qne,ced->cqnd", tab.gradients, geom.Jinv)

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


# --- kernel vocabulary ----------------------------------------------------
#
# Each term computes local matrices (ncells, nt, ns) in the interleaved
# component layout of the involved spaces.  `wq` is weights * detJ,
# shape (ncells, nq).

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


class Term:
    """One kernel contribution to a block of a form."""

    def local(self, form, test_ev, trial_ev, wq):
        raise NotImplementedError

    def flops_per_cell(self, nq, nt, ns):
        return 2 * nq * nt * ns


class MassTerm(Term):
    def __init__(self, coef=1.0):
        self.coef = coef

    def local(self, form, test_ev, trial_ev, wq):
        c = form.coefficient_at_points(self.coef)
        scalar = np.einsum("cq,qi,qj->cij", wq * c, test_ev.values, trial_ev.values)
        return _component_diag(scalar, trial_ev.space.ncomp)


class StiffnessTerm(Term):
    def __init__(self, coef=1.0):
        self.coef = coef

    def local(self, form, test_ev, trial_ev, wq):
        c = form.coefficient_at_points(self.coef)
        scalar = np.einsum("cq,cqid,cqjd->cij", wq * c, test_ev.grads, trial_ev.grads)
        return _component_diag(scalar, trial_ev.space.ncomp)


class AdvectionTerm(Term):
    """(w . grad u, v) with the wind supplied by a coefficient."""

    def __init__(self, wind):
        self.wind = wind

    def local(self, form, test_ev, trial_ev, wq):
        w = form.wind_at_points(self.wind)  # (ncells, nq, dim)
        scalar = np.einsum("cq,cqd,qi,cqjd->cij", wq, w, test_ev.values, trial_ev.grads)
        return _component_diag(scalar, trial_ev.space.ncomp)


class VectorReactionTerm(Term):
    """Newton linearisation term (du . grad u0, v); couples components."""

    def __init__(self, state_field):
        self.state_field = state_field

    def local(self, form, test_ev, trial_ev, wq):
        g0 = form.state_grads(self.state_field)  # (ncells, nq, k, l)
        blk = np.einsum("cq,cqkl,qi,qj->cklij", wq, g0,
                        test_ev.values, trial_ev.values)
        return _interleave(blk)


class PressureGradientTerm(Term):
    """-(p, div v): vector test space, scalar trial space."""

    def local(self, form, test_ev, trial_ev, wq):
        blk = np.einsum("cq,cqid,qj->cdij", wq, test_ev.grads, trial_ev.values)
        return _interleave(-blk[:, :, None])


class DivergenceTerm(Term):
    """(div u, q): scalar test space, vector trial space."""

    def local(self, form, test_ev, trial_ev, wq):
        blk = np.einsum("cq,qi,cqjd->cdij", wq, test_ev.values, trial_ev.grads)
        return _interleave(blk[:, None])


class BuoyancyTerm(Term):
    """(c dT zhat, v): vector test space, scalar trial space."""

    def __init__(self, coef):
        self.coef = coef

    def local(self, form, test_ev, trial_ev, wq):
        c = form.coefficient_value(self.coef)
        zhat = UPWARD[test_ev.space.mesh.dim]
        scalar = np.einsum("cq,qi,qj->cij", wq, test_ev.values, trial_ev.values)
        blk = (c * zhat)[:, None, None, None] * scalar[:, None, None]
        return _interleave(blk)


class ScalarCouplingTerm(Term):
    """(du . grad s0, s): scalar test space, vector trial space."""

    def __init__(self, state_field):
        self.state_field = state_field

    def local(self, form, test_ev, trial_ev, wq):
        g0 = form.state_grads(self.state_field)  # (ncells, nq, dim)
        blk = np.einsum("cq,cqd,qi,qj->cdij", wq, g0, test_ev.values, trial_ev.values)
        return _interleave(blk[:, None])


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

    def coefficient_at_points(self, coef):
        """Scalar coefficient at all quadrature points, (ncells, nq)."""
        coef = self.coefficient_value(coef)
        if callable(coef):
            pts = self.geom.physical_points(self.rule)
            return np.apply_along_axis(coef, 2, pts)
        return np.broadcast_to(float(coef), self.wq.shape)

    def wind_at_points(self, wind):
        """Vector wind at all quadrature points, (ncells, nq, dim)."""
        if isinstance(wind, StateWind):
            space = self.state_space.fields[wind.field]
            x = self._state_field(wind.field)
            return self.space_eval(space).function_values(x)
        wind = self.coefficient_value(wind)
        if callable(wind):
            pts = self.geom.physical_points(self.rule)
            return np.apply_along_axis(lambda x: np.asarray(wind(x)), 2, pts)
        arr = np.asarray(wind, dtype=float)
        ncells, nq = self.wq.shape
        return np.broadcast_to(arr, (ncells, nq, self.mesh.dim))

    def state_grads(self, field):
        x = self._state_field(field)
        space = self.state_space.fields[field]
        return self.space_eval(space).function_grads(x)

    def _state_field(self, field):
        state = self.context["state"]
        return state[self.state_space.field_slice(field)]

    # -- kernels -----------------------------------------------------------

    def block_local_matrices(self, i, j):
        """Sum of all kernel contributions to block (i, j), or None."""
        terms = self.blocks.get((i, j))
        if not terms:
            return None
        test_ev = self.space_eval(self.row_space.fields[i])
        trial_ev = self.space_eval(self.col_space.fields[j])
        out = None
        for term in terms:
            loc = term.local(self, test_ev, trial_ev, self.wq)
            out = loc if out is None else out + loc
        return out

    def flops_per_apply(self):
        """Analytic flop estimate of one matrix-free application."""
        ncells = self.mesh.num_cells
        nq = len(self.rule.weights)
        total = 0
        for (i, j), terms in self.blocks.items():
            nt = self.row_space.fields[i].element.ndofs
            ns = self.col_space.fields[j].element.ndofs
            for term in terms:
                total += ncells * term.flops_per_cell(nq, nt, ns)
            total += 2 * ncells * nt * ns  # local matvec + scatter
        return total

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
        """Matrix-free y = A x consistent with assemble()."""
        x = np.asarray(x, dtype=float)
        rs, cs = self.row_space, self.col_space
        if len(x) != cs.num_dofs:
            raise ValueError("input length does not match trial space")
        br, bc = self._bc_dofs(bcs, bc_rows, bc_cols)
        x0 = x
        if len(bc):
            x0 = x.copy()
            x0[bc] = 0.0
        y = np.zeros(rs.num_dofs)
        for (i, j) in self.blocks:
            loc = self.block_local_matrices(i, j)
            if loc is None:
                continue
            rdofs = rs.fields[i].cell_dofs + rs.offsets[i]
            cdofs = cs.fields[j].cell_dofs + cs.offsets[j]
            xloc = x0[cdofs]
            yloc = np.einsum("cij,cj->ci", loc, xloc)
            y += np.bincount(rdofs.ravel(), weights=yloc.ravel(),
                             minlength=rs.num_dofs)
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
    ev = form.space_eval(space)
    if callable(f):
        pts = form.geom.physical_points(form.rule)
        fq = np.apply_along_axis(lambda x: np.atleast_1d(np.asarray(f(x), dtype=float)),
                                 2, pts)
    else:
        fq = np.broadcast_to(np.atleast_1d(np.asarray(f, dtype=float)),
                             form.wq.shape + (space.ncomp,))
    if space.ncomp == 1:
        loc = np.einsum("cq,cq,qi->ci", form.wq, fq[..., 0] if fq.ndim == 3 else fq,
                        ev.values)
    else:
        loc = _vector_test_integral(ev, form.wq, fq)
    out = np.zeros(form.row_space.num_dofs)
    _scatter(space, form.row_space.offsets[field], loc, out)
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

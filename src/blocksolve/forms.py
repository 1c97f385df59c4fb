"""Weak-form catalogue: one coefficient per term, from which assembly, the
matrix-free action and the Newton residuals are derived.

A Form is a block-structured bilinear form over mixed spaces.  Each block is
a sum of terms from a small vocabulary (mass, stiffness, advection,
linearised reaction, pressure gradient/divergence, buoyancy).  A term is
written once, as the quadrature-point operator B_test^T W D B_trial of
Kronbichler and Kormann ("A generic interface for parallel cell-based
finite element operator application", Computers & Fluids 63, 2012).  Its
`test` and `trial` slots say whether B reads basis values or reference
gradients, W holds the reference quadrature weights w_q, and
`Term.coefficient` returns the coefficient D of every cell with detJ and
the per-cell affine Jinv folded in.  D keeps a point axis of length 1
when it is constant on each cell (constant coefficients and winds, the
pressure gradient, divergence and buoyancy), and of length nq when it
varies within a cell (callables, the Newton state).  The weights never
enter D: they sit in the test basis of the form's reference contraction
(`SpaceEval.slot(kind, weighted=True)`), so a cell-constant D is never
copied out to the points.  Everything else is derived from D:

* assembly contracts D with the reference tensor of the weighted test and
  the trial tabulations in one product per term, the tensor representation
  of affine simplices (Kirby and Logg, "A compiler for variational forms",
  ACM TOMS 32(3), 2006): for a cell-constant D the tensor is summed over
  the points once, A_K = G_K : A^0, so no physical gradient array is
  formed.  The element matrices of a block are written as int32 columns
  and values into arrays allocated once, one element row per cell,
  component pair and test node, and only the component pairs a term
  couples are written; the global matrix is the sparse product that sums
  the element rows into their global rows (`Form.assemble`);
* the action gathers the local dofs of each trial field, applies the
  reference tabulation, contracts with D (one small matrix product per
  cell for a cell-constant D), applies the transposed weighted test
  tabulation and scatters with one `bincount` per test field, so no
  element matrix is formed;
* the Newton residuals are the action, at the state, of the Picard form:
  the Jacobian's blocks without the terms that linearise in the state.

The quadrature rule of a form and the reference tabulation of each space
at it are built once per (element, rule) in the process and shared,
read-only, by every form over those spaces: the `extract_sub`
sub-forms, PCD's forms and the residuals' Picard forms tabulate nothing
of their own.

A form keeps no coefficient data: assembly and the action both call
`Term.coefficient` at each use, so a coefficient changed between uses (a
number, a context value, an array changed in place, the Newton state in
`context["state"]`) is read by the next one and nothing can go stale.
Action and assembly agree to rounding.

A form carries no boundary conditions: `ImplicitOperator` holds the form
with its Dirichlet rows and columns and applies them.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
import scipy.sparse as sp

from .quadrature import make_quadrature, MAX_DEGREE
from .elements import tabulate
from .mesh import _CONVENTION
from .spaces import (FunctionSpace, MixedSpace, collect_bc_dofs,
                     collect_bc_values)

__all__ = [
    "Form", "mass_form", "stiffness_form", "convection_diffusion_form",
    "stokes_form", "ns_jacobian_form", "rb_jacobian_form", "ns_residual",
    "rb_residual", "jacobian_check",
]

UPWARD = {2: np.array([0.0, 1.0]), 3: np.array([0.0, 0.0, 1.0])}

# cells per product of assembly (see `Form.element_matrices`)
_CELL_CHUNK = 128


@functools.lru_cache(maxsize=None)
def _reference_tables(element, rule):
    """Basis of `element` at the points of `rule` in each term slot, as
    (a, nq, nn): {(kind, weighted): B} for kind "values" (a = 1) or
    "grads" (a = dim, over reference directions), plain or times the
    quadrature weights w_q; made once per pair and read-only."""
    tab = tabulate(element, rule.points)
    tables = {}
    for kind, B in (("values", tab.values[None]),
                    ("grads", np.moveaxis(tab.gradients, 2, 0))):
        tables[kind, False] = np.ascontiguousarray(B)
        tables[kind, True] = B * rule.weights[:, None]
    for B in tables.values():
        B.flags.writeable = False
    return tables


class SpaceEval:
    """Tabulation of one space at one quadrature rule, shared by assembly,
    the matrix-free action, load vectors and error norms.  `slot(kind,
    weighted)` is the basis B of a term slot as (a, nq, nn): values (1, nq,
    nn) or gradients over the reference directions (dim, nq, nn), times the
    quadrature weights if `weighted` (the test side of every contraction).
    Local dofs are handled component-major, (ncells*ncomp, nn)."""

    def __init__(self, space, rule):
        self.space = space
        self.ncomp = space.ncomp
        self._tables = _reference_tables(space.element, rule)
        self.values = self._tables["values", False][0]

    def slot(self, kind, weighted=False):
        return self._tables[kind, weighted]

    def gather(self, x):
        """Local dofs of x, component-major."""
        dofs = self.space.cell_dofs
        xloc = x[dofs].reshape(len(dofs), -1, self.ncomp)
        return xloc.transpose(0, 2, 1).reshape(-1, xloc.shape[1])

    def to_points(self, xloc, kind):
        """B x: gathered local dofs at the points, (ncells, ncomp, a, nq)."""
        B = self.slot(kind)
        a, nq, nn = B.shape
        return (xloc @ B.reshape(-1, nn).T).reshape(-1, self.ncomp, a, nq)

    def from_points(self, yq, kind):
        """B^T W y: (ncells, ncomp, a, nq) at the points against the
        weighted basis, summed into a vector of the space."""
        B = self.slot(kind, weighted=True)
        yloc = yq.reshape(-1, B.shape[0] * B.shape[1]) @ B.reshape(
            -1, B.shape[2])
        dofs = self.space.cell_dofs
        yloc = yloc.reshape(len(dofs), self.ncomp, -1).transpose(0, 2, 1)
        return np.bincount(dofs.ravel(), weights=yloc.ravel(),
                           minlength=self.space.num_dofs)


class _AtPoints:
    """One field at the quadrature points of every cell, from its gathered
    local dofs: `slot(kind)` (ncells, ncomp, a, nq) in reference
    directions, `values` (ncells, ncomp, nq) and physical `grads` (ncells,
    ncomp, dim, nq), each computed on first use."""

    def __init__(self, ev, x, Jinv):
        self.ev = ev
        self.xloc = ev.gather(x)
        self.Jinv = Jinv
        self._slots = {}

    def slot(self, kind):
        out = self._slots.get(kind)
        if out is None:
            out = self._slots[kind] = self.ev.to_points(self.xloc, kind)
        return out

    @property
    def values(self):
        return self.slot("values")[:, :, 0]

    @functools.cached_property
    def grads(self):
        return np.swapaxes(self.Jinv, 1, 2)[:, None] @ self.slot("grads")


class _StateAtPoints(dict):
    """Fields of the form's Newton state at the quadrature points, each
    evaluated once per use of the form from `context["state"]`."""

    def __init__(self, form):
        super().__init__()
        self.form = form

    def __missing__(self, field):
        form = self.form
        x = form.context["state"][form.state_space.field_slice(field)]
        at = self[field] = form.at_points(form.state_space.fields[field], x)
        return at


def _contract(D, u):
    """D applied to a trial slot u (ncells, ks, b, nq): y[c, k, e, q] = sum
    over l and f of D[c, k, l, e, f, q] u[c, l, f, q], as (ncells, kt, a,
    nq).  A D with one component pair acts on every component of u.  A
    cell-constant D (point axis 1) is one (kt*a, ks*b) @ (ks*b, nq) product
    per cell."""
    ncells, kt, ks, a, b, npts = D.shape
    if npts == 1:
        if (kt, ks) == (1, 1):
            return D[:, :, 0, :, :, 0] @ u
        M = D[..., 0].transpose(0, 1, 3, 2, 4).reshape(ncells, kt * a, ks * b)
        return (M @ u.reshape(ncells, ks * b, -1)).reshape(ncells, kt, a, -1)
    if (kt, ks) == (1, 1):
        return np.einsum("cefq,ckfq->ckeq", D[:, 0, 0], u)
    return np.einsum("cklefq,clfq->ckeq", D, u)


# --- term vocabulary ------------------------------------------------------

class Term:
    """One weak-form term of a block, written once as its quadrature-point
    coefficient D in B_test^T W D B_trial (W: the reference weights w_q,
    applied by the form).

    `test` and `trial` say what B reads of each basis: "values" (a or b =
    1) or "grads" (a or b = dim, over reference directions).
    `coefficient(form, state)` returns D as (ncells, KT, KS, a, b, P), with
    detJ and, for each "grads" slot, the per-cell Jinv folded in.  P = 1
    when D is constant on each cell: the term reads no callable and no
    Newton state, and the one value stands for every point.  Otherwise P
    = nq, points fastest.  If `couples` is False, KT = KS = 1 and D acts on
    every component alike; otherwise KT and KS are the test and trial
    component counts.  If `state` is a pair (field, "values" | "grads"), D
    reads that data of the Newton state field from `state[field]` (see
    `_StateAtPoints`).
    """

    trial = "values"
    test = "values"
    state = None
    couples = False

    @property
    def spd(self):
        """The term alone is a symmetric form, positive definite on every
        space of functions that vanish on the boundary of a region, such
        as a Schwarz vertex patch, so its blocks there are SPD.  Only mass
        and stiffness with a positive number as coefficient declare it: a
        callable or a context name has no sign the form can know."""
        return False

    def coefficient(self, form, state):
        raise NotImplementedError


class _ScalarTerm(Term):
    """A term scaled by one scalar coefficient: a number, a callable of
    the coordinates or a context name."""

    def __init__(self, coef=1.0):
        self.coef = coef

    @property
    def spd(self):
        return isinstance(self.coef, numbers.Real) and self.coef > 0


class MassTerm(_ScalarTerm):
    def coefficient(self, form, state):
        c = form.geom.detJ[:, None] * form.coefficient_at_points(self.coef)
        return c[:, None, None, None, None]


class StiffnessTerm(_ScalarTerm):
    trial = test = "grads"

    def coefficient(self, form, state):
        c = form.geom.detJ[:, None] * form.coefficient_at_points(self.coef)
        return (form.geom.metric[:, :, :, None]
                * c[:, None, None])[:, None, None]


class AdvectionTerm(Term):
    """(w . grad u, v) with the wind supplied by a coefficient."""

    trial = "grads"

    def __init__(self, wind):
        self.wind = wind
        if isinstance(wind, StateWind):
            self.state = (wind.field, "values")

    def coefficient(self, form, state):
        if self.state:
            w = state[self.wind.field].values  # (ncells, dim, nq)
        else:
            w = np.swapaxes(form.wind_at_points(self.wind), 1, 2)
        # w . grad psi = (Jinv w) . reference gradient of psi
        return (form.geom.Jinv @ w
                * form.geom.detJ[:, None, None])[:, None, None, None]


class VectorReactionTerm(Term):
    """Newton linearisation (du . grad w0, v) in a state field w0: the
    velocity (vector test space) or the temperature (scalar test space)."""

    couples = True

    def __init__(self, state_field):
        self.state_field = state_field
        self.state = (state_field, "grads")

    def coefficient(self, form, state):
        g0 = state[self.state_field].grads  # (ncells, k, l, nq)
        return (g0 * form.geom.detJ[:, None, None, None])[:, :, :, None, None]


class PressureGradientTerm(Term):
    """-(p, div v): vector test space, scalar trial space."""

    test = "grads"
    couples = True

    def coefficient(self, form, state):
        # div v = sum over k and e of Jinv[e, k] (reference d_e) v_k
        JinvT = np.swapaxes(form.geom.Jinv, 1, 2)  # (ncells, k, e)
        return -(JinvT * form.geom.detJ[:, None, None])[
            :, :, None, :, None, None]


class DivergenceTerm(Term):
    """(div u, q): scalar test space, vector trial space."""

    trial = "grads"
    couples = True

    def coefficient(self, form, state):
        JinvT = np.swapaxes(form.geom.Jinv, 1, 2)  # (ncells, l, f)
        return (JinvT * form.geom.detJ[:, None, None])[
            :, None, :, None, :, None]


class BuoyancyTerm(Term):
    """(c dT zhat, v): vector test space, scalar trial space."""

    couples = True

    def __init__(self, coef):
        self.coef = coef

    def coefficient(self, form, state):
        cz = form.coefficient_value(self.coef) * UPWARD[form.mesh.dim]
        return (form.geom.detJ[:, None] * cz)[:, :, None, None, None, None]


# --- the form itself ------------------------------------------------------

class Form:
    """Block bilinear form with named coefficients and an optional mutable
    problem context (the PDE-level information a matrix-free operator and
    the preconditioners acting on it can read)."""

    def __init__(self, kind, row_space, col_space, blocks, context=None,
                 quad_degree=None, state_space=None):
        same = row_space is col_space
        if isinstance(row_space, FunctionSpace):
            row_space = MixedSpace([row_space])
        if isinstance(col_space, FunctionSpace):
            col_space = row_space if same else MixedSpace([col_space])
        if row_space.mesh is not col_space.mesh:
            raise ValueError("test and trial spaces live on different meshes")
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
        self._tables = {}

    # -- context helpers ---------------------------------------------------

    def coefficient_value(self, coef):
        if isinstance(coef, str):
            return self.context[coef]
        return coef

    def tabulation(self, space):
        """The `SpaceEval` of `space` at the form's rule, made once."""
        ev = self._tables.get(id(space))
        if ev is None:
            ev = self._tables[id(space)] = SpaceEval(space, self.rule)
        return ev

    def at_points(self, space, x):
        """The function x of `space` at the quadrature points."""
        return _AtPoints(self.tabulation(space), x, self.geom.Jinv)

    def coefficient_at_points(self, coef):
        """Scalar coefficient at the quadrature points: (ncells, nq) for a
        callable, (1, 1) for a constant."""
        return self._at_points(coef, (), "coefficient")

    def wind_at_points(self, wind):
        """Vector wind coefficient at the quadrature points: (ncells, nq,
        dim) for a callable, (1, 1, dim) for a constant."""
        return self._at_points(wind, (self.mesh.dim,), "wind")

    def _at_points(self, coef, value_shape, what):
        """A callable evaluated on every quadrature point, or a constant of
        `value_shape` with two leading axes of length 1 that broadcast
        against the cells and points; any other value shape raises."""
        coef = self.coefficient_value(coef)
        if callable(coef):
            out = self.geom.evaluate(coef, self.rule)
            shape = (self.mesh.num_cells, len(self.rule.weights)) + value_shape
            if out.shape != shape:
                raise ValueError(f"{what} {coef!r} gives shape {out.shape} "
                                 f"at the quadrature points, expected "
                                 f"{shape}; {_CONVENTION}")
            return out
        arr = np.asarray(coef, dtype=float)
        if arr.shape != value_shape:
            raise ValueError(f"constant {what} {coef!r} has shape "
                             f"{arr.shape}, expected {value_shape}; "
                             f"{_CONVENTION}")
        return arr[None, None]

    # -- kernels -----------------------------------------------------------

    def element_matrices(self, term, test, trial, D, out=None, add=False):
        """Element matrices of `term` between the spaces `test` and `trial`
        per component pair, (ncells, KT, KS, nt, ns), in one product of its
        coefficient D (see `Term`) with the reference tensor R[(p, e, f),
        (i, j)] = w_p A[e, p, i] B[f, p, j], where A and B are the test and
        trial basis in the term's slots (`SpaceEval.slot`).  For a
        cell-constant D, R is summed over the points first, sum_q w_q
        A[e, q, i] B[f, q, j], and the product is (a*b) entries of D per
        cell against it; otherwise p runs over the points and D is reordered
        for it.  The product runs a chunk of cells at a time and writes each
        chunk into `out` (a new array if None), or adds it there if `add`,
        so no copy is bigger than a chunk."""
        A = self.tabulation(test).slot(term.test, weighted=True)
        B = self.tabulation(trial).slot(term.trial)
        nt, ns = A.shape[2], B.shape[2]
        points = "" if D.shape[5] == 1 else "q"
        R = np.einsum(f"eqi,fqj->{points}efij", A, B,
                      optimize=True).reshape(-1, nt * ns)
        D = np.moveaxis(D, 5, 3)
        if out is None:
            out = np.empty(D.shape[:3] + (nt, ns))
        for c in range(0, len(D), _CELL_CHUNK):
            part = D[c:c + _CELL_CHUNK]
            blk = (part.reshape(-1, len(R)) @ R).reshape(
                part.shape[:3] + (nt, ns))
            if add:
                out[c:c + _CELL_CHUNK] += blk
            else:
                out[c:c + _CELL_CHUNK] = blk
        return out

    def block_local_matrices(self, i, j, out=None):
        """Element matrices of block (i, j) per component pair, (ncells, KT,
        KS, nt, ns), or None; written into `out` if given.  KT = KS = 1
        when no term of the block couples components: the block is then the
        same on every component and zero between different ones.  Otherwise
        KT and KS are the test and trial component counts kt and ks, and
        the sum of the terms that couple no components is added to the
        diagonal pairs.  Entry [c, k, l, i, j] sits at row i*kt + k and
        column j*ks + l of the element matrix of cell c (local dofs
        node-major, components fastest)."""
        terms = self.blocks.get((i, j))
        if not terms:
            return None
        test = self.row_space.fields[i]
        trial = self.col_space.fields[j]
        state = _StateAtPoints(self)
        coupled = [term for term in terms if term.couples]
        diagonal = [term for term in terms if not term.couples]
        pairs = (test.ncomp, trial.ncomp) if coupled else (1, 1)
        if out is None:
            out = np.empty((self.mesh.num_cells,) + pairs
                           + (test.element.nnodes, trial.element.nnodes))
        diagonal_sum = (np.empty_like(out[:, :1, :1]) if coupled and diagonal
                        else out)
        for group, dest in ((coupled, out), (diagonal, diagonal_sum)):
            for n, term in enumerate(group):
                self.element_matrices(term, test, trial,
                                      term.coefficient(self, state),
                                      out=dest, add=n > 0)
        if diagonal_sum is not out:
            for k in range(test.ncomp):
                out[:, k, k] += diagonal_sum[:, 0, 0]
        return out

    def flops_per_apply(self):
        """Analytic flop count of one matrix-free application: the
        tabulation products of every trial, state and test slot the terms
        use, the `Jinv` map of state gradients, the contractions with each
        term's D and the scatter.  A contraction costs 2 a b nq flops per
        component pair and cell whether D is cell-constant (one (a, b) @
        (b, nq) product) or varies by point; the weights w_q sit in the
        test tabulation and cost nothing more."""
        ncells, nq = self.mesh.num_cells, len(self.rule.weights)
        dim = self.mesh.dim
        width = {"values": 1, "grads": dim}
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
                pairs = kt * ks if term.couples else ks
                per_cell += (2 * pairs * width[term.test] * width[term.trial]
                             * nq)
        for role, f, kind in maps:
            space = fields[role][f]
            nn, k = space.element.nnodes, space.ncomp
            per_cell += 2 * k * width[kind] * nq * nn
            if role == "state" and kind == "grads":
                per_cell += 2 * k * dim * dim * nq
            if role == "test":
                per_cell += k * nn
        return ncells * per_cell

    # -- global operations -------------------------------------------------

    def assemble(self):
        """Global CSR matrix of the form, as one sparse product A = S @ B.
        B holds every element row (one per cell, component pair and test
        node) as a CSR row of the (column, value) pairs the kernels wrote
        into int32 and float arrays allocated once; S is the 0/1 matrix that
        sends element row r to its global row.  The product sums duplicates
        with a dense accumulator per row (Gustavson, ACM TOMS 4(3), 1978),
        in element order, so no triplet is sorted; only the rows of A are.
        A block whose terms couple no components stores only its diagonal
        component pairs, and the exact zeros that coupled terms leave (a
        zero `Jinv` entry, a zero wind component) are dropped, so the matrix
        stores no zero."""
        rs, cs = self.row_space, self.col_space
        shape = (rs.num_dofs, cs.num_dofs)
        ncells = self.mesh.num_cells
        # (i, j, coupled, test components, trial components, nt, ns)
        layout = []
        for (i, j), terms in self.blocks.items():
            if not terms:
                continue
            test, trial = rs.fields[i], cs.fields[j]
            coupled = any(term.couples for term in terms)
            if coupled:
                k, l = np.divmod(np.arange(test.ncomp * trial.ncomp),
                                 trial.ncomp)
            else:
                k = l = np.arange(test.ncomp)
            layout.append((i, j, coupled, k, l, test.element.nnodes,
                           trial.element.nnodes))
        # element rows of each block, one per (cell, pair, test node), each
        # holding the ns entries of its trial nodes
        nrows = [ncells * len(k) * nt for *_, k, _, nt, _ in layout]
        widths = [ns for *_, ns in layout]
        sizes = [n * ns for n, ns in zip(nrows, widths)]
        itype = (np.int32 if max(*shape, sum(sizes)) <= np.iinfo(np.int32).max
                 else np.int64)
        erows = np.empty(sum(nrows), dtype=itype)
        indptr = np.zeros(len(erows) + 1, dtype=itype)
        np.cumsum(np.repeat(np.array(widths, dtype=itype), nrows),
                  out=indptr[1:])
        cols = np.empty(sum(sizes), dtype=itype)
        vals = np.empty(sum(sizes))
        rend = end = 0
        for (i, j, coupled, k, l, nt, ns), nrow, size in zip(layout, nrows,
                                                             sizes):
            rseg, seg = slice(rend, rend + nrow), slice(end, end + size)
            rend += nrow
            end += size
            out = (ncells, len(k), nt, ns)
            rdofs = (rs.fields[i].cell_dofs + rs.offsets[i]).reshape(
                ncells, nt, -1)[:, :, k]
            cdofs = (cs.fields[j].cell_dofs + cs.offsets[j]).reshape(
                ncells, ns, -1)[:, :, l]
            erows[rseg].reshape(out[:3])[...] = np.swapaxes(rdofs, 1, 2)
            cols[seg].reshape(out)[...] = np.swapaxes(cdofs, 1, 2)[
                :, :, None, :]
            # pair p = k*KS + l, written in place; one pair (KT = KS = 1)
            # is written on the first diagonal pair and copied to the others
            E = vals[seg].reshape(out)
            if coupled:
                self.block_local_matrices(i, j, out=E.reshape(
                    ncells, rs.fields[i].ncomp, cs.fields[j].ncomp, nt, ns))
            else:
                self.block_local_matrices(i, j, out=E[:, :1, None])
                E[:, 1:] = E[:, :1]
        B = sp.csr_matrix((vals, cols, indptr), shape=(len(erows), shape[1]))
        S = sp.csc_matrix((np.ones(len(erows)), erows,
                           np.arange(len(erows) + 1, dtype=itype)),
                          shape=(shape[0], len(erows))).tocsr()
        A = S @ B
        A.sort_indices()
        A.eliminate_zeros()
        return A

    def action(self, x):
        """Matrix-free y = A x consistent with assemble(), evaluated at the
        quadrature points."""
        x = np.asarray(x, dtype=float)
        rs, cs = self.row_space, self.col_space
        if len(x) != cs.num_dofs:
            raise ValueError("input length does not match trial space")
        trial = {}
        state = _StateAtPoints(self)
        acc = {}  # (test field, slot) -> (ncells, kt, a, nq)
        for (i, j), terms in self.blocks.items():
            for term in terms:
                u = trial.get(j)
                if u is None:
                    u = trial[j] = self.at_points(cs.fields[j],
                                                  x[cs.field_slice(j)])
                yq = _contract(term.coefficient(self, state),
                               u.slot(term.trial))
                key = (i, term.test)
                if key in acc:
                    acc[key] += yq
                else:
                    acc[key] = yq
        y = np.zeros(rs.num_dofs)
        for (i, kind), yq in acc.items():
            y[rs.field_slice(i)] += self.tabulation(
                rs.fields[i]).from_points(yq, kind)
        return y

class StateWind:
    """Marker: take the wind from a state field of the trial space."""

    def __init__(self, field=0):
        self.field = field


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
    Re = context.setdefault("Re", Re)   # a value in the context wins
    blocks = {
        (0, 0): [StiffnessTerm(1.0 / Re)],
        (0, 1): [PressureGradientTerm()],
        (1, 0): [DivergenceTerm()],
    }
    return Form("stokes", mixed, mixed, blocks, context=context)


def ns_jacobian_form(mixed, Re=1.0, context=None):
    """Newton Jacobian of steady Navier-Stokes on a velocity/pressure pair."""
    context = context if context is not None else {}
    Re = context.setdefault("Re", Re)
    context.setdefault("state", np.zeros(mixed.num_dofs))
    context.setdefault("velocity_field", 0)
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
    Ra, Pr = context.setdefault("Ra", Ra), context.setdefault("Pr", Pr)
    Re = context.setdefault("Re", 1.0)
    context.setdefault("state", np.zeros(mixed.num_dofs))
    context.setdefault("velocity_field", 0)
    blocks = {
        (0, 0): [StiffnessTerm(1.0 / Re), AdvectionTerm(StateWind(0)),
                 VectorReactionTerm(0)],
        (0, 1): [PressureGradientTerm()],
        (1, 0): [DivergenceTerm()],
        (0, 2): [BuoyancyTerm(Ra / Pr)],
        (2, 0): [VectorReactionTerm(2)],
        (2, 2): [StiffnessTerm(Pr), AdvectionTerm(StateWind(0))],
    }
    return Form("rb_jacobian", mixed, mixed, blocks, context=context)


def load_vector(form, f, field=0):
    """Assemble the load functional (f, v) against field `field` of the
    form's test space.  f is a constant (scalar or per component) or a
    callable of the coordinates, called once on all quadrature points: it
    takes x of shape (dim, ncells, nq) and returns (ncells, nq) for a
    scalar or (ncomp, ncells, nq) for a vector (`CellGeometry.evaluate`)."""
    space = form.row_space.fields[field]
    ncells, nq = form.mesh.num_cells, len(form.rule.weights)
    if callable(f):
        fq = np.swapaxes(form.geom.evaluate(f, form.rule).reshape(
            ncells, nq, -1), 1, 2)
    else:
        fq = np.asarray(f, dtype=float).reshape(-1, 1)
    yq = np.broadcast_to(fq * form.geom.detJ[:, None, None],
                         (ncells, space.ncomp, nq))
    out = np.zeros(form.row_space.num_dofs)
    out[form.row_space.field_slice(field)] = form.tabulation(
        space).from_points(yq[:, :, None], "values")
    return out


# --- residuals ------------------------------------------------------------

def _residual_bc_rows(mixed, state, bcs, r):
    dofs, vals = collect_bc_values(mixed, bcs)
    r[dofs] = state[dofs] - vals
    return r


def _picard_residual(form, state, bcs=()):
    """F(x) = A(x) x, with A(x) the Picard form of the Newton Jacobian
    `form` at x: its blocks without the terms that linearise in the state.
    Dirichlet entries hold state - boundary value so Newton enforces the
    BCs.  This is the residual of steady Navier-Stokes from the form of
    `ns_jacobian_form` and of stationary Rayleigh-Benard convection from
    that of `rb_jacobian_form`."""
    blocks = {ij: [t for t in terms if not isinstance(t, VectorReactionTerm)]
              for ij, terms in form.blocks.items()}
    picard = Form(form.kind + "_picard", form.row_space, form.col_space,
                  blocks, context=dict(form.context, state=state),
                  quad_degree=form.quad_degree)
    return _residual_bc_rows(form.col_space, state, bcs, picard.action(state))


ns_residual = rb_residual = _picard_residual


def poisson_residual(form, state, bcs=(), rhs=None):
    """Residual A x - b of the affine problem, with the Dirichlet entries of
    the state zeroed before the action; Dirichlet entries hold state -
    boundary value."""
    x = np.array(state, dtype=float)
    x[collect_bc_dofs(form.col_space, bcs)] = 0.0
    r = form.action(x)
    if rhs is not None:
        r -= rhs
    return _residual_bc_rows(form.col_space, state, bcs, r)


def jacobian_check(residual_fn, jac_form, state, bcs=(), ndirs=3, h=1e-6,
                   rng=None):
    """Max relative discrepancy between central finite differences of the
    residual and the Jacobian action over random directions."""
    rng = np.random.default_rng(rng)
    bc_dofs = collect_bc_dofs(jac_form.col_space, bcs)
    worst = 0.0
    for _ in range(ndirs):
        d = rng.standard_normal(len(state))
        # Newton corrections carry homogeneous BCs; probe the same subspace
        d[bc_dofs] = 0.0
        jac_form.context["state"] = state
        jd = jac_form.action(d)
        jd[bc_dofs] = 0.0
        rp = residual_fn(state + h * d)
        rm = residual_fn(state - h * d)
        fd = (rp - rm) / (2 * h)
        denom = max(np.linalg.norm(jd), 1.0)
        worst = max(worst, np.linalg.norm(fd - jd) / denom)
    return worst

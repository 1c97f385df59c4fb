"""Linear operators: implicit (matrix-free, form-bearing) and assembled.

An implicit operator wraps a block form and the Dirichlet dofs of its rows
and columns, `bc_rows` and `bc_cols` (given, or collected from
DirichletBCs, which are not kept); the PDE context is its form's,
`op.form.context`.  Both kinds give the index sets of their column fields,
and submatrix extraction is field-based on both: an index set is accepted
only if it is a concatenation of a subset of the fields, and the block is
an operator of the same kind with the column fields it matched, re-offset
(an implicit block restricts the form and the Dirichlet dofs to them).

Boundary conditions are applied here and nowhere else, by one convention:
the Dirichlet columns are zeroed, and the Dirichlet rows are zeroed with a
unit diagonal when the operator is square over the same fields (its form's
row space is its column space) and left zero otherwise, as in an
off-diagonal block.  The matrix-free apply reproduces that matrix by
zeroing the Dirichlet entries of its input and setting the Dirichlet rows
of its output; assembly applies the same rule to the CSR matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .forms import Form
from .spaces import MixedSpace, collect_bc_dofs

__all__ = ["LinearOperator", "ImplicitOperator", "AssembledOperator",
           "NoFieldMatch", "match_fields", "mat_types", "select_operators",
           "write_matrix_market"]

MAT_TYPES = ("matfree", "aij")


class NoFieldMatch(Exception):
    """The index set is not a concatenation of a subset of the fields."""


def match_fields(query, fields):
    """Field ids whose concatenated index sets equal the query exactly."""
    query = np.asarray(query)
    matched = []
    ptr = 0
    for fid, fis in enumerate(fields):
        fis = np.asarray(fis)
        if ptr < len(query) and query[ptr] == fis[0]:
            if ptr + len(fis) > len(query) or \
                    not np.array_equal(query[ptr:ptr + len(fis)], fis):
                raise NoFieldMatch("index set straddles field boundaries")
            matched.append(fid)
            ptr += len(fis)
    if ptr != len(query):
        raise NoFieldMatch("index set is not a concatenation of fields")
    return matched


class LinearOperator:
    shape = (0, 0)

    def apply(self, x):
        raise NotImplementedError

    def check_shape(self, x):
        if len(x) != self.shape[1]:
            raise ValueError(f"operand length {len(x)} does not match "
                             f"operator shape {self.shape}")

    def field_index_sets(self):
        return None

    def memory_footprint(self):
        return 0


class AssembledOperator(LinearOperator):
    """CSR-backed operator, with the index sets of its column fields when
    it has fields."""

    def __init__(self, A, fields=None):
        self.A = sp.csr_matrix(A)
        self.shape = self.A.shape
        self._fields = fields

    def apply(self, x):
        self.check_shape(x)
        return self.A @ x

    def field_index_sets(self):
        return self._fields

    def extract_sub(self, row_is, col_is):
        fields = None
        if self._fields is not None:
            # raises NoFieldMatch for an index set straddling fields
            match_fields(row_is, self._fields)
            sizes = [len(self._fields[f])
                     for f in match_fields(col_is, self._fields)]
            ends = np.cumsum(sizes)
            fields = [np.arange(e - n, e) for n, e in zip(sizes, ends)]
        sub = self.A[np.ix_(np.asarray(row_is), np.asarray(col_is))]
        return AssembledOperator(sub, fields=fields)

    def assemble(self):
        return self

    def memory_footprint(self):
        return self.A.data.nbytes + self.A.indices.nbytes + self.A.indptr.nbytes


def _apply_bcs(A, bc_rows, bc_cols, diagonal):
    """A with the Dirichlet rows and columns zeroed, and a unit diagonal on
    the Dirichlet rows if `diagonal`.  The pattern of A is filtered, so no
    zero is stored that A did not store: the Dirichlet rows come out empty,
    and each unit diagonal is inserted into an empty row."""
    n, m = A.shape
    keep_r = np.ones(n, dtype=bool)
    keep_r[bc_rows] = False
    keep_c = np.ones(m, dtype=bool)
    keep_c[bc_cols] = False
    keep = np.repeat(keep_r, np.diff(A.indptr))
    keep &= keep_c.take(A.indices)
    # each row starts after the kept entries of the rows before it
    indptr = np.searchsorted(np.flatnonzero(keep), A.indptr)
    indices, data = A.indices[keep], A.data[keep]
    if diagonal:
        rows = np.flatnonzero(~keep_r)
        indices = np.insert(indices, indptr[rows], rows)
        data = np.insert(data, indptr[rows], 1.0)
        indptr = indptr + np.concatenate(([0], np.cumsum(~keep_r)))
    return sp.csr_matrix((data, indices, indptr), shape=(n, m))


class ImplicitOperator(LinearOperator):
    """Matrix-free operator carrying the PDE-level problem description: a
    form with its Dirichlet rows and columns (see the module docstring)."""

    def __init__(self, form, bcs=(), bc_rows=None, bc_cols=None):
        self.form = form
        if bcs:
            bc_rows = collect_bc_dofs(form.row_space, bcs)
            bc_cols = collect_bc_dofs(form.col_space, bcs)
        none = np.empty(0, dtype=np.int64)
        self.bc_rows = none if bc_rows is None else np.asarray(bc_rows)
        self.bc_cols = none if bc_cols is None else np.asarray(bc_cols)
        self.shape = (form.row_space.num_dofs, form.col_space.num_dofs)
        # Dirichlet rows are identity on a diagonal block, zero elsewhere
        self._identity_rows = form.row_space is form.col_space

    def apply(self, x):
        self.check_shape(x)
        x = np.asarray(x, dtype=float)
        x0 = x
        if len(self.bc_cols):
            x0 = x.copy()
            x0[self.bc_cols] = 0.0
        y = self.form.action(x0)
        if len(self.bc_rows):
            y[self.bc_rows] = x[self.bc_rows] if self._identity_rows else 0.0
        return y

    def field_index_sets(self):
        cs = self.form.col_space
        return [cs.field_index_set(i) for i in range(cs.num_fields)]

    def extract_sub(self, row_is, col_is):
        fields = self.field_index_sets()
        return self.extract_fields(match_fields(row_is, fields),
                                   match_fields(col_is, fields))

    def extract_fields(self, rf, cf):
        """Implicit sub-operator over the given row/column field ids, which
        are equal or disjoint: a block that shares some fields between its
        rows and columns has no place for their Dirichlet unit diagonal."""
        form = self.form
        rf, cf = list(rf), list(cf)
        if rf != cf and set(rf) & set(cf):
            raise ValueError(f"row fields {rf} and column fields {cf} "
                             f"overlap but differ; extract equal or "
                             f"disjoint field sets")
        if rf == list(range(form.row_space.num_fields)) and rf == cf:
            return self
        col_sub = MixedSpace([form.col_space.fields[i] for i in cf])
        row_sub = col_sub if rf == cf else \
            MixedSpace([form.row_space.fields[i] for i in rf])
        blocks = {}
        for ri, i in enumerate(rf):
            for ci, j in enumerate(cf):
                terms = form.blocks.get((i, j))
                if terms:
                    blocks[(ri, ci)] = terms
        sub_form = Form(f"{form.kind}[{','.join(map(str, rf))};"
                        f"{','.join(map(str, cf))}]",
                        row_sub, col_sub, blocks,
                        context=form.context,
                        quad_degree=form.quad_degree,
                        state_space=form.state_space)
        bc_rows = self._slice_bc(self.bc_rows, form.row_space, rf, row_sub)
        bc_cols = self._slice_bc(self.bc_cols, form.col_space, cf, col_sub)
        return ImplicitOperator(sub_form, bc_rows=bc_rows, bc_cols=bc_cols)

    @staticmethod
    def _slice_bc(bc_dofs, space, field_ids, sub_space):
        out = [np.empty(0, dtype=np.int64)]
        for pos, i in enumerate(field_ids):
            lo, hi = space.offsets[i], space.offsets[i + 1]
            local = bc_dofs[(bc_dofs >= lo) & (bc_dofs < hi)] - lo
            out.append(local + sub_space.offsets[pos])
        return np.unique(np.concatenate(out))

    def assemble(self):
        """Force assembly of the underlying form, with the stored BCs."""
        A = self.form.assemble()
        if len(self.bc_rows) or len(self.bc_cols):
            A = _apply_bcs(A, self.bc_rows, self.bc_cols, self._identity_rows)
        return AssembledOperator(A, fields=self.field_index_sets())

    def memory_footprint(self):
        """Bytes the operator holds at any time: its Dirichlet dofs, the
        Newton state and the scalars of the context (no matrix entries, and
        no coefficient data, which the form builds at each use)."""
        total = self.bc_rows.nbytes + self.bc_cols.nbytes
        state = self.form.context.get("state")
        if state is not None:
            total += np.asarray(state).nbytes
        total += 8 * sum(1 for v in self.form.context.values()
                         if np.isscalar(v))
        return total


def mat_types(mat_type, pmat_type=None):
    """(mat_type, pmat_type), the second defaulting to the first; an
    unknown type raises ValueError."""
    pmat_type = mat_type if pmat_type is None else pmat_type
    for kind, value in (("mat", mat_type), ("pmat", pmat_type)):
        if value not in MAT_TYPES:
            raise ValueError(f"unknown {kind} type {value!r}; "
                             f"expected one of {', '.join(MAT_TYPES)}")
    return mat_type, pmat_type


def select_operators(implicit, mat_type, pmat_type=None):
    """The operator a Krylov method applies and the one its preconditioner
    is built from: `matfree` keeps the implicit operator, `aij` assembles
    it (once, when both ask for it)."""
    mat_type, pmat_type = mat_types(mat_type, pmat_type)
    A = implicit if mat_type == "matfree" else implicit.assemble()
    if pmat_type == mat_type:
        return A, A
    return A, implicit if pmat_type == "matfree" else implicit.assemble()


def write_matrix_market(A, stream):
    """CSR export in MatrixMarket coordinate format (debugging aid)."""
    A = sp.coo_matrix(A)
    stream.write("%%MatrixMarket matrix coordinate real general\n")
    stream.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
    for i, j, v in zip(A.row, A.col, A.data):
        stream.write(f"{i + 1} {j + 1} {v:.17g}\n")

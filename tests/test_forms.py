import gc
import itertools
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from blocksolve.mesh import build_unit_square, build_unit_cube, CellGeometry
from blocksolve.spaces import (build_space, taylor_hood, MixedSpace,
                               DirichletBC, interpolate, collect_bc_dofs,
                               collect_bc_values)
from blocksolve import forms
from blocksolve.elements import tabulate
from blocksolve.forms import (Form, mass_form, stiffness_form,
                              convection_diffusion_form, stokes_form,
                              ns_jacobian_form, rb_jacobian_form, load_vector,
                              ns_residual, rb_residual, poisson_residual,
                              jacobian_check, StateWind, UPWARD)
from blocksolve.operators import ImplicitOperator
from blocksolve.options import OptionsDB
from blocksolve.problems import (l2_error, poisson_mms, run_convection,
                                 ConvectionConfig)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _unit_right_triangle_space():
    # smallest mesh whose first cell is the unit right triangle scaled
    # by 1/n; use n=1 so the cell is the reference-sized triangle
    mesh = build_unit_square(1)
    return build_space(mesh, 1)


def test_mesh_freed_with_its_forms():
    mesh = build_unit_square(2)
    form = mass_form(build_space(mesh, 1))
    form.assemble()
    ref = weakref.ref(mesh)
    del mesh, form
    gc.collect()
    assert ref() is None


class TestLocalKernels:
    def test_p1_mass_kernel(self):
        V = _unit_right_triangle_space()
        form = mass_form(V)
        loc = _element_matrices(form, 0, 0)[0]
        area = 0.5
        expect = (area / 12.0) * np.array([[2.0, 1.0, 1.0],
                                           [1.0, 2.0, 1.0],
                                           [1.0, 1.0, 2.0]])
        # rows/cols follow the cell's local vertex order; the matrix is
        # permutation-invariant so compare directly
        assert np.allclose(loc, expect, atol=1e-14)

    def test_p1_stiffness_kernel_row_sums(self):
        V = _unit_right_triangle_space()
        loc = _element_matrices(stiffness_form(V), 0, 0)[0]
        assert np.allclose(loc.sum(axis=1), 0.0, atol=1e-14)
        assert np.allclose(loc, loc.T, atol=1e-14)
        assert np.isclose(np.abs(loc).max(), 1.0, atol=1e-14)

    def test_mass_matrix_total_sum_is_domain_area(self):
        mesh = build_unit_square(3)
        V = build_space(mesh, 2)
        M = mass_form(V).assemble()
        assert np.isclose(M.sum(), 1.0, atol=1e-13)

    def test_interior_poisson_row(self):
        # no-BC assembly on n=2: the single interior vertex row has
        # diagonal 4 and off-diagonal entries summing to -4
        mesh = build_unit_square(2)
        V = build_space(mesh, 1)
        A = stiffness_form(V).assemble().toarray()
        interior = int(np.argmin(
            np.sum((V.scalar_dof_coords - 0.5) ** 2, axis=1)))
        row = A[interior]
        assert np.isclose(row[interior], 4.0, atol=1e-13)
        assert np.isclose(row.sum(), 0.0, atol=1e-13)
        off = np.delete(row, interior)
        assert np.isclose(off.min(), -1.0, atol=1e-13)


class TestAssembleActionConsistency:
    @pytest.mark.parametrize("make", [
        lambda V: mass_form(V),
        lambda V: stiffness_form(V, kappa=2.5),
        lambda V: convection_diffusion_form(V, nu=0.1, wind=[1.0, 0.5]),
    ])
    def test_scalar_forms(self, make):
        mesh = build_unit_square(3)
        V = build_space(mesh, 2)
        form = make(V)
        A = form.assemble()
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.standard_normal(V.num_dofs)
            assert np.allclose(form.action(x), A @ x, atol=1e-12)

    def test_with_bcs(self):
        mesh = build_unit_square(3)
        V = build_space(mesh, 2)
        bc = DirichletBC(V, (1, 2, 3, 4))
        op = ImplicitOperator(stiffness_form(V), bcs=[bc])
        A = op.assemble().A
        rng = np.random.default_rng(8)
        x = rng.standard_normal(V.num_dofs)
        assert np.allclose(op.apply(x), A @ x, atol=1e-12)
        # Dirichlet rows act as identity
        assert np.allclose((A @ x)[bc.dofs], x[bc.dofs])

    def test_stokes_saddle_structure(self):
        mesh = build_unit_square(2)
        W = taylor_hood(mesh)
        A = stokes_form(W).assemble().toarray()
        nu = W.fields[0].num_dofs
        # pressure-pressure block is empty
        assert np.allclose(A[nu:, nu:], 0.0)
        # pressure gradient is the negative transpose of divergence
        assert np.allclose(A[:nu, nu:], -A[nu:, :nu].T, atol=1e-13)


def _rb_problem(dim):
    """RB Jacobian form at a random state and its BCs: Dirichlet velocity
    on every wall and temperature on one."""
    mesh = build_unit_square(2) if dim == 2 else build_unit_cube(1)
    walls = tuple(range(1, 2 * dim + 1))
    V = build_space(mesh, 2, ncomp=dim)
    Q = build_space(mesh, 1)
    T = build_space(mesh, 1)
    W = MixedSpace([V, Q, T])
    bcs = [DirichletBC(V, walls, value=[0.0] * dim, field=0),
           DirichletBC(T, (1,), value=1.0, field=2)]
    form = rb_jacobian_form(W, Ra=200.0, Pr=6.18)
    form.context["state"] = np.random.default_rng(dim).standard_normal(
        W.num_dofs)
    return form, bcs


def _rb_operator(dim):
    form, bcs = _rb_problem(dim)
    return ImplicitOperator(form, bcs=bcs)


def _action_matches_assembly(op, seed=3):
    """||apply(x) - A x|| <= 1e-12 ||A x||; an empty block must give 0."""
    x = np.random.default_rng(seed).standard_normal(op.shape[1])
    ref = op.assemble().A @ x
    return np.linalg.norm(op.apply(x) - ref) <= 1e-12 * np.linalg.norm(ref)


class TestActionMatchesAssembly:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_rb_sub_operator(self, dim):
        op = _rb_operator(dim)
        subsets = [c for r in (1, 2, 3)
                   for c in itertools.combinations(range(3), r)]
        for rf, cf in itertools.product(subsets, subsets):
            if rf != cf and set(rf) & set(cf):
                # overlapping but unequal field sets are refused
                with pytest.raises(ValueError):
                    op.extract_fields(rf, cf)
                continue
            sub = op.extract_fields(rf, cf)
            assert _action_matches_assembly(sub), (rf, cf)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pcd_fp_reads_parent_state(self, dim):
        assert _action_matches_assembly(ImplicitOperator(_pcd(dim)))

    def test_vector_mass(self):
        V = build_space(build_unit_square(2), 3, ncomp=2)
        assert _action_matches_assembly(ImplicitOperator(mass_form(V, coef=2.0)))

    def test_callable_wind_and_context_coefficient(self):
        V = build_space(build_unit_square(3), 2)
        form = convection_diffusion_form(
            V, nu="nu", wind=lambda x: np.array([np.sin(x[1]), x[0] ** 2]),
            context={"nu": 0.3})
        bc = DirichletBC(V, (1, 3))
        assert _action_matches_assembly(ImplicitOperator(form, bcs=[bc]))


class _Reads:
    """Field `field` of x at the quadrature points; records what a term
    reads of it."""

    def __init__(self, form, mixed, x, field, log, tag):
        self.at = form.at_points(mixed.fields[field],
                                 x[mixed.field_slice(field)])
        self.log, self.tag = log, tag

    def __getattr__(self, kind):
        self.log.add(self.tag + (kind,))
        return getattr(self.at, kind)


def test_terms_declare_what_coefficient_reads():
    # flops_per_apply counts tabulation products and contractions from
    # these declarations, and the action and assembly read D through them
    rb = _rb_operator(2).form
    V = build_space(rb.mesh, 2)
    for form in (rb, _ns_form(3), _pcd(2), mass_form(V, coef=_coef),
                 convection_diffusion_form(V, wind=[1.0, 0.5])):
        ncells, nq = form.mesh.num_cells, len(form.rule.weights)
        width = {"values": 1, "grads": form.mesh.dim}
        state = form.context.get("state", np.random.default_rng(0)
                                 .standard_normal(form.col_space.num_dofs))
        for (i, j), terms in form.blocks.items():
            kt = form.row_space.fields[i].ncomp
            ks = form.col_space.fields[j].ncomp
            for term in terms:
                log = set()
                fields = {f: _Reads(form, form.state_space, state, f, log, (f,))
                          for f in range(form.state_space.num_fields)}
                D = term.coefficient(form, fields)
                name = type(term).__name__
                assert log == ({term.state} if term.state else set()), name
                comps = (kt, ks) if term.couples else (1, 1)
                # a point axis of 1 exactly when D is constant on each cell
                points = nq if _varies_in_cell(form, term) else 1
                assert D.shape == ((ncells,) + comps + (
                    width[term.test], width[term.trial], points)), name


def _largest_array(obj, seen=None):
    """Entries of the largest numpy array reachable from obj through
    attributes, dictionaries, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        items = getattr(obj, "__dict__", {}).values()
    return max((_largest_array(x, seen) for x in items), default=0)


@pytest.mark.parametrize("make", [
    lambda: stiffness_form(build_space(build_unit_cube(2), 2)),
    lambda: _rb_operator(2).form,
    lambda: _ns_form(2),
])
def test_assembly_keeps_no_per_point_gradients(make):
    # assembly, load vectors, the matrix-free action and the residuals
    form = make()
    form.assemble()
    load_vector(form, 1.0)
    x = np.ones(form.col_space.num_dofs)
    ImplicitOperator(form).apply(x)
    residual = {"ns_jacobian": ns_residual,
                "rb_jacobian": rb_residual}.get(form.kind)
    if residual is not None:
        residual(form, x)
    ncells, nq = form.mesh.num_cells, len(form.rule.weights)
    nn = min(f.element.nnodes
             for f in form.row_space.fields + form.col_space.fields)
    # a physical-gradient array of any field would hold ncells*nq*nn*dim
    assert _largest_array(form) < ncells * nq * nn * form.mesh.dim


@pytest.mark.parametrize("make", [mass_form, stiffness_form])
def test_uncoupled_vector_blocks_store_no_zeros(make):
    # a term that couples no components is assembled on the diagonal
    # component pairs only
    mesh = build_unit_square(8)
    scalar = make(build_space(mesh, 2)).assemble()
    vector = make(build_space(mesh, 2, ncomp=2)).assemble()
    assert vector.has_canonical_format
    assert vector.nnz == 2 * scalar.nnz
    assert not np.any(vector.data == 0.0)


def test_coupled_forms_store_no_exact_zeros():
    # zero Jinv entries on the right-angled cells and the zero horizontal
    # component of the buoyancy sum to exact zeros; none is stored
    mesh = build_unit_square(4)
    W = MixedSpace([build_space(mesh, 2, ncomp=2), build_space(mesh, 1),
                    build_space(mesh, 1)])
    rb = rb_jacobian_form(W, Ra=1e4, Pr=1.0)
    rb.context["state"] = np.zeros(W.num_dofs)
    for form in (rb, stokes_form(taylor_hood(mesh))):
        A = form.assemble()
        assert A.has_canonical_format
        assert not np.any(A.data == 0.0), form.kind


def _coo_reference(form):
    """The form's matrix summed by scipy's COO -> CSR conversion from the
    element matrices of every block, written out triplet by triplet."""
    rs, cs = form.row_space, form.col_space
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    for i, j in form.blocks:
        E = form.block_local_matrices(i, j)
        if E is None:
            continue
        kt, ks = rs.fields[i].ncomp, cs.fields[j].ncomp
        rdofs = (rs.fields[i].cell_dofs + rs.offsets[i]).reshape(
            len(E), -1, kt)
        cdofs = (cs.fields[j].cell_dofs + cs.offsets[j]).reshape(
            len(E), -1, ks)
        if E.shape[1:3] == (1, 1) and (kt, ks) != (1, 1):
            pairs = [(k, k, 0, 0) for k in range(kt)]
        else:
            pairs = [(k, l, k, l) for k in range(kt) for l in range(ks)]
        for k, l, p, q in pairs:
            r, c = np.broadcast_arrays(rdofs[:, :, k, None],
                                       cdofs[:, None, :, l])
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(E[:, p, q].ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(rs.num_dofs, cs.num_dofs)).tocsr()


def _assembly_cases():
    cube = build_unit_cube(3)
    square = build_unit_square(4)
    V2 = build_space(square, 2, ncomp=2)
    rb = _rb_operator(2)
    return {
        "3d p3 stiffness": stiffness_form(build_space(cube, 3)),
        "2d p2 vector mass": mass_form(V2, coef=2.0),
        "2d p2 vector stiffness": stiffness_form(V2),
        "rb jacobian": rb.form,
        "stokes": stokes_form(taylor_hood(square)),
        "rb block (0, 2)": rb.extract_fields((0,), (2,)).form,
        "rb block (2, 0)": rb.extract_fields((2,), (0,)).form,
        "no terms": Form("empty", V2, V2, {(0, 0): []}),
    }


@pytest.mark.parametrize("case", sorted(_assembly_cases()))
def test_assembly_matches_coo_reference(case):
    # the sparse product sums duplicates in another order than the COO
    # conversion, so values agree to rounding, not bitwise
    form = _assembly_cases()[case]
    A, ref = form.assemble(), _coo_reference(form)
    assert A.shape == ref.shape
    assert A.has_canonical_format
    assert not np.any(A.data == 0.0)
    err = abs(A - ref)
    assert err.nnz == 0 or err.max() <= 1e-14 * abs(ref).max()


def _per_point(form, D):
    """A term's D copied out to every point and times the quadrature
    weights: the coefficient of the per-point contraction."""
    nq = len(form.rule.weights)
    return np.broadcast_to(D, D.shape[:5] + (nq,)) * form.rule.weights


def _per_point_element_matrices(form, term, test, trial, Dq):
    """Per-component element matrices from a weighted per-point D, with a
    reference tensor that keeps every point: the reference."""
    A = np.swapaxes(form.tabulation(test).slot(term.test), 0, 1)
    B = np.swapaxes(form.tabulation(trial).slot(term.trial), 0, 1)
    nt, ns = A.shape[2], B.shape[2]
    R = (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(
        -1, nt * ns)
    Dq = np.moveaxis(Dq, 5, 3)
    return (Dq.reshape(-1, len(R)) @ R).reshape(Dq.shape[:3] + (nt, ns))


def _per_point_action(form, term, i, j, Dq, x):
    """Field i of the action of one term from a weighted per-point D,
    contracted point by point and mapped back through the unweighted test
    tabulation: the reference."""
    test, trial = form.row_space.fields[i], form.col_space.fields[j]
    u = form.at_points(trial, x[form.col_space.field_slice(j)]).slot(
        term.trial)
    if Dq.shape[1:3] == (1, 1):
        yq = np.einsum("cefq,ckfq->ckeq", Dq[:, 0, 0], u)
    else:
        yq = np.einsum("cklefq,clfq->ckeq", Dq, u)
    B = form.tabulation(test).slot(term.test)
    yloc = yq.reshape(-1, B.shape[0] * B.shape[1]) @ B.reshape(
        -1, B.shape[2])
    dofs = test.cell_dofs
    yloc = yloc.reshape(len(dofs), test.ncomp, -1).transpose(0, 2, 1)
    return np.bincount(dofs.ravel(), weights=yloc.ravel(),
                       minlength=test.num_dofs)


def _cell_constant_blocks(dim):
    wind = [1.0, -0.5, 0.25][:dim]
    return {
        (0, 0): [forms.MassTerm(2.5), forms.StiffnessTerm(0.7),
                 forms.AdvectionTerm(wind)],
        (1, 1): [forms.MassTerm(2.5), forms.StiffnessTerm(0.7),
                 forms.AdvectionTerm(wind)],
        (0, 1): [forms.PressureGradientTerm(), forms.BuoyancyTerm(3.0)],
        (1, 0): [forms.DivergenceTerm()],
    }


@pytest.mark.parametrize("dim, degree", [(2, 1), (2, 2), (2, 3), (2, 4),
                                         (3, 1), (3, 2), (3, 3)])
def test_cell_constant_terms_match_per_point_contraction(dim, degree):
    # every cell-constant term on a vector (field 0) and a scalar (field 1)
    # space: its D has one point, and assembly and the action agree with
    # the per-point contraction of D copied out to every point
    mesh = build_unit_square(2) if dim == 2 else build_unit_cube(1)
    mixed = MixedSpace([build_space(mesh, degree, ncomp=dim),
                        build_space(mesh, max(degree - 1, 1))])
    x = np.random.default_rng(degree).standard_normal(mixed.num_dofs)
    for (i, j), terms in _cell_constant_blocks(dim).items():
        test, trial = mixed.fields[i], mixed.fields[j]
        for term in terms:
            form = Form("single", mixed, mixed, {(i, j): [term]})
            D = term.coefficient(form, None)
            assert D.shape[5] == 1, type(term).__name__
            Dq = _per_point(form, D)
            got = form.element_matrices(term, test, trial, D)
            expect = _per_point_element_matrices(form, term, test, trial,
                                                 Dq)
            assert got.shape == expect.shape
            err = np.abs(got - expect).max() / np.abs(expect).max()
            assert err <= 1e-13, (type(term).__name__, (i, j), err)
            got = form.action(x)[mixed.field_slice(i)]
            expect = _per_point_action(form, term, i, j, Dq, x)
            err = np.abs(got - expect).max() / np.abs(expect).max()
            assert err <= 1e-13, (type(term).__name__, (i, j), err)


def test_callable_and_state_terms_keep_every_point():
    form = mass_form(build_space(build_unit_square(2), 2))
    nq = len(form.rule.weights)
    for term in (forms.MassTerm(_coef), forms.StiffnessTerm(_coef),
                 forms.AdvectionTerm(lambda x: np.array([x[1], -x[0]]))):
        assert term.coefficient(form, None).shape[5] == nq
    for form in (_rb_operator(2).form, _ns_form(2)):
        state = forms._StateAtPoints(form)
        stated = [t for terms in form.blocks.values() for t in terms
                  if t.state]
        assert stated
        for term in stated:
            assert term.coefficient(form, state).shape[5] == nq


class TestFixedTermsKeepTheirD:
    def test_only_mass_and_stiffness_with_a_positive_number_are_spd(self):
        spd = [forms.MassTerm(), forms.MassTerm(2.5), forms.StiffnessTerm(2),
               forms.StiffnessTerm(np.float64(0.7))]
        other = [forms.MassTerm(0.0), forms.MassTerm(-1.0),
                 forms.StiffnessTerm(0), forms.StiffnessTerm(-1.0),
                 forms.MassTerm(_coef), forms.StiffnessTerm(_coef),
                 forms.MassTerm("c"), forms.StiffnessTerm("kappa"),
                 forms.AdvectionTerm([1.0, 0.5]),
                 forms.AdvectionTerm(StateWind(0)),
                 forms.VectorReactionTerm(0), forms.PressureGradientTerm(),
                 forms.DivergenceTerm(), forms.BuoyancyTerm(3.0)]
        assert all(t.spd for t in spd)
        assert not any(t.spd for t in other)

    def test_catalogue_terms_declare_spd_by_kind(self):
        # every term of every catalogue form, which covers every term type:
        # SPD exactly when it is a mass or stiffness term, all of whose
        # catalogue coefficients are positive numbers
        mesh = build_unit_square(2)
        V, Q = build_space(mesh, 2), build_space(mesh, 1)
        W = taylor_hood(mesh)
        Wrb = MixedSpace(list(W.fields) + [V])
        catalogue = [mass_form(V), stiffness_form(V, kappa=0.5),
                     convection_diffusion_form(V, wind=[1.0, 0.5]),
                     stokes_form(W, Re=10.0), ns_jacobian_form(W),
                     rb_jacobian_form(Wrb, 200.0, 6.18), mass_form(Q),
                     stiffness_form(Q),
                     convection_diffusion_form(Q, 0.1, StateWind(0))]
        terms = [t for form in catalogue for ts in form.blocks.values()
                 for t in ts]
        kinds = set(forms.Term.__subclasses__())
        for kind in list(kinds):
            kinds |= set(kind.__subclasses__())
        assert {type(t) for t in terms} == {k for k in kinds
                                           if k.__name__.endswith("Term")
                                           and not k.__name__.startswith("_")}
        for t in terms:
            assert t.spd == isinstance(t, (forms.MassTerm,
                                           forms.StiffnessTerm)), t

    def test_array_wind_changed_in_place_is_read(self):
        V = build_space(build_unit_square(3), 2)
        x = np.random.default_rng(3).standard_normal(V.num_dofs)
        wind = np.array([1.0, 0.5])
        form = convection_diffusion_form(V, wind=wind)
        form.action(x)
        wind[:] = [-0.25, 2.0]
        fresh = convection_diffusion_form(V, wind=[-0.25, 2.0])
        assert np.array_equal(form.action(x), fresh.action(x))

    def test_context_coefficient_never_goes_stale(self):
        V = build_space(build_unit_square(3), 2)
        x = np.random.default_rng(2).standard_normal(V.num_dofs)
        form = mass_form(V, coef="c", context={"c": 1.0})
        form.action(x)
        form.context["c"] = 2.5
        fresh = mass_form(V, coef="c", context={"c": 2.5})
        assert np.array_equal(form.action(x), fresh.action(x))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_number_coefficient_reassigned_after_an_apply_is_read(self, dim):
        # the stiffness and buoyancy terms have number coefficients; the
        # operator holds the same bytes whatever has been applied
        op = _rb_operator(dim)
        before = op.memory_footprint()
        x = np.random.default_rng(4).standard_normal(op.shape[1])
        op.apply(x)
        numbered = [t for ts in op.form.blocks.values() for t in ts
                    if isinstance(getattr(t, "coef", None), float)]
        assert len(numbered) == 3
        for term in numbered:
            term.coef *= 2.0
        assert _action_matches_assembly(op)
        assert op.memory_footprint() == before


def _peak_bytes(fn):
    """tracemalloc peak of one call of fn, with its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_assembly_peaks_below_ten_times_its_csr():
    V = build_space(build_unit_cube(6), 3)
    op = ImplicitOperator(stiffness_form(V),
                          bcs=[DirichletBC(V, tuple(range(1, 7)))])
    op.assemble()  # geometry and tabulations are made once
    peak, A = _peak_bytes(op.assemble)
    assert peak < 10 * A.memory_footprint()


def test_assembly_peaks_below_five_and_a_half_times_its_csr():
    # the sparse product holds the element columns and values (12 bytes
    # an entry) but no row index per entry and no unsummed CSR copy
    V = build_space(build_unit_cube(6), 3)
    op = ImplicitOperator(stiffness_form(V),
                          bcs=[DirichletBC(V, tuple(range(1, 7)))])
    op.assemble()
    peak, A = _peak_bytes(op.assemble)
    assert peak < 5.5 * A.memory_footprint()


def test_matrix_free_apply_peaks_below_450_bytes_per_dof():
    V = build_space(build_unit_square(32), 2)
    op = ImplicitOperator(stiffness_form(V),
                          bcs=[DirichletBC(V, (1, 2, 3, 4))])
    x = np.random.default_rng(0).standard_normal(V.num_dofs)
    op.apply(x)
    peak, _ = _peak_bytes(lambda: op.apply(x))
    assert peak < 450 * V.num_dofs


def test_nested_tree_tabulates_each_element_and_rule_once(monkeypatch):
    # the rb-iterative tree makes many forms over the same spaces: the
    # Jacobian, its extract_fields sub-forms, PCD's forms and the
    # residuals' Picard forms; they share one tabulation per pair
    calls = []

    def counted(element, points):
        calls.append((element, points.tobytes()))
        return tabulate(element, points)

    forms._reference_tables.cache_clear()
    monkeypatch.setattr(forms, "tabulate", counted)
    db = OptionsDB().parse_file(str(CONFIGS / "rb-iterative.opts"))
    res = run_convection(ConvectionConfig(n=4), db)
    assert res["report"].converged
    assert calls
    assert len(calls) == len(set(calls))
    assert forms._reference_tables.cache_info().misses == len(calls)
    assert forms._reference_tables.cache_info().hits > len(calls)


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


def _wq(form):
    """Quadrature weight times detJ at every point, (ncells, nq)."""
    return form.rule.weights[None, :] * form.geom.detJ[:, None]


def _element_matrices(form, i, j):
    """Element matrices (ncells, nt*kt, ns*ks) of block (i, j), laid out
    from its per-component-pair blocks."""
    blk = form.block_local_matrices(i, j)
    if blk.shape[1:3] == (1, 1):
        return _component_diag(blk[:, 0, 0], form.row_space.fields[i].ncomp)
    return _interleave(blk)


def _varies_in_cell(form, term):
    """Whether the term reads the Newton state or a callable coefficient or
    wind, so that its D varies within a cell."""
    coef = getattr(term, "coef", getattr(term, "wind", None))
    return bool(term.state) or callable(form.coefficient_value(coef))


def _parent_tables(form, space):
    """Basis values (nq, nn) and physical gradients (ncells, nq, nn, dim)."""
    tab = tabulate(space.element, form.rule.points)
    return tab.values, np.einsum("qne,ced->cqnd", tab.gradients,
                                 form.geom.Jinv)


def _parent_state(form, field):
    """State field values (ncells, nq, k) and gradients (ncells, nq, k,
    dim) through the physical-gradient arrays."""
    space = form.state_space.fields[field]
    x = form.context["state"][form.state_space.field_slice(field)]
    xloc = x[space.cell_dofs].reshape(form.mesh.num_cells, -1, space.ncomp)
    vals, grads = _parent_tables(form, space)
    return (np.einsum("qn,cnk->cqk", vals, xloc),
            np.einsum("cqnd,cnk->cqkd", grads, xloc))


def _parent_local(form, term, i, j):
    """Element matrices of one term by the einsums over physical gradient
    arrays that assembly used before reference tensors: the reference."""
    test, trial = form.row_space.fields[i], form.col_space.fields[j]
    tv, tg = _parent_tables(form, test)
    sv, sg = _parent_tables(form, trial)
    wq = _wq(form)
    name = type(term).__name__
    if name == "MassTerm":
        c = form.coefficient_at_points(term.coef)
        return _component_diag(np.einsum("cq,qi,qj->cij", wq * c, tv, sv),
                               trial.ncomp)
    if name == "StiffnessTerm":
        c = form.coefficient_at_points(term.coef)
        return _component_diag(np.einsum("cq,cqid,cqjd->cij", wq * c, tg, sg),
                               trial.ncomp)
    if name == "AdvectionTerm":
        if isinstance(term.wind, StateWind):
            w = _parent_state(form, term.wind.field)[0]
        else:
            w = form.wind_at_points(term.wind)
        return _component_diag(
            np.einsum("cq,cqd,qi,cqjd->cij", wq, w, tv, sg), trial.ncomp)
    if name == "VectorReactionTerm":
        g0 = _parent_state(form, term.state_field)[1]
        return _interleave(np.einsum("cq,cqkl,qi,qj->cklij", wq, g0, tv, sv))
    if name == "PressureGradientTerm":
        blk = np.einsum("cq,cqid,qj->cdij", wq, tg, sv)
        return _interleave(-blk[:, :, None])
    if name == "DivergenceTerm":
        return _interleave(np.einsum("cq,qi,cqjd->cdij", wq, tv, sg)[:, None])
    if name == "BuoyancyTerm":
        c = form.coefficient_value(term.coef)
        scalar = np.einsum("cq,qi,qj->cij", wq, tv, sv)
        zhat = UPWARD[form.mesh.dim]
        return _interleave((c * zhat)[:, None, None, None]
                           * scalar[:, None, None])
    if name == "ScalarCouplingTerm":
        g0 = _parent_state(form, term.state_field)[1][:, :, 0]
        blk = np.einsum("cq,cqd,qi,qj->cdij", wq, g0, tv, sv)
        return _interleave(blk[:, None])
    raise AssertionError(f"no reference for {name}")


def _coef(x):
    return 1.0 + x[0] * x[-1]


def _ns_form(dim):
    W = taylor_hood(build_unit_square(2) if dim == 2 else build_unit_cube(1))
    form = ns_jacobian_form(W, Re=30.0)
    form.context["state"] = np.random.default_rng(5).standard_normal(
        W.num_dofs)
    return form


def _pcd(dim):
    """PCD's Fp on the pressure of an RB operator, read at its state."""
    form = _rb_operator(dim).form
    Q = form.col_space.fields[1]
    return Form("convection_diffusion", Q, Q,
                {(0, 0): [forms.StiffnessTerm(1.0 / 20.0),
                          forms.AdvectionTerm(StateWind(0))]},
                context=form.context, state_space=form.col_space)


@pytest.mark.parametrize("make", [
    lambda: mass_form(build_space(build_unit_square(3), 3), coef=_coef),
    lambda: mass_form(build_space(build_unit_cube(2), 2, ncomp=3), coef=_coef),
    lambda: stiffness_form(build_space(build_unit_square(3), 3), kappa=_coef),
    lambda: stiffness_form(build_space(build_unit_cube(2), 2), kappa=_coef),
    lambda: convection_diffusion_form(
        build_space(build_unit_square(3), 2), nu=0.1,
        wind=lambda x: np.array([np.sin(x[1]), x[0] ** 2])),
    lambda: convection_diffusion_form(
        build_space(build_unit_cube(2), 2), nu=0.1,
        wind=lambda x: np.array([x[1], -x[0], x[2] ** 2])),
    lambda: _ns_form(2), lambda: _ns_form(3),
    lambda: _rb_operator(2).form, lambda: _rb_operator(3).form,
    lambda: _pcd(2), lambda: _pcd(3),
])
def test_element_matrices_match_physical_gradient_einsums(make):
    form = make()
    for (i, j), terms in form.blocks.items():
        for term in terms:
            single = Form(form.kind, form.row_space, form.col_space,
                          {(i, j): [term]}, context=form.context,
                          quad_degree=form.quad_degree,
                          state_space=form.state_space)
            got = _element_matrices(single, i, j)
            expect = _parent_local(form, term, i, j)
            assert got.shape == expect.shape
            err = np.abs(got - expect).max() / np.abs(expect).max()
            assert err <= 1e-13, (type(term).__name__, (i, j), err)


def _parent_residual(form, state, bcs):
    """The NS or RB residual by the einsums over physical gradient arrays
    that `ns_residual`/`rb_residual` used before the Picard action: the
    reference."""
    mixed, wq = form.col_space, _wq(form)

    def field(f):
        space = mixed.fields[f]
        xloc = state[mixed.field_slice(f)][space.cell_dofs].reshape(
            len(wq), -1, space.ncomp)
        vals, grads = _parent_tables(form, space)
        return (vals, grads, np.einsum("qn,cnk->cqk", vals, xloc),
                np.einsum("cqnd,cnk->cqkd", grads, xloc))

    rb = form.kind == "rb_jacobian"
    tv, tg, u, gu = field(0)
    pv, _, p, _ = field(1)
    nu = 1.0 if rb else 1.0 / form.context["Re"]
    force = np.einsum("cqd,cqkd->cqk", u, gu)
    if rb:
        sv, sg, T, gT = field(2)
        force = force + (form.context["Ra"] / form.context["Pr"]
                         * T * UPWARD[form.mesh.dim])
    parts = [np.einsum("cq,cqkd,cqid->cik", nu * wq, gu, tg)
             + np.einsum("cq,cqk,qi->cik", wq, force, tv)
             - np.einsum("cq,cq,cqik->cik", wq, p[..., 0], tg),
             np.einsum("cq,cqkk,qi->ci", wq, gu, pv)]
    if rb:
        gT = gT[:, :, 0]
        parts.append(np.einsum("cq,cqd,cqid->ci", wq * form.context["Pr"],
                               gT, sg)
                     + np.einsum("cq,cqd,cqd,qi->ci", wq, u, gT, sv))
    r = np.zeros(mixed.num_dofs)
    for f, loc in enumerate(parts):
        dofs = mixed.fields[f].cell_dofs + mixed.offsets[f]
        r += np.bincount(dofs.ravel(), weights=loc.ravel(), minlength=len(r))
    d, v = collect_bc_values(mixed, bcs)
    r[d] = state[d] - v
    return r


def _lid(x):
    top = np.where(np.abs(x[-1] - 1.0) < 1e-12, 1.0, 0.0)
    return [top] + [np.zeros_like(top)] * (len(x) - 1)


@pytest.mark.parametrize("dim", [2, 3])
def test_residuals_match_physical_gradient_einsums(dim):
    ns = _ns_form(dim)
    walls = tuple(range(1, 2 * dim + 1))
    ns_bcs = [DirichletBC(ns.col_space.fields[0], walls, value=_lid, field=0)]
    rb, rb_bcs = _rb_problem(dim)
    for form, bcs, residual in ((ns, ns_bcs, ns_residual),
                                (rb, rb_bcs, rb_residual)):
        state = form.context["state"]
        got = residual(form, state, bcs)
        expect = _parent_residual(form, state, bcs)
        err = np.abs(got - expect).max() / np.abs(expect).max()
        assert err <= 1e-13, (form.kind, err)


class TestJacobians:
    def test_ns_jacobian_at_zero_state_is_stokes(self):
        mesh = build_unit_square(2)
        W = taylor_hood(mesh)
        J = ns_jacobian_form(W, Re=7.0).assemble()
        S = stokes_form(MixedSpace(W.fields), Re=7.0).assemble()
        assert np.allclose((J - S).toarray(), 0.0, atol=1e-13)

    def test_ns_fd_jacobian(self):
        mesh = build_unit_square(3)
        W = taylor_hood(mesh)
        bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4),
                           value=[0.0, 0.0], field=0)]
        form = ns_jacobian_form(W, Re=50.0)
        rng = np.random.default_rng(11)
        state = 0.1 * rng.standard_normal(W.num_dofs)
        err = jacobian_check(lambda x: ns_residual(form, x, bcs),
                             form, state, bcs, rng=rng)
        assert err < 1e-6

    def test_rb_fd_jacobian(self):
        mesh = build_unit_square(2)
        V = build_space(mesh, 2, ncomp=2)
        Q = build_space(mesh, 1)
        T = build_space(mesh, 1)
        W = MixedSpace([V, Q, T])
        bcs = [DirichletBC(V, (1, 2, 3, 4), value=[0.0, 0.0], field=0),
               DirichletBC(T, (1,), value=1.0, field=2),
               DirichletBC(T, (2,), value=0.0, field=2)]
        form = rb_jacobian_form(W, Ra=200.0, Pr=6.18)
        rng = np.random.default_rng(12)
        state = 0.1 * rng.standard_normal(W.num_dofs)
        err = jacobian_check(lambda x: rb_residual(form, x, bcs),
                             form, state, bcs, rng=rng)
        assert err < 1e-6


class TestResiduals:
    def test_poisson_residual_vanishes_at_solution(self):
        mesh = build_unit_square(3)
        V = build_space(mesh, 1)
        bc = DirichletBC(V, (1, 2, 3, 4))
        form = stiffness_form(V)
        rhs = load_vector(form, 1.0)
        import scipy.sparse.linalg as spla
        A = ImplicitOperator(form, bcs=[bc]).assemble().A.tocsc()
        b = rhs.copy()
        b[bc.dofs] = 0.0
        x = spla.spsolve(A, b)
        r = poisson_residual(form, x, bcs=[bc], rhs=rhs)
        assert np.linalg.norm(r) < 1e-12

    def test_residual_dirichlet_rows_hold_defect(self):
        mesh = build_unit_square(2)
        W = taylor_hood(mesh)
        lid = lambda x: [np.where(np.abs(x[1] - 1.0) < 1e-12, 1.0, 0.0),
                         np.zeros_like(x[1])]
        bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4), value=lid, field=0)]
        form = ns_jacobian_form(W, Re=1.0)
        r = ns_residual(form, np.zeros(W.num_dofs), bcs)
        dofs = collect_bc_dofs(W, bcs)
        d, v = collect_bc_values(W, bcs)
        # zero state minus boundary data
        assert np.allclose(r[d], -v, atol=1e-14)


def test_load_vector_against_mass_matrix():
    # (1, v) equals M @ 1
    mesh = build_unit_square(3)
    V = build_space(mesh, 2)
    form = mass_form(V)
    b = load_vector(form, 1.0)
    M = form.assemble()
    assert np.allclose(b, M @ np.ones(V.num_dofs), atol=1e-13)


def test_quadrature_degree_override():
    mesh = build_unit_square(2)
    V = build_space(mesh, 1)
    f1 = mass_form(V)
    assert f1.quad_degree == 3


# --- callables of the coordinates -------------------------------------------

class _Counted:
    """A callable that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def _per_point_evaluate(geom, f, rule):
    """Callables evaluated one point at a time, as before the
    coordinate-first convention: the reference for one call per point set."""
    return np.apply_along_axis(lambda x: np.asarray(f(x), dtype=float),
                               2, geom.physical_points(rule))


def _per_point_mms(dim, kappa=1.0):
    def exact(x):
        return float(np.prod(np.sin(np.pi * np.asarray(x))))

    def forcing(x):
        return kappa * dim * np.pi ** 2 * exact(x)

    return exact, forcing


def test_callables_called_once_per_use():
    V = build_space(build_unit_square(3), 3)
    coef = _Counted(lambda x: 1.0 + x[0] * x[1])
    wind = _Counted(lambda x: [x[1], -x[0]])
    f = _Counted(lambda x: np.sin(x[0]) * x[1])
    mass = mass_form(V, coef=coef)
    cd = convection_diffusion_form(V, nu=0.1, wind=wind)
    x = np.random.default_rng(0).standard_normal(V.num_dofs)
    uses = [(coef, mass.assemble), (coef, lambda: mass.action(x)),
            (wind, cd.assemble), (wind, lambda: cd.action(x)),
            (f, lambda: load_vector(mass, f)),
            (f, lambda: l2_error(V, x, f)),
            (f, lambda: mass.geom.evaluate(f, mass.rule))]
    for counted, use in uses:
        before = counted.calls
        use()
        assert counted.calls == before + 1


@pytest.mark.parametrize("dim, degree", [(2, 4), (3, 3)])
def test_mms_load_and_error_match_per_point_calls(dim, degree, monkeypatch):
    mesh = build_unit_square(4) if dim == 2 else build_unit_cube(2)
    V = build_space(mesh, degree)
    form = stiffness_form(V, kappa=1.5)
    x = np.random.default_rng(3).standard_normal(V.num_dofs)
    exact, forcing = poisson_mms(dim, 1.5)
    got = load_vector(form, forcing), l2_error(V, x, exact)
    ref_exact, ref_forcing = _per_point_mms(dim, 1.5)
    monkeypatch.setattr(CellGeometry, "evaluate", _per_point_evaluate)
    ref = load_vector(form, ref_forcing), l2_error(V, x, ref_exact)
    assert np.linalg.norm(got[0] - ref[0]) <= 1e-14 * np.linalg.norm(ref[0])
    assert abs(got[1] - ref[1]) <= 1e-14 * ref[1]


@pytest.mark.parametrize("make, use", [
    # a scalar wind
    (lambda V: convection_diffusion_form(V, wind=lambda x: x[0]), "assemble"),
    # a wind with 3 components on a 2D mesh
    (lambda V: convection_diffusion_form(
        V, wind=lambda x: [x[0], x[1], x[0]]), "assemble"),
    # a vector coefficient
    (lambda V: mass_form(V, coef=lambda x: [x[0], x[1]]), "assemble"),
    (lambda V: mass_form(V, coef=lambda x: [x[0], x[1]]), "action"),
    # a constant wind with 3 entries on a 2D mesh
    (lambda V: convection_diffusion_form(V, wind=[1.0, 0.5, 0.2]),
     "assemble"),
], ids=["scalar-wind", "3-wind-2d", "vector-coef-assemble",
        "vector-coef-action", "3-constant-wind-2d"])
def test_coefficient_value_shapes_off_the_convention_raise(make, use):
    form = make(build_space(build_unit_square(2), 2))
    run = (form.assemble if use == "assemble" else
           lambda: form.action(np.ones(form.col_space.num_dofs)))
    with pytest.raises(ValueError,
                       match=r"expected \(.*\); callables of the coordinates "
                             r"take x of shape \(dim, \.\.\.\)"):
        run()


@pytest.mark.parametrize("f", [
    lambda x: 1.0 if x[0] > 0.5 else 0.0,            # a Python branch
    lambda x: float(np.prod(np.sin(np.pi * x))),     # one value for all
    lambda x: 2.0,                                   # 0-d constant
    lambda x: [x[0], 0.0],                           # ragged components
    lambda x: x[0][:, :1],                           # wrong point shape
])
def test_callables_off_the_convention_raise(f):
    form = mass_form(build_space(build_unit_square(2), 2))
    with pytest.raises(ValueError, match=r"x of shape \(dim, \.\.\.\)"):
        load_vector(form, f)
    with pytest.raises(ValueError, match=r"x of shape \(dim, \.\.\.\)"):
        mass_form(form.row_space.fields[0], coef=f).assemble()


def _coefficients(form):
    """{(block, term class): coefficient} of the scaled terms of a form."""
    return {(ij, type(t).__name__): t.coef for ij, terms in form.blocks.items()
            for t in terms if hasattr(t, "coef")}


@pytest.mark.parametrize("make, context, expect", [
    (lambda W, ctx: stokes_form(W, Re=100.0, context=ctx), {"Re": 10.0},
     {((0, 0), "StiffnessTerm"): 0.1}),
    (lambda W, ctx: ns_jacobian_form(W, Re=100.0, context=ctx), {"Re": 10.0},
     {((0, 0), "StiffnessTerm"): 0.1}),
    (lambda W, ctx: rb_jacobian_form(W, Ra=200.0, Pr=6.18, context=ctx),
     {"Ra": 1e4, "Re": 2.0},
     {((0, 0), "StiffnessTerm"): 0.5, ((0, 2), "BuoyancyTerm"): 1e4 / 6.18,
      ((2, 2), "StiffnessTerm"): 6.18}),
], ids=["stokes", "ns_jacobian", "rb_jacobian"])
def test_context_value_wins_over_the_argument(make, context, expect):
    # PCD and the mass Schur approximation read Re from the context, so
    # the form's own terms are built from the same value
    mesh = build_unit_square(2)
    W = MixedSpace([build_space(mesh, 2, ncomp=2), build_space(mesh, 1),
                    build_space(mesh, 1)])
    given = dict(context)
    form = make(W, context)
    assert all(form.context[k] == v for k, v in given.items())
    assert _coefficients(form) == pytest.approx(expect)

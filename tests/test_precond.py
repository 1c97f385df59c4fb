import gc
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from blocksolve.elements import lagrange_element, tabulate
from blocksolve.mesh import build_unit_square, build_unit_cube
from blocksolve.spaces import (build_space, taylor_hood, MixedSpace,
                               DirichletBC, collect_bc_dofs, interpolate)
from blocksolve.forms import (Form, StateWind, VectorReactionTerm,
                              StiffnessTerm, PressureGradientTerm,
                              DivergenceTerm, AdvectionTerm, mass_form,
                              stiffness_form, stokes_form,
                              convection_diffusion_form, ns_jacobian_form)
from blocksolve.operators import ImplicitOperator, AssembledOperator
from blocksolve.krylov import KSP, Nullspace
from blocksolve.options import OptionsDB
from blocksolve.factory import build_pc
from blocksolve import precond
from blocksolve.precond import (NonePC, JacobiPC, SORPC, LUPC, ILUPC,
                                KSPPC, AssembledPC, TelescopePC,
                                FieldSplitPC, PCDPC, MassSchurPC,
                                SchwarzPC, MissingContext)


def _poisson(n=6, degree=2):
    mesh = build_unit_square(n)
    V = build_space(mesh, degree)
    bc = DirichletBC(V, (1, 2, 3, 4))
    A = ImplicitOperator(stiffness_form(V), bcs=[bc])
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    b[bc.dofs] = 0.0
    return A, b, bc


def _stokes(n=4):
    mesh = build_unit_square(n)
    W = taylor_hood(mesh)
    bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4),
                       value=[0.0, 0.0], field=0)]
    A = ImplicitOperator(stokes_form(W), bcs=bcs)
    nsv = np.zeros(A.shape[0])
    nsv[W.field_slice(1)] = 1.0
    nsp = Nullspace([nsv])
    rng = np.random.default_rng(1)
    b = rng.standard_normal(A.shape[0])
    b[collect_bc_dofs(W, bcs)] = 0.0
    return A, nsp.project(b), nsp, W


def _lu(op):
    """Preonly KSP with an exact LU of the assembled operator."""
    return KSP("preonly", pc=LUPC().set_up(op.assemble()))


class TestAlgebraic:
    def test_jacobi_is_diagonal_inverse(self):
        A, b, _ = _poisson()
        Aasm = A.assemble()
        pc = JacobiPC().set_up(Aasm)
        assert np.allclose(pc.apply(b), b / Aasm.A.diagonal())

    def test_lu_is_exact(self):
        A, b, _ = _poisson()
        Aasm = A.assemble()
        pc = LUPC().set_up(Aasm)
        assert np.allclose(Aasm.A @ pc.apply(b), b, atol=1e-10)

    def test_each_pc_accelerates_cg(self):
        A, b, _ = _poisson(n=8, degree=2)
        Aasm = A.assemble()
        _, base = KSP("cg", rtol=1e-8, max_it=2000).solve(Aasm, b)
        for pc, strict in ((JacobiPC(), False), (SORPC(), True),
                           (ILUPC(), True), (LUPC(), True)):
            pc.set_up(Aasm)
            _, rep = KSP("cg", rtol=1e-8, max_it=2000, pc=pc).solve(Aasm, b)
            assert rep.converged
            if strict:
                assert rep.iterations < base.iterations, pc.type_name
            else:
                # diagonal scaling cannot help on a uniform mesh, but it
                # must not hurt much either
                assert rep.iterations <= base.iterations + 2, pc.type_name

    def test_ssor_linear_and_symmetric(self):
        A, b, _ = _poisson()
        Aasm = A.assemble()
        pc = SORPC(omega=1.2).set_up(Aasm)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(len(b))
        y = rng.standard_normal(len(b))
        # linearity
        assert np.allclose(pc.apply(2 * x + 3 * y),
                           2 * pc.apply(x) + 3 * pc.apply(y), atol=1e-10)
        # symmetry of the SSOR operator
        assert np.isclose(np.dot(pc.apply(x), y),
                          np.dot(x, pc.apply(y)), atol=1e-10)

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("its", [1, 2])
    def test_sor_matches_split_triangles(self, omega, symmetric, its):
        # the sweeps solve with D/omega + L and D/omega + U built by
        # splitting A: bitwise as the public spsolve_triangular solves
        # them, which pins SORPC's use of SuperLU's private kernel to it,
        # and to rounding as their splu factors do
        def triangle(lower):
            return sp.diags(d / omega) + (sp.tril(A, k=-1) if lower
                                          else sp.triu(A, k=1))

        def solve_triangular(lower):
            T = triangle(lower).tocsr()
            return lambda b: spla.spsolve_triangular(T, b, lower=lower)

        def solve_factored(lower):
            return spla.splu(triangle(lower).tocsc(), permc_spec="NATURAL",
                             options={"SymmetricMode": False}).solve

        def sweeps(fwd, bwd):
            def sweep(r):
                if symmetric:
                    return omega * (2.0 - omega) * bwd((d / omega) * fwd(r))
                return fwd(r)
            z = sweep(r)
            for _ in range(its - 1):
                z = z + sweep(r - A @ z)
            return z

        V = build_space(build_unit_square(5), 2)
        wind = ImplicitOperator(
            convection_diffusion_form(V, nu=0.1, wind=[1.0, 0.5]),
            bcs=[DirichletBC(V, (1, 2))])
        rng = np.random.default_rng(3)
        for op in (_poisson()[0].assemble(), wind.assemble()):
            A = op.A
            r = rng.standard_normal(A.shape[0])
            d = A.diagonal()
            got = SORPC(omega=omega, its=its,
                        symmetric=symmetric).set_up(op).apply(r)
            assert np.array_equal(got, sweeps(solve_triangular(True),
                                              solve_triangular(False)))
            # normwise: entry by entry, a second sweep's small entries
            # differ by up to 3e-13 of themselves
            ref = sweeps(solve_factored(True), solve_factored(False))
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_sor_factors_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sor set-up factored a matrix")

        monkeypatch.setattr(spla, "splu", refuse)
        monkeypatch.setattr(spla, "spilu", refuse)
        A, b, _ = _poisson()
        pc = SORPC(omega=1.2).set_up(A.assemble())
        assert np.all(np.isfinite(pc.apply(b)))

    def test_sor_non_canonical_csr(self):
        # unsorted column indices and duplicate entries give the sweeps of
        # the canonical matrix, and the operator's matrix is left as it is
        A, b, _ = _poisson()
        C = A.assemble().A
        # every entry split in two halves, each row shuffled
        coo = C.tocoo()
        order = np.random.default_rng(4).permutation(2 * C.nnz)
        order = order[np.argsort(np.tile(coo.row, 2)[order], kind="stable")]
        N = sp.csr_matrix((np.tile(coo.data / 2, 2)[order],
                           np.tile(coo.col, 2)[order], 2 * C.indptr),
                          shape=C.shape)
        assert not N.has_canonical_format
        kept = N.indices.copy()
        for symmetric in (True, False):
            got = SORPC(omega=1.3, its=2, symmetric=symmetric).set_up(
                AssembledOperator(N)).apply(b)
            expect = SORPC(omega=1.3, its=2, symmetric=symmetric).set_up(
                AssembledOperator(C)).apply(b)
            assert np.array_equal(got, expect)
        assert np.array_equal(N.indices, kept)

    def test_sor_int64_indices(self):
        # indices that fit are cast to SuperLU's C int; one that does not
        # is refused, never cast silently
        A, b, _ = _poisson()
        C = A.assemble().A
        W = C.copy()
        W.indices = W.indices.astype(np.int64)
        W.indptr = W.indptr.astype(np.int64)
        assert W.tocsr().indices.dtype == np.int64
        assert np.array_equal(SORPC().set_up(AssembledOperator(W)).apply(b),
                              SORPC().set_up(AssembledOperator(C)).apply(b))
        with pytest.raises(ValueError, match="pc sor .* 32-bit indices"):
            precond._intc(np.array([0, 2 ** 31]), SORPC())

    def test_sor_solve_failure_names_node(self, monkeypatch):
        A, b, _ = _poisson()
        pc = SORPC(prefix="fieldsplit_0_").set_up(A.assemble())
        monkeypatch.setattr(precond, "_gstrs",
                            lambda *args: (np.zeros(len(b)), 1))
        with pytest.raises(precond.SingularFactor,
                           match=r"pc sor \(-fieldsplit_0_\): .*info=1"):
            pc.apply(b)

    def test_sor_invalid_omega(self):
        with pytest.raises(ValueError):
            SORPC(omega=2.5)

    @pytest.mark.parametrize("its", [0, -3])
    def test_sor_needs_a_sweep(self, its):
        with pytest.raises(ValueError, match="at least one sweep"):
            SORPC(its=its)

    def test_algebraic_needs_assembled(self):
        A, _, _ = _poisson()
        with pytest.raises(MissingContext):
            JacobiPC().set_up(A)

    def test_none_pc_identity_and_transpose(self):
        pc = NonePC()
        r = np.arange(4.0)
        assert np.array_equal(pc.apply(r), r)


class TestWrappers:
    def test_assembled_pc_wraps_matfree(self):
        A, b, _ = _poisson()
        pc = AssembledPC(inner_maker=lambda op: LUPC().set_up(op)).set_up(A)
        _, rep = KSP("cg", rtol=1e-10, pc=pc).solve(A, b)
        assert rep.converged
        assert rep.iterations == 1  # the inner is exact lu

    def test_telescope_passthrough(self):
        A, b, _ = _poisson()
        pc = TelescopePC(
            inner_maker=lambda op: LUPC().set_up(op.assemble())).set_up(A)
        _, rep = KSP("cg", rtol=1e-10, pc=pc).solve(A, b)
        assert rep.converged

    def test_ksp_pc_inner_solve(self):
        A, b, _ = _poisson()
        Aasm = A.assemble()
        inner = lambda op: KSP("cg", rtol=1e-2, max_it=100,
                               pc=JacobiPC().set_up(op))
        pc = KSPPC(ksp_maker=inner).set_up(Aasm)
        _, rep = KSP("fgmres", rtol=1e-8, pc=pc, max_it=100).solve(Aasm, b)
        assert rep.converged


class TestFieldSplit:
    def _maker(self, tight_schur=False):
        def maker(i, sub):
            if hasattr(sub, "assemble") and not hasattr(sub, "a11"):
                return KSP("preonly", pc=LUPC().set_up(sub.assemble()))
            rtol = 1e-12 if tight_schur else 1e-8
            return KSP("gmres", rtol=rtol, max_it=400, restart=200)
        return maker

    def test_schur_fact_iteration_counts(self):
        A, b, nsp, W = _stokes()
        expected = {"full": 1, "lower": 2, "upper": 2, "diag": 3}
        for fact, its in expected.items():
            pc = FieldSplitPC(fs_type="schur", fact_type=fact,
                              sub_ksp_maker=self._maker(True)).set_up(A)
            _, rep = KSP("fgmres", rtol=1e-9, pc=pc, max_it=50,
                         nullspace=nsp).solve(A, b)
            assert rep.converged, fact
            assert rep.iterations <= its, (fact, rep.iterations)

    def _two_field(self, n=4):
        # two coupled scalar fields with nonsingular diagonal blocks
        from blocksolve.forms import Form, MassTerm, StiffnessTerm
        mesh = build_unit_square(n)
        V0 = build_space(mesh, 2)
        V1 = build_space(mesh, 1)
        W = MixedSpace([V0, V1])
        blocks = {(0, 0): [StiffnessTerm(1.0), MassTerm(1.0)],
                  (1, 0): [MassTerm(0.5)],
                  (1, 1): [MassTerm(1.0)]}
        form = Form("two_field", W, W, blocks)
        A = ImplicitOperator(form)
        b = np.random.default_rng(7).standard_normal(A.shape[0])
        return A, b, W

    def test_additive_equals_block_jacobi(self):
        A, b, W = self._two_field()
        pc = FieldSplitPC(fs_type="additive",
                          sub_ksp_maker=self._maker()).set_up(A)
        z = pc.apply(b)
        import scipy.sparse.linalg as spla
        Afull = A.assemble().A
        for i in range(2):
            idx = W.field_index_set(i)
            ref = spla.spsolve(Afull[np.ix_(idx, idx)].tocsc(), b[idx])
            assert np.allclose(z[idx], ref, atol=1e-8)

    @pytest.mark.parametrize("assembled", [False, True])
    def test_split_takes_its_fields_in_the_order_given(self, assembled):
        # one split (1, 0) is the whole operator with field 1 first; with
        # an exact sub-solve the preconditioner is the inverse of A
        A, b, W = self._two_field()
        if assembled:
            A = A.assemble()
        pc = FieldSplitPC(splits=[(1, 0)],
                          sub_ksp_maker=self._maker()).set_up(A)
        assert np.allclose(A.apply(pc.apply(b)), b, atol=1e-8)

    def test_multiplicative_is_lower_block_gauss_seidel(self):
        A, b, W = self._two_field()
        pc = FieldSplitPC(fs_type="multiplicative",
                          sub_ksp_maker=self._maker()).set_up(A)
        z = pc.apply(b)
        import scipy.sparse.linalg as spla
        Afull = A.assemble().A
        i0 = W.field_index_set(0)
        i1 = W.field_index_set(1)
        z0 = spla.spsolve(Afull[np.ix_(i0, i0)].tocsc(), b[i0])
        rhs1 = b[i1] - Afull[np.ix_(i1, i0)] @ z0
        z1 = spla.spsolve(Afull[np.ix_(i1, i1)].tocsc(), rhs1)
        assert np.allclose(z[i0], z0, atol=1e-8)
        assert np.allclose(z[i1], z1, atol=1e-8)

    @pytest.mark.parametrize("fs_type, fact_type", [
        ("additive", "full"), ("multiplicative", "full"),
        ("schur", "diag"), ("schur", "lower"), ("schur", "upper"),
        ("schur", "full")])
    def test_sweep_is_the_block_factorisation_it_names(self, fs_type,
                                                       fact_type):
        # Stokes with a pressure penalty, so that A11 is nonsingular too;
        # exact sub-solves: LU of the diagonal blocks, and the dense
        # inverse of the Schur complement S = A11 - A10 inv(A00) A01
        from blocksolve.forms import MassTerm
        W = taylor_hood(build_unit_square(2))
        blocks = {**stokes_form(W).blocks, (1, 1): [MassTerm(-0.1)]}
        bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4), value=[0.0, 0.0],
                           field=0)]
        A = ImplicitOperator(Form("penalised_stokes", W, W, blocks),
                             bcs=bcs).assemble()

        class SchurInverse(precond.Preconditioner):
            def _set_up(self, op):
                cols = [op.apply(e) for e in np.eye(op.shape[1])]
                self.inv = np.linalg.inv(np.column_stack(cols))

            def apply(self, r):
                return self.inv @ r

        def maker(i, sub):
            pc = SchurInverse() if hasattr(sub, "a11") else LUPC()
            return KSP("preonly", pc=pc.set_up(sub))

        pc = FieldSplitPC(fs_type=fs_type, fact_type=fact_type,
                          sub_ksp_maker=maker).set_up(A)
        K = A.A.toarray()
        i0, i1 = W.field_index_set(0), W.field_index_set(1)
        A00, A01 = K[np.ix_(i0, i0)], K[np.ix_(i0, i1)]
        A10, A11 = K[np.ix_(i1, i0)], K[np.ix_(i1, i1)]
        S = A11 - A10 @ np.linalg.solve(A00, A01)
        O01, O10 = np.zeros_like(A01), np.zeros_like(A10)
        M = {("additive", "full"): [[A00, O01], [O10, A11]],
             ("multiplicative", "full"): [[A00, O01], [A10, A11]],
             ("schur", "diag"): [[A00, O01], [O10, S]],
             ("schur", "lower"): [[A00, O01], [A10, S]],
             ("schur", "upper"): [[A00, A01], [O10, S]],
             # L D U with L = [[I, 0], [A10 inv(A00), I]] and
             # U = [[I, inv(A00) A01], [0, I]] is A itself
             ("schur", "full"): [[A00, A01], [A10, A11]]}[fs_type, fact_type]
        order = np.concatenate([i0, i1])
        r = np.random.default_rng(3).standard_normal(A.shape[0])
        ref = np.empty_like(r)
        ref[order] = np.linalg.solve(np.block(M), r[order])
        z = pc.apply(r)
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_schur_needs_two_splits(self):
        A, b, nsp, W = _stokes()
        pc = FieldSplitPC(fs_type="schur", splits=[(0, 1)],
                          sub_ksp_maker=self._maker())
        with pytest.raises(ValueError, match="exactly two splits"):
            pc.set_up(A)

    def test_unknown_types_rejected(self):
        with pytest.raises(ValueError):
            FieldSplitPC(fs_type="divide", sub_ksp_maker=self._maker())
        with pytest.raises(ValueError):
            FieldSplitPC(fact_type="cholesky", sub_ksp_maker=self._maker())


class TestSchurApproximations:
    def _ns(self, n, re=10.0, state_scale=0.0):
        mesh = build_unit_square(n)
        W = taylor_hood(mesh)
        bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4),
                           value=[0.0, 0.0], field=0)]
        form = ns_jacobian_form(W, Re=re)
        if state_scale:
            rng = np.random.default_rng(3)
            form.context["state"] = state_scale * \
                rng.standard_normal(W.num_dofs)
        return ImplicitOperator(form, bcs=bcs), W

    def test_pcd_equals_scaled_mass_at_zero_state(self):
        # with zero wind, Fp = (1/Re) Kp so Kp^-1 Fp Mp^-1 = (1/Re) Mp^-1
        A, W = self._ns(3, re=5.0)
        ip = W.field_index_set(1)
        S_sub = A.extract_sub((1,), (1,))
        pcd = PCDPC(mp_maker=_lu, kp_maker=_lu).set_up(S_sub)
        mass = MassSchurPC(mp_maker=_lu).set_up(S_sub)
        r = np.random.default_rng(4).standard_normal(len(ip))
        z1, z2 = pcd.apply(r), mass.apply(r)
        # compare up to the pinned dof
        assert np.allclose(z1[1:] - z1[1], z2[1:] - z2[1], atol=1e-8)

    def test_pcd_fp_carries_the_state_wind_and_apply_pins_dof_0(self):
        # Fp = (1/Re) Kp + N(w) at a random state, with N(w) assembled from
        # a form of the wind term alone; the pinned pressure dof of z is 0
        re = 7.0
        A, W = self._ns(4, re=re, state_scale=1.0)
        ip = W.field_index_set(1)
        pcd = PCDPC(mp_maker=_lu,
                    kp_maker=_lu).set_up(A.extract_sub((1,), (1,)))
        Q = W.fields[1]
        N = Form("wind", Q, Q, {(0, 0): [AdvectionTerm(StateWind(0))]},
                 context=A.form.context, state_space=W).assemble()
        ref = stiffness_form(Q).assemble() / re + N
        assert abs(pcd.Fp - ref).max() <= 1e-13 * abs(ref).max()
        z = pcd.apply(np.random.default_rng(6).standard_normal(len(ip)))
        assert abs(z[0]) <= 1e-13 * np.linalg.norm(z)

    def test_pcd_needs_context(self):
        A, b, _ = _poisson()
        with pytest.raises(MissingContext):
            PCDPC(mp_maker=_lu, kp_maker=_lu).set_up(A.assemble())

    def test_mass_pc_scales_with_re(self):
        A, W = self._ns(3, re=8.0)
        ip = W.field_index_set(1)
        sub = A.extract_sub((1,), (1,))
        pc = MassSchurPC(mp_maker=_lu).set_up(sub)
        Mp = mass_form(W.fields[1]).assemble()
        r = np.random.default_rng(5).standard_normal(len(ip))
        import scipy.sparse.linalg as spla
        assert np.allclose(pc.apply(r),
                           spla.spsolve(Mp.tocsc(), r) / 8.0, atol=1e-8)


_SCHWARZ_CASES = [(2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 2, 1), (3, 3, 1),
                  (2, 3, 2)]


def _walls(dim):
    return tuple(range(1, 2 * dim + 1))


def _schwarz_operator(dim, n, degree, ncomp):
    mesh = build_unit_square(n) if dim == 2 else build_unit_cube(n)
    V = build_space(mesh, degree, ncomp=ncomp)
    bcs = [DirichletBC(V, _walls(dim), value=[0.0] * ncomp)]
    return ImplicitOperator(stiffness_form(V), bcs=bcs)


def _set_loop_patches(V, bc_dofs):
    """Vertex patches as a loop over Python sets finds them: the dofs
    whose supporting cells all contain the vertex, without `bc_dofs`,
    empty patches left out.  The reference for the array version."""
    nc = V.ncomp
    dof_cells = [set() for _ in range(V.num_scalar_dofs)]
    for ci, sdofs in enumerate(V.cell_scalar_dofs):
        for s in sdofs:
            dof_cells[s].add(ci)
    bc = set(int(d) for d in bc_dofs)
    patches = []
    stars = [set() for _ in range(V.mesh.num_vertices)]
    for ci, cell in enumerate(V.mesh.cells):
        for v in cell:
            stars[v].add(ci)
    for cells in stars:
        cands = np.unique(V.cell_scalar_dofs[sorted(cells)])
        keep = [s for s in cands if dof_cells[s] <= cells]
        dofs = [s * nc + k for s in keep for k in range(nc)
                if s * nc + k not in bc]
        if dofs:
            patches.append(np.array(dofs, dtype=np.int64))
    return patches


def _csr_keys(A):
    """row * ncols + col of every entry of a canonical CSR matrix, in
    storage order, so ascending."""
    keys = np.repeat(np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr))
    keys *= A.shape[1]
    keys += A.indices
    return keys


def _dense_blocks(A, keys, dofs):
    """The dense blocks A[d][:, d] for every row d of `dofs` (k, m), as
    (k, m, m): each entry is looked up in the sorted `keys` of A.  The
    reference for the blocks summed from element matrices."""
    q = dofs[:, :, None] * A.shape[1] + dofs[:, None, :]
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[pos] == q, A.data[pos], 0.0)


def _lu_loop_apply(pc, op, r):
    """A two-level Schwarz apply with one LU factorisation and solve per
    patch of the assembled operator: the reference for the batched dense
    inverses."""
    rc = pc.P.T @ r
    rc[pc.coarse_bc] = 0.0
    z = pc.P @ pc.coarse_fact.solve(rc)
    A = op.assemble().A
    for pd in _set_loop_patches(op.form.col_space.fields[0], pc.bc_dofs):
        z[pd] += dla.lu_solve(dla.lu_factor(A[np.ix_(pd, pd)].toarray()),
                              r[pd])
    z[pc.bc_dofs] = r[pc.bc_dofs]
    return z


class TestSchwarz:
    def test_mesh_robustness(self):
        its = []
        for n in (4, 8, 16):
            A, b, _ = _poisson(n=n, degree=3)
            pc = SchwarzPC().set_up(A)
            _, rep = KSP("cg", rtol=1e-8, pc=pc, max_it=200).solve(A, b)
            assert rep.converged
            its.append(rep.iterations)
        assert max(its) - min(its) <= 4

    def test_rejects_degree_one(self):
        A, b, _ = _poisson(degree=1)
        with pytest.raises(ValueError):
            SchwarzPC().set_up(A)

    def test_needs_implicit(self):
        A, b, _ = _poisson()
        with pytest.raises(MissingContext):
            SchwarzPC().set_up(A.assemble())

    def test_singular_set_up_names_its_node(self):
        V = build_space(build_unit_square(4), 2)
        bcs = [DirichletBC(V, _walls(2))]
        # a zero form stops at the coarse factorisation; a mass vanishing on
        # the cells at a corner leaves the coarse operator nonsingular and
        # stops at the patch inverses there
        corner = lambda x: np.where(x[0] + x[1] < 0.5, 0.0, 1.0)
        for form, error, message in (
                (stiffness_form(V, kappa=0.0), RuntimeError,
                 "Factor is exactly singular"),
                (mass_form(V, coef=corner), np.linalg.LinAlgError,
                 "Singular matrix")):
            A = ImplicitOperator(form, bcs=bcs)
            with pytest.raises(error, match=r"^pc schwarz \(-fieldsplit_0_"
                                            r"\): " + message):
                SchwarzPC(prefix="fieldsplit_0_").set_up(A)

    def test_dirichlet_identity(self):
        A, b, bc = _poisson(n=4, degree=2)
        r = np.random.default_rng(6).standard_normal(A.shape[0])
        z = SchwarzPC().set_up(A).apply(r)
        assert np.allclose(z[bc.dofs], r[bc.dofs])

    @pytest.mark.parametrize("dim, degree, ncomp", _SCHWARZ_CASES)
    def test_patches_match_set_loop(self, dim, degree, ncomp):
        mesh = build_unit_square(3) if dim == 2 else build_unit_cube(2)
        V = build_space(mesh, degree, ncomp=ncomp)
        for markers in ((), (1, 3), _walls(dim)):
            bc_dofs = DirichletBC(V, markers).dofs
            groups = SchwarzPC._build_patches(V, bc_dofs)
            # grouped by size, vertex order within a size
            got = [g.dofs for g in groups]
            expect = sorted(_set_loop_patches(V, bc_dofs), key=len)
            assert [d.shape[1] for d in got] == sorted({len(p)
                                                        for p in expect})
            got = [row for d in got for row in d]
            assert len(got) == len(expect)
            for a, b in zip(got, expect):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dim, degree, ncomp", _SCHWARZ_CASES)
    def test_batched_apply_matches_lu_loop(self, dim, degree, ncomp):
        op = _schwarz_operator(dim, 3 if dim == 2 else 2, degree, ncomp)
        r = np.random.default_rng(7).standard_normal(op.shape[0])
        pc = SchwarzPC().set_up(op)
        z = pc.apply(r)
        ref = _lu_loop_apply(pc, op, r)
        assert np.linalg.norm(z - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim, degree, ncomp", _SCHWARZ_CASES)
    def test_spd_blocks_get_symmetric_inverses(self, dim, degree, ncomp):
        # the stiffness blocks are SPD, and the inverse potri forms from
        # their Cholesky factor is exactly symmetric; an LU inverse is
        # symmetric only to rounding (the apply of these cases is checked
        # against LU by test_batched_apply_matches_lu_loop)
        op = _schwarz_operator(dim, 3 if dim == 2 else 2, degree, ncomp)
        for _, inv in SchwarzPC().set_up(op).patches:
            assert np.array_equal(inv, inv.transpose(0, 2, 1))

    @pytest.mark.parametrize("case", ["state wind", "convection",
                                      "stokes callable", "kappa=-1"])
    def test_other_blocks_keep_the_lu_inverse(self, case):
        # a form with a term that is not declared SPD (a wind, a callable
        # coefficient, a negative one) is inverted by LU, bit for bit
        mesh = build_unit_square(3)
        if case == "stokes callable":
            W = taylor_hood(mesh, degree=3)
            form = Form("stokes", W, W, {
                (0, 0): [StiffnessTerm(lambda x: 1.0 + x[0] * x[1])],
                (0, 1): [PressureGradientTerm()], (1, 0): [DivergenceTerm()]})
            bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4), value=[0.0, 0.0],
                               field=0)]
            db = OptionsDB().parse_args(["-pc_type", "fieldsplit",
                                         "-fieldsplit_0_pc_type", "schwarz"])
            fs = build_pc(db, "", ImplicitOperator(form, bcs=bcs))
            pc, op = fs.sub_ksps[0].pc, fs.sub_ops[0]
        else:
            if case == "state wind":
                V = build_space(mesh, 3, ncomp=2)
                form = convection_diffusion_form(V, nu=0.1, wind=StateWind(0))
                form.context["state"] = np.random.default_rng(
                    10).standard_normal(V.num_dofs)
            elif case == "convection":
                V = build_space(mesh, 3)
                form = convection_diffusion_form(V, nu=0.1, wind=[1.0, 0.5])
            else:
                V = build_space(mesh, 3)
                form = stiffness_form(V, kappa=-1.0)
            bc = DirichletBC(V, (1, 3), value=[0.0] * V.ncomp)
            op = ImplicitOperator(form, bcs=[bc])
            pc = SchwarzPC().set_up(op)
        E = op.form.block_local_matrices(0, 0)
        groups = SchwarzPC._build_patches(op.form.col_space.fields[0],
                                          pc.bc_dofs)
        for group, (dofs, inv) in zip(groups, pc.patches):
            assert np.array_equal(dofs, group.dofs)
            assert np.array_equal(inv, np.concatenate(
                [np.linalg.inv(blocks) for _, blocks in group.blocks(E)]))
        r = np.random.default_rng(7).standard_normal(op.shape[0])
        ref = _lu_loop_apply(pc, op, r)
        assert np.linalg.norm(pc.apply(r) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_blocks_declared_spd_but_indefinite_name_their_node(self,
                                                               monkeypatch):
        # negated element matrices under an SPD form: the Cholesky inverse
        # fails where an LU inverse would not, with the LU path's message
        op = _schwarz_operator(2, 3, 3, 1)
        real = Form.block_local_matrices

        def negated(form, i, j, out=None):
            E = real(form, i, j, out)
            E *= -1
            return E

        monkeypatch.setattr(Form, "block_local_matrices", negated)
        with pytest.raises(precond.SingularFactor,
                           match=r"^pc schwarz \(-fieldsplit_0_\): "
                                 r"Singular matrix$") as err:
            SchwarzPC(prefix="fieldsplit_0_").set_up(op)
        assert isinstance(err.value, np.linalg.LinAlgError)

    def test_set_up_peak_bounded_by_what_it_keeps(self):
        # the patch chunk bounds the set-up transients: a warm set-up peaks
        # at most 1.7 times the bytes of the patches it keeps
        op = _schwarz_operator(2, 16, 4, 1)
        SchwarzPC().set_up(op)
        # the region traces the set-up alone: the garbage of earlier tests
        # is collected before it, and no collection runs inside it
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            pc = SchwarzPC().set_up(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        kept = sum(dofs.nbytes + inv.nbytes for dofs, inv in pc.patches)
        assert peak <= 1.7 * kept

    def test_stored_inverses_no_larger_than_lu_factors(self):
        op = _schwarz_operator(2, 16, 4, 1)
        pc = SchwarzPC().set_up(op)
        A = op.assemble().A
        lu_bytes = 0
        for pd in _set_loop_patches(op.form.col_space.fields[0], pc.bc_dofs):
            lu, piv = dla.lu_factor(A[np.ix_(pd, pd)].toarray())
            lu_bytes += lu.nbytes + piv.nbytes
        assert sum(inv.nbytes for _, inv in pc.patches) <= lu_bytes

    def test_keeps_only_what_apply_reads(self):
        # no form, element matrices or patch maps outlive set-up; per patch
        # group only its dofs and the inverses of its blocks
        op = _schwarz_operator(2, 3, 3, 2)
        pc = SchwarzPC().set_up(op)
        assert set(vars(pc)) == {"prefix", "bc_dofs", "P", "R",
                                 "coarse_bc", "coarse_fact", "patches"}
        # the restriction kept from set-up is P^T, bit for bit
        r = np.random.default_rng(5).standard_normal(pc.P.shape[0])
        assert pc.R.format == "csr"
        assert np.array_equal(pc.R @ r, pc.P.T @ r)
        assert all(len(group) == 2 for group in pc.patches)
        for dofs, inv in pc.patches:
            assert dofs.dtype == np.int64 and inv.dtype == np.float64
            assert inv.shape == dofs.shape + dofs.shape[1:]

    # the default chunk, a half-size one and one small enough to split
    # every patch group into many chunks
    @pytest.mark.parametrize("chunk", [precond._PATCH_CHUNK, 2 ** 13, 64])
    @pytest.mark.parametrize("case", _SCHWARZ_CASES + ["state wind"])
    def test_blocks_match_assembled_matrix(self, case, chunk, monkeypatch):
        monkeypatch.setattr(precond, "_PATCH_CHUNK", chunk)
        # the blocks summed from element matrices are the blocks of the
        # assembled operator; the state wind with partial BCs and a
        # coupling Newton term stresses the component-pair layout
        if case == "state wind":
            V = build_space(build_unit_square(3), 3, ncomp=2)
            state = np.random.default_rng(10).standard_normal(V.num_dofs)
            bc = DirichletBC(V, (1, 3), value=[0.0, 0.0])
            forms = [convection_diffusion_form(V, nu=0.1,
                                               wind=StateWind(0))]
            forms.append(Form("reaction", V, V, {(0, 0): forms[0].blocks[
                0, 0] + [VectorReactionTerm(0)]}))
            ops = []
            for form in forms:
                form.context["state"] = state
                ops.append(ImplicitOperator(form, bcs=[bc]))
        else:
            dim, degree, ncomp = case
            ops = [_schwarz_operator(dim, 3 if dim == 2 else 2, degree,
                                     ncomp)]
        for op in ops:
            A = op.assemble().A
            keys = _csr_keys(A)
            E = op.form.block_local_matrices(0, 0)
            for group in SchwarzPC._build_patches(op.form.col_space.fields[0],
                                                  op.bc_rows):
                ref = _dense_blocks(A, keys, group.dofs)
                got = np.full_like(ref, np.nan)   # a row no chunk covers fails
                for rows, blocks in group.blocks(E):
                    got[rows] = blocks
                assert np.allclose(got, ref, rtol=0.0,
                                   atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("in_apply", [True, False])
    def test_assembles_only_the_coarse_operator(self, in_apply, monkeypatch):
        # patch blocks come from element matrices; the one form Schwarz
        # assembles is the degree-1 coarse form, at set-up, and an apply
        # assembles nothing
        op = _schwarz_operator(2, 3, 3, 2)
        assembled = []
        real = Form.assemble

        def spy(form):
            assembled.append(form.col_space.fields[0].element.degree)
            return real(form)

        monkeypatch.setattr(Form, "assemble", spy)
        pc = SchwarzPC().set_up(op)
        if in_apply:
            assembled.clear()
            pc.apply(np.ones(op.shape[0]))
            pc.apply(np.ones(op.shape[0]))
            assert assembled == []
        else:
            assert assembled == [1]

    def test_rejects_unequal_dirichlet_rows_and_columns(self):
        V = build_space(build_unit_square(3), 2)
        rows = DirichletBC(V, (1,)).dofs
        op = ImplicitOperator(stiffness_form(V), bc_rows=rows,
                              bc_cols=DirichletBC(V, (1, 3)).dofs)
        with pytest.raises(ValueError, match="same Dirichlet rows"):
            SchwarzPC().set_up(op)

    @pytest.mark.parametrize("dim, n, degree", [
        (2, 3, 2), (2, 3, 3), (2, 3, 4), (2, 5, 2), (2, 5, 3), (2, 5, 4),
        (3, 2, 2), (3, 2, 3)])
    def test_coarse_bc_matches_markers(self, dim, n, degree):
        # reference: the degree-1 dofs on the markers of the fine BCs
        mesh = build_unit_square(n) if dim == 2 else build_unit_cube(n)
        for ncomp in (1, dim):
            V = build_space(mesh, degree, ncomp=ncomp)
            Vc = build_space(mesh, 1, ncomp=ncomp)
            for markers in ((1,), (1, 3), (2, 4), _walls(dim)):
                bc = DirichletBC(V, markers, value=[0.0] * ncomp)
                op = ImplicitOperator(stiffness_form(V), bcs=[bc])
                expect = DirichletBC(Vc, markers).dofs
                assert np.array_equal(SchwarzPC().set_up(op).coarse_bc,
                                      expect), (ncomp, markers)

    def test_fieldsplit_velocity_block(self):
        # Schwarz on the velocity block of Stokes, set up through the
        # factory, is Schwarz on the same vector stiffness operator
        mesh = build_unit_square(4)
        W = taylor_hood(mesh, degree=3)
        bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4), value=[0.0, 0.0],
                           field=0)]
        db = OptionsDB().parse_args(["-pc_type", "fieldsplit",
                                     "-fieldsplit_0_pc_type", "schwarz"])
        pc = build_pc(db, "", ImplicitOperator(stokes_form(W), bcs=bcs))
        sub = pc.sub_ksps[0].pc
        V = W.fields[0]
        direct = SchwarzPC().set_up(ImplicitOperator(
            stiffness_form(V), bcs=[DirichletBC(V, (1, 2, 3, 4),
                                                value=[0.0, 0.0])]))
        r = np.random.default_rng(8).standard_normal(V.num_dofs)
        assert isinstance(sub, SchwarzPC)
        assert np.array_equal(sub.apply(r), direct.apply(r))

    def test_coarse_level_reads_the_fine_state(self):
        # a wind read from the Newton state on the fine space gives the
        # same preconditioner as that wind given as a callable
        mesh = build_unit_square(4)
        V = build_space(mesh, 2, ncomp=2)

        def wind(x):
            return np.stack([1.0 + x[0] - 2.0 * x[1], 0.5 * x[0] + x[1]])

        pcs = []
        for w, state in ((StateWind(0), interpolate(V, wind)), (wind, None)):
            form = convection_diffusion_form(V, wind=w)
            form.context["state"] = state
            bc = DirichletBC(V, (1, 2, 3, 4), value=[0.0, 0.0])
            pcs.append(SchwarzPC().set_up(ImplicitOperator(form, bcs=[bc])))
        r = np.random.default_rng(9).standard_normal(V.num_dofs)
        z, ref = pcs[0].apply(r), pcs[1].apply(r)
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim, degree, ncomp", _SCHWARZ_CASES)
    def test_prolongation_matches_cell_loop(self, dim, degree, ncomp):
        mesh = build_unit_square(3) if dim == 2 else build_unit_cube(2)
        V = build_space(mesh, degree, ncomp=ncomp)
        Vc = build_space(mesh, 1, ncomp=ncomp)
        # reference: every cell writes its (fine, coarse) entries into a
        # dictionary, so a pair shared by several cells is entered once
        vals = tabulate(lagrange_element(dim, 1), V.element.nodes).values
        entries = {}
        for fine, coarse in zip(V.cell_scalar_dofs, Vc.cell_scalar_dofs):
            for ln, fs in enumerate(fine):
                for a, cs in enumerate(coarse):
                    if abs(vals[ln, a]) > 1e-14:
                        entries[(fs, cs)] = vals[ln, a]
        rows, cols = np.array(list(entries)).T
        Ps = sp.csr_matrix((list(entries.values()), (rows, cols)),
                           shape=(V.num_scalar_dofs, Vc.num_scalar_dofs))
        expect = sp.kron(Ps, sp.eye(ncomp), format="csr")
        P = SchwarzPC._prolongation(V, Vc)
        assert P.shape == expect.shape
        assert (P != expect).nnz == 0
        # interpolation reproduces constants
        assert np.allclose(P @ np.ones(P.shape[1]), 1.0, atol=1e-14)


def test_view_contains_types_and_prefixes():
    A, b, _ = _poisson()
    pc = AssembledPC(inner_maker=lambda op: LUPC(
        prefix="outer_assembled_").set_up(op), prefix="outer_").set_up(A)
    text = pc.view()
    assert "type: assembled" in text
    assert "outer_" in text
    assert "type: lu" in text

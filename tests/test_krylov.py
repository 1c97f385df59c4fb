from pathlib import Path

import numpy as np
import pytest

from blocksolve import krylov
from blocksolve.krylov import (KSP, Nullspace, SolveReport, DivergedMaxIts,
                               DivergedNaN, IndefiniteOperator, KrylovError)
from blocksolve.operators import AssembledOperator
from blocksolve.options import OptionsDB
from blocksolve.precond import (LUPC, JacobiPC, KSPPC, FieldSplitPC,
                                SchurOperator)
from blocksolve.problems import ConvectionConfig, run_convection


def _spd(n, seed=0, shift=1.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return AssembledOperator(B @ B.T + shift * n * np.eye(n))


class TestCG:
    def test_identity_converges_in_one(self):
        A = AssembledOperator(np.eye(10))
        b = np.arange(10.0)
        x, rep = KSP("cg", rtol=1e-12).solve(A, b)
        assert rep.converged
        assert rep.iterations == 1
        assert np.allclose(x, b)

    def test_spd_system(self):
        A = _spd(30, seed=1)
        b = np.random.default_rng(2).standard_normal(30)
        x, rep = KSP("cg", rtol=1e-10, max_it=200).solve(A, b)
        assert rep.converged
        assert np.linalg.norm(A.apply(x) - b) < 1e-7 * np.linalg.norm(b)

    def test_indefinite_detected(self):
        A = AssembledOperator(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(IndefiniteOperator):
            KSP("cg", rtol=1e-12, max_it=10).solve(A, np.ones(3))

    def test_finite_termination(self):
        # exact arithmetic CG terminates in at most n iterations
        A = _spd(8, seed=3)
        b = np.ones(8)
        x, rep = KSP("cg", rtol=1e-12, max_it=50).solve(A, b)
        assert rep.iterations <= 8 + 2


class TestGMRES:
    def test_two_by_two_in_two_iterations(self):
        A = AssembledOperator(np.array([[2.0, 1.0], [0.5, 3.0]]))
        b = np.array([1.0, -1.0])
        x, rep = KSP("gmres", rtol=1e-12).solve(A, b)
        assert rep.converged
        assert rep.iterations <= 2
        assert np.allclose(A.apply(x), b, atol=1e-10)

    def test_nonsymmetric(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((25, 25)) + 6 * np.eye(25)
        A = AssembledOperator(M)
        b = rng.standard_normal(25)
        x, rep = KSP("gmres", rtol=1e-10, max_it=200).solve(A, b)
        assert rep.converged
        assert np.linalg.norm(A.apply(x) - b) < 1e-7 * np.linalg.norm(b)

    def test_restart_still_converges(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((40, 40)) + 8 * np.eye(40)
        A = AssembledOperator(M)
        b = rng.standard_normal(40)
        x, rep = KSP("gmres", rtol=1e-10, restart=5, max_it=500).solve(A, b)
        assert rep.converged

    def test_modified_gram_schmidt(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((20, 20)) + 5 * np.eye(20)
        A = AssembledOperator(M)
        b = rng.standard_normal(20)
        x, rep = KSP("gmres", rtol=1e-10, max_it=100,
                     orthogonalization="modified").solve(A, b)
        assert rep.converged

    def test_right_preconditioned_estimate_bounds_true_residual(self):
        # the solve reports its cycle's least-squares estimate of
        # ||b - A x||; at ||r|| ~ 2e-10 it is 2.7e-7 off, relatively
        A = _spd(20, seed=7)
        pc = JacobiPC().set_up(A)
        b = np.random.default_rng(8).standard_normal(20)
        x, rep = KSP("gmres", rtol=1e-10, side="right", pc=pc,
                     max_it=200).solve(A, b)
        assert rep.converged
        true_norm = np.linalg.norm(b - A.apply(x))
        assert true_norm < 1e-7
        assert rep.residual_norm == pytest.approx(true_norm, rel=1e-6, abs=0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_happy_breakdown_ends_with_the_solution(self, side):
        # b is an eigenvector: the first Arnoldi step leaves w = 0 exactly
        A = AssembledOperator(np.diag([2.0, 3.0, 4.0]))
        b = np.array([1.0, 0.0, 0.0])
        x, rep = KSP("gmres", rtol=0.0, side=side).solve(A, b)
        assert rep.converged and rep.iterations == 1
        assert np.array_equal(x, [0.5, 0.0, 0.0])

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_zero_image_raises_naming_node_and_iteration(self, side):
        # A maps b = e0 to e1 and e1, the second Krylov vector, to zero
        A = AssembledOperator(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(KrylovError, match="inner_: gmres breakdown at "
                                              "iteration 2") as exc:
            KSP("gmres", side=side, prefix="inner_").solve(
                A, np.array([1.0, 0.0]))
        assert exc.value.report.reason == "breakdown"


@pytest.mark.parametrize("ksp_type, side", [
    ("gmres", "bogus"), ("cg", "right"), ("fgmres", "left"),
    ("richardson", "symmetric")])
def test_unapplied_preconditioning_side_rejected(ksp_type, side):
    # a side the method would not apply must not be accepted and then
    # printed by -ksp_view
    with pytest.raises(ValueError, match=f"outer_: {ksp_type} preconditions "
                                         f"on the"):
        KSP(ksp_type, side=side, prefix="outer_")


@pytest.mark.parametrize("ksp_type, sides", [
    ("cg", ["left"]), ("fgmres", ["right"]), ("gmres", ["left", "right"]),
    ("richardson", ["left", "right"]), ("preonly", ["left", "right"])])
def test_supported_preconditioning_sides(ksp_type, sides):
    assert KSP(ksp_type).side == sides[0]
    for side in sides:
        assert KSP(ksp_type, side=side).side == side


class TestOtherTypes:
    def test_preonly_with_exact_pc(self):
        A = _spd(15, seed=9)
        pc = LUPC().set_up(A)
        b = np.random.default_rng(10).standard_normal(15)
        x, rep = KSP("preonly", pc=pc).solve(A, b)
        assert rep.converged
        assert np.linalg.norm(b - A.apply(x)) < 1e-9

    def test_preonly_applies_operator_once(self):
        # preonly tests no norm: only its monitor makes it apply the
        # operator, once, for ||b - A x||; a Schur complement operator pays
        # a full inner solve per apply
        A = _spd(15, seed=9)
        op = Counting(A.A)
        b = np.random.default_rng(10).standard_normal(15)
        x, rep = KSP("preonly", pc=LUPC().set_up(A)).solve(op, b)
        assert op.applies == 0
        assert rep.residual_norm is None
        lines = []
        x, rep = KSP("preonly", pc=LUPC().set_up(A),
                     monitor=lines.append).solve(op, b)
        assert op.applies == 1
        assert rep.residual_norm == np.linalg.norm(b - A.apply(x))
        assert lines == [f"  0 KSP Residual norm {rep.residual_norm:.12e}"]

    def test_richardson_with_pc(self):
        A = _spd(10, seed=11)
        pc = LUPC().set_up(A)
        b = np.ones(10)
        x, rep = KSP("richardson", rtol=1e-10, pc=pc, max_it=50).solve(A, b)
        assert rep.converged
        assert rep.iterations <= 2

    def test_fgmres_with_variable_pc(self):
        # preconditioner whose action changes every call: only a
        # flexible method is guaranteed to cope
        A = _spd(20, seed=12)

        class Wobbly:
            count = 0

            def apply(self, r):
                self.count += 1
                return r / (2.0 + 0.1 * (self.count % 3))

        b = np.random.default_rng(13).standard_normal(20)
        x, rep = KSP("fgmres", rtol=1e-10, pc=Wobbly(),
                     max_it=300).solve(A, b)
        assert rep.converged


class Counting(AssembledOperator):
    """An assembled operator that counts its applies."""

    def __init__(self, A):
        super().__init__(A)
        self.applies = 0

    def apply(self, x):
        self.applies += 1
        return super().apply(x)


class Recording(KSP):
    """A KSP that records, per solve, its report and the applies of the
    operator it solved with."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    def solve(self, A, b):
        before = A.applies
        x, rep = super().solve(A, b)
        self.records.append((rep, A.applies - before))
        return x, rep


class CountingJacobi(JacobiPC):
    """A Jacobi preconditioner that counts its applies."""

    applies = 0

    def apply(self, r):
        self.applies += 1
        return super().apply(r)


@pytest.mark.parametrize("side, pc_applies", [("left", 4), ("right", 3)])
def test_richardson_applies_each_operator_once_per_residual(side,
                                                            pc_applies):
    # from x = 0 the first residual is b: three steps apply A three times.
    # Left preconditioning steps with the M^-1 r it took the norm of, so it
    # applies M^-1 once per residual, the last one included; right
    # preconditioning applies it once per step
    A = Counting(_spd(12, seed=5).A)
    pc = CountingJacobi().set_up(A)
    b = np.random.default_rng(6).standard_normal(12)
    _, rep = KSP("richardson", rtol=1e-30, max_it=3, side=side,
                 pc=pc).solve(A, b)
    assert rep.reason == "max_its" and rep.iterations == 3
    assert pc.applies == pc_applies
    assert A.applies == 3


def _nested(inner, n=15, seed=9):
    """Outer GMRES on A preconditioned by `inner(A)` (a KSP) on a counting
    copy of A; returns the counting operator and the outer report."""
    A = _spd(n, seed=seed)
    op = Counting(A.A)
    pc = KSPPC(ksp_maker=inner).set_up(op)
    b = np.random.default_rng(seed + 1).standard_normal(n)
    x, rep = KSP("fgmres", rtol=1e-10, pc=pc, max_it=50).solve(A, b)
    return op, pc.ksp, rep


class TestTrueResidualOnlyWhenRead:
    def test_nested_preonly_applies_operator_zero_times(self):
        # a failed inner solve leaves nothing behind for the next solve
        class Broken(Counting):
            def apply(self, x):
                super().apply(x)
                return np.full(len(x), np.nan)

        A = _spd(10, seed=3)
        pc = KSPPC(ksp_maker=lambda op: KSP("gmres")).set_up(Broken(A.A))
        with pytest.raises(DivergedNaN):
            KSP("fgmres", pc=pc).solve(A, np.ones(10))
        op, inner, rep = _nested(
            lambda op: Recording("preonly", pc=LUPC().set_up(op)))
        assert rep.converged
        assert inner.records and op.applies == 0
        for inner_rep, _ in inner.records:
            assert inner_rep.residual_norm is None

    def test_nested_gmres_applies_its_operator_once_per_iteration(self):
        # from x = 0 the first residual is b, and a cycle whose estimate
        # meets the tolerance returns without recomputing b - A x
        op, inner, rep = _nested(
            lambda op: Recording("gmres", rtol=1e-6, pc=JacobiPC().set_up(op)))
        assert rep.converged
        for inner_rep, applies in inner.records:
            assert inner_rep.converged
            assert applies == inner_rep.iterations
        # the outermost solve of the same kind applies the same
        A = Counting(_spd(15, seed=9).A)
        solo = Recording("gmres", rtol=1e-6, pc=JacobiPC().set_up(A))
        _, solo_rep = solo.solve(A, np.ones(15))
        assert solo.records[0][1] == solo_rep.iterations

    def test_left_gmres_applies_its_pc_once_more_than_iterations(self):
        # M^-1 b starts the solve, and each iteration applies M^-1 A once
        A = Counting(_spd(15, seed=9).A)
        pc = CountingJacobi().set_up(A)
        _, rep = KSP("gmres", rtol=1e-6, pc=pc).solve(A, np.ones(15))
        assert rep.converged and rep.iterations > 1
        assert pc.applies == rep.iterations + 1
        assert A.applies == rep.iterations

    def test_each_cycle_cut_at_restart_recomputes_the_residual_once(self):
        # only a cycle that ends at `restart` computes b - A x, to start
        # the next cycle; the cycle that converges does not
        rng = np.random.default_rng(5)
        A = Counting(rng.standard_normal((40, 40)) + 8 * np.eye(40))
        b = rng.standard_normal(40)
        x, rep = KSP("gmres", rtol=1e-10, restart=5, max_it=500).solve(A, b)
        assert rep.converged and rep.iterations > 10
        cut = (rep.iterations - 1) // 5
        assert A.applies == rep.iterations + cut
        # the estimate is 4.0e-7 off ||b - A x||, relatively
        assert rep.residual_norm == pytest.approx(
            np.linalg.norm(b - A.A @ x), rel=1e-6, abs=0)

    @pytest.mark.parametrize("last_scale, reason", [(1.0, "max_its"),
                                                    (1e-20, "rtol")])
    def test_max_it_mid_cycle_decides_on_the_recomputed_residual(
            self, last_scale, reason):
        # left GMRES cut by max_it = 3 inside its first cycle applies M^-1
        # to b, once per iteration, and then once to b - A x.  Scaling
        # that fifth apply lets only the recomputed norm meet the tolerance
        class LastScaled:
            applies = 0

            def apply(self, r):
                self.applies += 1
                return r * (last_scale if self.applies == 5 else 1.0)

        A = Counting(_spd(15, seed=9).A)
        b = np.ones(15)
        x, rep = KSP("gmres", rtol=1e-10, max_it=3,
                     pc=LastScaled()).solve(A, b)
        assert rep.reason == reason and rep.iterations == 3
        assert A.applies == 4
        assert rep.residual_norm == pytest.approx(
            last_scale * np.linalg.norm(b - A.A @ x), rel=1e-12, abs=0)

    def test_outermost_cg_applies_operator_once_per_iteration(self):
        # CG updates its residual rather than recomputing it, and applies
        # no further A to report ||b - A x|| at the end
        A = Counting(_spd(15, seed=9).A)
        _, rep = KSP("cg", rtol=1e-8, pc=JacobiPC().set_up(A)).solve(
            A, np.ones(15))
        assert rep.converged and rep.iterations > 1
        assert A.applies == rep.iterations

    def test_monitored_nested_solve_computes_its_norm(self):
        lines = []
        op, inner, rep = _nested(
            lambda op: Recording("preonly", pc=LUPC().set_up(op),
                                 monitor=lines.append))
        assert len(lines) == len(inner.records) == op.applies
        assert all(line.startswith("  0 KSP Residual norm ")
                   for line in lines)
        for line, (inner_rep, applies) in zip(lines, inner.records):
            assert applies == 1
            assert line.endswith(f" {inner_rep.residual_norm:.12e}")
            assert inner_rep.residual_norm < 1e-9

    def test_report_repr_without_a_norm(self):
        rep = SolveReport(True, "preonly", 1, None)
        assert repr(rep) == "SolveReport(converged preonly, its=1, rnorm=None)"
        assert "rnorm=1.000000e-03" in repr(SolveReport(True, "rtol", 2, 1e-3))


class TestDiagnostics:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            KSP("sparta")

    def test_monitor_format(self):
        lines = []
        A = _spd(5, seed=14)
        KSP("cg", rtol=1e-8, monitor=lines.append).solve(A, np.ones(5))
        assert lines[0].startswith("  0 KSP Residual norm ")
        for i, line in enumerate(lines):
            tokens = line.split()
            assert tokens[0] == str(i)
            assert " KSP Residual norm " in line
            float(tokens[-1])  # parses

    def test_error_if_not_converged(self):
        A = _spd(30, seed=15)
        with pytest.raises(DivergedMaxIts):
            KSP("cg", rtol=1e-14, max_it=2,
                error_if_not_converged=True).solve(A, np.ones(30))

    def test_negative_max_it_rejected(self):
        with pytest.raises(ValueError, match="outer_: .*max_it"):
            KSP("gmres", max_it=-3, prefix="outer_")
        # no iteration at all is still a solve: x = 0
        x, rep = KSP("gmres", max_it=0).solve(_spd(5, seed=4), np.ones(5))
        assert rep.reason == "max_its" and rep.iterations == 0
        assert not x.any()

    def test_max_its_report(self):
        A = _spd(30, seed=16)
        x, rep = KSP("cg", rtol=1e-14, max_it=2).solve(A, np.ones(30))
        assert not rep.converged
        assert rep.reason == "max_its"
        assert rep.iterations == 2


class TestNullspace:
    def test_projection_is_orthogonal(self):
        nsp = Nullspace([np.ones(6), np.arange(6.0)])
        v = np.random.default_rng(17).standard_normal(6)
        w = nsp.project(v)
        for u in nsp.basis:
            assert abs(np.dot(w, u)) < 1e-12

    def test_singular_solve(self):
        # A = I - ones/n is singular with nullspace of constants
        n = 12
        A = AssembledOperator(np.eye(n) - np.ones((n, n)) / n)
        nsp = Nullspace([np.ones(n)])
        rng = np.random.default_rng(18)
        b = nsp.project(rng.standard_normal(n))
        x, rep = KSP("gmres", rtol=1e-10, nullspace=nsp,
                     max_it=100).solve(A, b)
        assert rep.converged
        assert abs(x.sum()) < 1e-8  # mean-zero representative
        assert np.linalg.norm(A.apply(x) - b) < 1e-8


class InputKeeping(KSP):
    """A KSP that checks each solve leaves its right-hand side as it was."""

    def solve(self, A, b):
        kept = b.copy()
        out = super().solve(A, b)
        assert np.array_equal(b, kept)
        return out


def _keeping_split(i, op):
    pc = None if isinstance(op, SchurOperator) else JacobiPC().set_up(op)
    return InputKeeping("gmres", rtol=1e-8, max_it=5, pc=pc)


@pytest.mark.parametrize("case", krylov.KSP_TYPES + (
    "ksp", "fieldsplit-additive", "fieldsplit-multiplicative",
    "fieldsplit-schur"))
def test_solve_leaves_its_right_hand_side_unchanged(case):
    # a solve takes b itself as its first residual, and a nested solve's b
    # is a vector of the solve around it: nothing may write into either
    A = _spd(12, seed=21)
    b = np.random.default_rng(22).standard_normal(12)
    if case in krylov.KSP_TYPES:
        ksp = InputKeeping(case, rtol=1e-8, max_it=5,
                           pc=JacobiPC().set_up(A))
    elif case == "ksp":
        pc = KSPPC(ksp_maker=lambda op: _keeping_split(0, op)).set_up(A)
        ksp = InputKeeping("fgmres", rtol=1e-8, max_it=5, pc=pc)
    else:
        A = AssembledOperator(A.A, fields=[np.arange(8), np.arange(8, 12)])
        pc = FieldSplitPC(fs_type=case.split("-")[1],
                          sub_ksp_maker=_keeping_split).set_up(A)
        ksp = InputKeeping("fgmres", rtol=1e-8, max_it=5, pc=pc)
    ksp.solve(A, b)


def test_paper_tree_applies_each_gmres_operator_once_per_iteration(
        monkeypatch):
    # configs/rb-iterative.opts at 2D n=4: count, per solve of each KSP
    # prefix, its operator and preconditioner applies.  A GMRES solve that
    # converges inside its cycle applies its operator once per iteration,
    # and left preconditioning applies M^-1 once more, to b
    applies = {}  # prefix -> [operator, preconditioner]
    solves = {}  # prefix -> [(report, operator, preconditioner)]
    real_solve, real_op, real_pc = KSP.solve, KSP._apply_op, KSP._apply_pc

    def solve(self, A, b):
        counts = applies.setdefault(self.prefix, [0, 0])
        before = list(counts)
        x, rep = real_solve(self, A, b)
        solves.setdefault(self.prefix, []).append(
            (rep, counts[0] - before[0], counts[1] - before[1]))
        return x, rep

    def apply_op(self, A, v):
        applies[self.prefix][0] += 1
        return real_op(self, A, v)

    def apply_pc(self, r):
        applies[self.prefix][1] += 1
        return real_pc(self, r)

    monkeypatch.setattr(KSP, "solve", solve)
    monkeypatch.setattr(KSP, "_apply_op", apply_op)
    monkeypatch.setattr(KSP, "_apply_pc", apply_pc)
    config = Path(__file__).resolve().parents[1] / "configs" / \
        "rb-iterative.opts"
    rep = run_convection(ConvectionConfig(n=4),
                         OptionsDB().parse_file(str(config)))["report"]
    assert rep.converged
    assert (rep.iterations, rep.linear_iterations) == (2, 6)
    assert [r.iterations for r, _, _ in solves[""]] == [3, 3]
    for prefix, left in (("", False), ("fieldsplit_0_", True),
                         ("fieldsplit_1_", True)):
        assert len(solves[prefix]) >= 2
        for r, op, pc in solves[prefix]:
            assert r.converged and r.reason == "rtol"
            assert op == r.iterations
            assert pc == r.iterations + left

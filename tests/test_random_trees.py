"""Random solver trees through the command line.

Whatever tree the option table describes, `main` ends with an exit code
and at most one error line: a tree that does not fit its operator is a
configuration error (exit 2, one line), a solve that breaks down or does
not converge exits 1, and no exception escapes.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from blocksolve.cli import main
from blocksolve.factory import PC_TYPES
from blocksolve.krylov import KSP_TYPES

PROBLEMS = (["poisson", "--n", "3", "--degree", "2"],
            ["navier-stokes", "--n", "3"],
            ["rayleigh-benard", "--n", "3"])


@st.composite
def _tree(draw, prefix="", depth=0):
    """Options of the solver at `prefix` and of its nested solvers, to a
    depth of 2 through the `fieldsplit_i_` and `ksp_` prefixes.  Nested
    Krylov solves multiply their iteration counts, so nested solves stop
    after 3 iterations, and the deepest nodes are not `ksp`, whose inner
    solve would run to the default 10000."""
    pc_types = PC_TYPES + ("hypre",)
    if depth == 2:
        pc_types = tuple(t for t in pc_types if t != "ksp")
    pc_type = draw(st.sampled_from(pc_types))
    opts = [f"-{prefix}ksp_type", draw(st.sampled_from(KSP_TYPES)),
            f"-{prefix}pc_type", pc_type,
            f"-{prefix}ksp_max_it", "3" if depth else "50"]
    side = draw(st.sampled_from((None, "left", "right")))
    if side is not None:
        opts += [f"-{prefix}ksp_pc_side", side]
    if depth < 2 and pc_type == "fieldsplit":
        for i in range(draw(st.integers(0, 3))):
            opts += draw(_tree(f"{prefix}fieldsplit_{i}_", depth + 1))
    elif pc_type == "ksp":
        opts += draw(_tree(prefix + "ksp_", depth + 1))
    return opts


@settings(max_examples=100, derandomize=True, deadline=None)
@given(problem=st.sampled_from(PROBLEMS), tree=_tree(),
       mat_type=st.sampled_from(("matfree", "aij")),
       pmat_type=st.sampled_from((None, "matfree", "aij")))
def test_random_tree_ends_with_an_exit_code(problem, tree, mat_type,
                                            pmat_type):
    argv = problem + ["--", "-mat_type", mat_type, "-snes_max_it", "5"] + tree
    if pmat_type is not None:
        argv += ["-pmat_type", pmat_type]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, stdout=io.StringIO())
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("blocksolve: error:")]
    assert code in (0, 1, 2)
    assert len(errors) <= 1
    assert len(errors) == 1 or code != 2

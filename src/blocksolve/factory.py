"""Options-driven construction of nested solver trees.

`build_ksp(db, prefix, A)` reads `<prefix>ksp_*` and `<prefix>pc_*`
options and recursively builds the whole solver: every composite
preconditioner derives the prefixes of its inner solvers from its own
(`fieldsplit_0_`, `pcd_Mp_`, `assembled_`, ...), so a single flat option
table describes an arbitrarily deep tree.  With `build_snes` and
`build_operators` this is the one module that reads the table; an option
that is not set passes nothing, so the constructors hold the defaults.

A small translation layer accepts option files written for the PETSc
option dialect: `python` preconditioner indirection is mapped onto the
first-class types here, algebraic-multigrid types and external direct
factorizations are mapped to locally available equivalents, with a
warning naming the substitution.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from .krylov import KSP, Nullspace
from .newton import NewtonSolver
from .operators import AssembledOperator, select_operators
from .options import _FALSE, _TRUE, BadOptionValue, option_values
from .precond import (NonePC, JacobiPC, SORPC, LUPC, ILUPC, KSPPC,
                      AssembledPC, TelescopePC, FieldSplitPC, PCDPC,
                      MassSchurPC, SchwarzPC, view_ksp)

__all__ = ["build_ksp", "build_pc", "build_snes", "build_operators",
           "UnknownType", "report_unused"]

# foreign solver components accepted for compatibility and realised by a
# locally available equivalent
_PC_ALIASES = {"hypre": "lu", "gamg": "lu", "ml": "lu", "icc": "ilu",
               "cholesky": "lu", "bjacobi": "jacobi"}

# PETSc-dialect python preconditioners, by exact class name (the last
# dotted component of -pc_python_type), realised by a built-in type
_PYTHON_PC_MAP = {"PCDPC": "pcd", "AssembledPC": "assembled",
                  "MassInvPC": "mass", "PatchPC": "schwarz",
                  "ASMStarPC": "schwarz", "SSC": "schwarz"}


class UnknownType(Exception):
    pass


def _warn_substitution(prefix, option, asked, used):
    """The one report of a requested component realised by another."""
    warnings.warn(f"option -{prefix}{option} {asked}: not available, "
                  f"using {used} instead")


def _resolve_pc_type(db, prefix, default):
    """The key in `_PC_MAKERS` of `-<prefix>pc_type`: a foreign type or a
    python class is substituted, with a warning."""
    asked = db.get(prefix + "pc_type", default)
    if asked in PC_TYPES:
        return asked
    if asked == "python":
        target = db.get(prefix + "pc_python_type", "")
        used = _PYTHON_PC_MAP.get(target.rsplit(".", 1)[-1])
        if used is None:
            raise UnknownType(
                f"option -{prefix}pc_python_type {target!r}: cannot map onto "
                f"a local preconditioner; known classes: "
                f"{', '.join(_PYTHON_PC_MAP)}")
        asked = f"python ({target})"
    elif asked in _PC_ALIASES:
        used = _PC_ALIASES[asked]
    else:
        raise UnknownType(f"option -{prefix}pc_type {asked!r}: known types: "
                          f"{', '.join(PC_TYPES)}")
    _warn_substitution(prefix, "pc_type", asked, f"'{used}'")
    return used


def _set(**values):
    """The keyword arguments whose option is set: an option that is not
    set reads None and leaves the constructor's default in force."""
    return {k: v for k, v in values.items() if v is not None}


def build_ksp(db, prefix, A, Apc=None, nullspace=None,
              default_type="gmres", default_pc=None):
    """KSP configured from `<prefix>ksp_*` options for A, with its
    (recursively built) preconditioner set up on Apc (A when not given)."""
    ksp_type = db.get(prefix + "ksp_type", default_type)
    side = db.get(prefix + "ksp_pc_side")
    modified = db.get_bool(prefix + "ksp_gmres_modifiedgramschmidt")
    if nullspace is None and db.get_bool(prefix + "ksp_constant_nullspace"):
        nullspace = Nullspace([np.ones(A.shape[1])])
    # the KSP checks its own options before its preconditioner is set up
    with option_values():
        ksp = KSP(ksp_type, nullspace=nullspace, prefix=prefix, **_set(
            side=side,
            orthogonalization="modified" if modified else None,
            monitor=print if db.get_bool(prefix + "ksp_monitor") else None,
            rtol=db.get_float(prefix + "ksp_rtol"),
            atol=db.get_float(prefix + "ksp_atol"),
            max_it=db.get_int(prefix + "ksp_max_it"),
            restart=db.get_int(prefix + "ksp_gmres_restart"),
            error_if_not_converged=db.get_bool(
                prefix + "ksp_error_if_not_converged", None)))
    ksp.pc = build_pc(db, prefix, A if Apc is None else Apc,
                      default_pc=default_pc)
    _show_view(db, ksp)
    return ksp


def _show_view(db, ksp):
    """Honor -<prefix>ksp_view: a true word prints the view, a false word
    shows nothing, and any other value names an output file."""
    v = db.get(ksp.prefix + "ksp_view")
    if v is None or v.lower() in _FALSE:
        return
    text = view_ksp(ksp)
    if v.lower() in _TRUE:
        print(text)
    else:
        with open(v, "w") as fh:
            fh.write(text + "\n")


def build_pc(db, prefix, op, default_pc=None):
    """Preconditioner configured from `<prefix>pc_*` options, set up on op."""
    # the default suits the operator the preconditioner is set up on
    if default_pc is None:
        default_pc = "jacobi" if isinstance(op, AssembledOperator) else "none"
    pc_type = _resolve_pc_type(db, prefix, default_pc)
    with option_values():
        pc = _PC_MAKERS[pc_type](db, prefix)
    return pc.set_up(op)


def _ksp_maker(db, prefix, default_type="preonly", default_pc="lu"):
    """Maker of the nested solver at `prefix`.  It looks `build_ksp` up
    when it runs, so a wrapper put in its place sees nested builds too."""
    return lambda sub: build_ksp(db, prefix, sub, default_type=default_type,
                                 default_pc=default_pc)


def _lu(db, prefix):
    solver = db.get(prefix + "pc_factor_mat_solver_type",
                    db.get(prefix + "pc_factor_mat_solver_package"))
    if solver not in (None, "default"):
        _warn_substitution(prefix, "pc_factor_mat_solver_type", solver,
                           "the built-in sparse LU")
    return LUPC(prefix=prefix)


# every preconditioner type: its maker (db, prefix) -> a node, not yet set
# up, configured from that type's `<prefix>pc_*` options
_PC_MAKERS = {
    "none": lambda db, prefix: NonePC(prefix=prefix),
    "jacobi": lambda db, prefix: JacobiPC(prefix=prefix),
    "sor": lambda db, prefix: SORPC(prefix=prefix, **_set(
        omega=db.get_float(prefix + "pc_sor_omega"),
        its=db.get_int(prefix + "pc_sor_its"),
        symmetric=db.get_bool(prefix + "pc_sor_symmetric", None))),
    "lu": _lu,
    "ilu": lambda db, prefix: ILUPC(prefix=prefix, **_set(
        drop_tol=db.get_float(prefix + "pc_factor_drop_tol"),
        fill_factor=db.get_float(prefix + "pc_factor_fill"))),
    "ksp": lambda db, prefix: KSPPC(
        ksp_maker=_ksp_maker(db, prefix + "ksp_", "gmres", None),
        prefix=prefix),
    "assembled": lambda db, prefix: AssembledPC(
        inner_maker=lambda sub: build_pc(db, prefix + "assembled_", sub,
                                         default_pc="lu"),
        prefix=prefix),
    "telescope": lambda db, prefix: TelescopePC(
        inner_maker=lambda sub: build_pc(db, prefix + "telescope_", sub),
        prefix=prefix),
    "fieldsplit": lambda db, prefix: FieldSplitPC(
        splits=_read_splits(db, prefix),
        sub_ksp_maker=lambda i, sub: _ksp_maker(
            db, f"{prefix}fieldsplit_{i}_", default_pc=None)(sub),
        prefix=prefix, **_set(
            fs_type=db.get(prefix + "pc_fieldsplit_type"),
            fact_type=db.get(prefix + "pc_fieldsplit_schur_fact_type"))),
    "pcd": lambda db, prefix: PCDPC(
        mp_maker=_ksp_maker(db, prefix + "pcd_Mp_"),
        kp_maker=_ksp_maker(db, prefix + "pcd_Kp_"), prefix=prefix),
    "mass": lambda db, prefix: MassSchurPC(
        mp_maker=_ksp_maker(db, prefix + "mass_"), prefix=prefix),
    "schwarz": lambda db, prefix: SchwarzPC(prefix=prefix),
}
PC_TYPES = tuple(_PC_MAKERS)


def _read_splits(db, prefix):
    splits = []
    i = 0
    while True:
        key = f"{prefix}pc_fieldsplit_{i}_fields"
        v = db.get(key)
        if v is None:
            break
        try:
            splits.append(tuple(int(t) for t in v.split(",")))
        except ValueError:
            raise BadOptionValue(f"option -{key}: cannot read {v!r} as "
                                 f"comma-separated ints") from None
        i += 1
    return splits or None


def build_operators(db, implicit):
    """The operators a Krylov method applies and builds its preconditioner
    from, by `-mat_type` (matrix-free when unset) and `-pmat_type`."""
    with option_values():
        return select_operators(implicit, db.get("mat_type", "matfree"),
                                db.get("pmat_type"))


def build_snes(db, residual_fn, form, bcs, nullspace):
    """Newton configured from `snes_*` options, `-mat_type` and
    `-pmat_type`; its linear solver is the tree `build_ksp` makes, with
    `nullspace`, at the first linearisation."""
    with option_values():
        return NewtonSolver(
            residual_fn, form, bcs,
            ksp_maker=lambda A, Apc: build_ksp(db, "", A, Apc, nullspace,
                                               default_type="preonly",
                                               default_pc="lu"), **_set(
                mat_type=db.get("mat_type"), pmat_type=db.get("pmat_type"),
                monitor=print if db.get_bool("snes_monitor") else None,
                rtol=db.get_float("snes_rtol"),
                atol=db.get_float("snes_atol"),
                max_it=db.get_int("snes_max_it"),
                error_if_not_converged=db.get_bool(
                    "snes_error_if_not_converged", None)))


def report_unused(db, stream=None):
    """Warn in one line of the options never read; returns their keys."""
    stream = sys.stderr if stream is None else stream
    unused = db.unused()
    if unused:
        listed = " ".join(f"-{k} {db._values[k]}" for k in unused)
        print(f"blocksolve: warning: unused options: {listed}", file=stream)
    return unused

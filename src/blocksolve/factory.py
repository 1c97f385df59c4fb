"""Options-driven construction of nested solver trees.

`build_ksp(db, prefix, A)` reads `<prefix>ksp_*` and `<prefix>pc_*`
options and recursively builds the whole solver: every composite
preconditioner derives the prefixes of its inner solvers from its own
(`fieldsplit_0_`, `pcd_Mp_`, `assembled_`, ...), so a single flat option
table describes an arbitrarily deep tree.

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
from .options import option_values
from .precond import (NonePC, JacobiPC, SORPC, LUPC, ILUPC, KSPPC,
                      AssembledPC, TelescopePC, FieldSplitPC, PCDPC,
                      MassSchurPC, SchwarzPC)

__all__ = ["build_ksp", "build_pc", "UnknownType", "report_unused"]

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


def build_ksp(db, prefix, A, Apc=None, nullspace=None, monitor=None,
              default_type="gmres", default_pc=None):
    """KSP configured from `<prefix>ksp_*` options with its (recursively
    built) preconditioner set up against A (or Apc when given)."""
    ksp_type = db.get(prefix + "ksp_type", default_type)
    side = db.get(prefix + "ksp_pc_side")
    ortho = ("modified"
             if db.get_bool(prefix + "ksp_gmres_modifiedgramschmidt")
             else "classical")
    if nullspace is None and db.get_bool(prefix + "ksp_constant_nullspace"):
        nullspace = Nullspace([np.ones(A.shape[1])])
    if monitor is None and db.get_bool(prefix + "ksp_monitor"):
        monitor = lambda line: print(line, file=sys.stdout)
    # the KSP checks its own options before its preconditioner is set up
    with option_values():
        ksp = KSP(ksp_type,
                  rtol=db.get_float(prefix + "ksp_rtol", 1e-5),
                  atol=db.get_float(prefix + "ksp_atol", 1e-50),
                  max_it=db.get_int(prefix + "ksp_max_it", 10000),
                  restart=db.get_int(prefix + "ksp_gmres_restart", 30),
                  orthogonalization=ortho,
                  side=side,
                  nullspace=nullspace,
                  monitor=monitor,
                  prefix=prefix,
                  error_if_not_converged=db.get_bool(
                      prefix + "ksp_error_if_not_converged"))
    ksp.pc = build_pc(db, prefix, A, Apc, default_pc=default_pc)
    return ksp


def build_pc(db, prefix, A, Apc=None, default_pc=None):
    """Preconditioner configured from `<prefix>pc_*` options, set up."""
    # the default suits the operator the preconditioner is set up on
    op = Apc if Apc is not None else A
    if default_pc is None:
        default_pc = "jacobi" if hasattr(op, "A") else "none"
    pc_type = _resolve_pc_type(db, prefix, default_pc)
    with option_values():
        pc = _PC_MAKERS[pc_type](db, prefix)
    return pc.set_up(A, Apc)


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
    "sor": lambda db, prefix: SORPC(
        omega=db.get_float(prefix + "pc_sor_omega", 1.0),
        its=db.get_int(prefix + "pc_sor_its", 1),
        symmetric=db.get_bool(prefix + "pc_sor_symmetric", True),
        prefix=prefix),
    "lu": _lu,
    "ilu": lambda db, prefix: ILUPC(
        drop_tol=db.get_float(prefix + "pc_factor_drop_tol", 1e-4),
        fill_factor=db.get_float(prefix + "pc_factor_fill", 10.0),
        prefix=prefix),
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
        fs_type=db.get(prefix + "pc_fieldsplit_type", "additive"),
        fact_type=db.get(prefix + "pc_fieldsplit_schur_fact_type", "full"),
        sub_ksp_maker=lambda i, sub: _ksp_maker(
            db, f"{prefix}fieldsplit_{i}_", default_pc=None)(sub),
        prefix=prefix),
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
        v = db.get(f"{prefix}pc_fieldsplit_{i}_fields")
        if v is None:
            break
        splits.append(tuple(int(t) for t in v.split(",")))
        i += 1
    return splits or None


def report_unused(db, stream=None):
    stream = sys.stderr if stream is None else stream
    unused = db.unused()
    if unused:
        print("WARNING: unused options:", file=stream)
        for k in unused:
            print(f"  -{k} {db._values[k]}", file=stream)
    return unused

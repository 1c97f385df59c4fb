"""Command line front end.

Driver arguments (mesh size, physical parameters) are ordinary flags;
everything after a literal `--` is handed to the solver option table, so
any nested solver can be reconfigured from the shell:

    blocksolve poisson --n 32 --degree 2 -- -ksp_type cg -pc_type schwarz
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys
import warnings

import numpy as np

from .elements import MAX_LAGRANGE_DEGREE
from .factory import UnknownType, report_unused
from .operators import write_matrix_market
from .options import BadOptionName, BadOptionValue, OptionsDB
from .krylov import KrylovError
from .newton import NewtonError
from .precond import CompositionError, MissingContext, SingularFactor
from .problems import (PoissonConfig, CavityConfig, ConvectionConfig,
                       run_poisson, run_cavity, run_convection)

__all__ = ["main"]


def _positive_int(text):
    """A positive int argument, as argparse reads it."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _positive_float(text):
    """A positive, finite float argument, as argparse reads it."""
    x = float(text)
    if not 0 < x < np.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, "
                                         f"not {x:g}")
    return x


def _finite_float(text):
    """A finite float argument, as argparse reads it."""
    x = float(text)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, not {x:g}")
    return x


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="blocksolve",
        description="Composable block preconditioning test problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poisson", help="variable-coefficient Poisson solve")
    p.add_argument("--n", type=_positive_int, default=PoissonConfig.n)
    p.add_argument("--dim", type=int, default=PoissonConfig.dim,
                   choices=(2, 3))
    p.add_argument("--degree", type=int, default=PoissonConfig.degree,
                   choices=range(1, MAX_LAGRANGE_DEGREE + 1))
    p.add_argument("--kappa", type=_finite_float, default=PoissonConfig.kappa)
    p.add_argument("--mms", action="store_true",
                   help="manufactured solution with L2 error report")
    p.add_argument("--table", action="store_true",
                   help="refine n, 2n, 4n and print convergence rates")
    p.add_argument("--export-matrix", metavar="FILE",
                   help="write the assembled matrix in MatrixMarket format")
    p.add_argument("--export-mesh", metavar="FILE",
                   help="write the mesh as text")

    ns = sub.add_parser("navier-stokes", help="lid-driven cavity")
    ns.add_argument("--n", type=_positive_int, default=CavityConfig.n)
    ns.add_argument("--re", type=_positive_float, default=CavityConfig.re)
    # Taylor-Hood: velocity degree k, pressure degree k - 1
    ns.add_argument("--degree", type=int, default=CavityConfig.degree,
                    choices=range(2, MAX_LAGRANGE_DEGREE + 1))

    rb = sub.add_parser("rayleigh-benard",
                        help="buoyancy-driven convection")
    rb.add_argument("--n", type=_positive_int, default=ConvectionConfig.n)
    rb.add_argument("--dim", type=int, default=ConvectionConfig.dim,
                    choices=(2, 3))
    rb.add_argument("--ra", type=_finite_float, default=ConvectionConfig.ra)
    rb.add_argument("--pr", type=_positive_float, default=ConvectionConfig.pr)

    for sp in (p, ns, rb):
        sp.add_argument("--options-file", action="append", default=[],
                        metavar="FILE", help="read solver options from FILE")
    return parser


def _split_argv(argv):
    if "--" in argv:
        i = argv.index("--")
        return argv[:i], argv[i + 1:]
    return argv, []


def _config(cls, args, **changes):
    """A `cls` from the parsed driver arguments of its fields."""
    return cls(**{f.name: getattr(args, f.name)
                  for f in dataclasses.fields(cls)} | changes)


def _poisson(args, db):
    cfg = _config(PoissonConfig, args, mms=args.mms or args.table)
    if args.table:
        prev = None
        print("n,dofs,l2_error,rate")
        ok = True
        for n in (cfg.n, 2 * cfg.n, 4 * cfg.n):
            res = run_poisson(dataclasses.replace(cfg, n=n), db)
            ok = ok and res["report"].converged
            err = res["l2_error"]
            rate = "" if prev is None else f"{np.log2(prev / err):.2f}"
            print(f"{n},{res['dofs']},{err:.6e},{rate}")
            prev = err
        return ok
    res = run_poisson(cfg, db)
    rep = res["report"]
    line = (f"poisson: dofs={res['dofs']} its={rep.iterations} "
            f"rnorm={rep.residual_norm:.6e}")
    if "l2_error" in res:
        line += f" l2_error={res['l2_error']:.6e}"
    print(line)
    if args.export_matrix:
        with open(args.export_matrix, "w") as fh:
            write_matrix_market(res["operator"].assemble().A, fh)
    if args.export_mesh:
        with open(args.export_mesh, "w") as fh:
            fh.write(res["mesh"].export_text())
    return rep.converged


def _newton(cls, run, args, db):
    """The Newton commands: a solve, and one line named after the command."""
    res = run(_config(cls, args), db)
    rep = res["report"]
    print(f"{args.command}: dofs={res['dofs']} newton_its={rep.iterations} "
          f"linear_its={rep.linear_iterations} "
          f"rnorm={rep.residual_norm:.6e}")
    return rep.converged


def main(argv=None, stdout=None):
    """Run one command.  Returns 0 when its solve converged and 1 when it
    did not; a breakdown (a singular factor or patch block, a Krylov or
    Newton error) also returns 1, after a one-line message on stderr that
    names its node.  Returns 2, with such a line, for a bad solver option,
    a tree that does not fit its operator (a node the operator cannot
    serve or a composition error such as a zero diagonal under sor) or a
    file that cannot be opened; argparse exits with 2 for a bad driver
    argument.  A warning, such as a requested solver component realised
    by another, is one line on stderr too, and such a `UserWarning` turned
    into an error returns 2.  Everything the command prints goes to
    `stdout` (`sys.stdout` when None)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    stdout = sys.stdout if stdout is None else stdout
    driver_argv, option_argv = _split_argv(argv)
    parser = _build_parser()
    args = parser.parse_args(driver_argv)
    if args.command == "poisson" and args.table and (args.export_matrix
                                                     or args.export_mesh):
        parser.error("--table solves three meshes and exports none; drop "
                     "--export-matrix and --export-mesh")

    handlers = {
        "poisson": _poisson,
        "navier-stokes": functools.partial(_newton, CavityConfig, run_cavity),
        "rayleigh-benard": functools.partial(_newton, ConvectionConfig,
                                             run_convection)}
    db = OptionsDB()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
            warnings.showwarning = lambda message, *_: print(
                f"{parser.prog}: warning: {message}", file=sys.stderr)
            for path in args.options_file:
                db.parse_file(path)
            db.parse_args(option_argv)
            ok = handlers[args.command](args, db)
    except (BadOptionName, BadOptionValue, UnknownType, MissingContext,
            CompositionError, UserWarning, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except (SingularFactor, KrylovError, NewtonError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    report_unused(db)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Problem drivers: configuration dataclasses plus run functions.

Each driver builds the discrete problem, constructs its solver from the
option table, runs it, and returns a result dictionary.  The command
line front end is a thin wrapper around these.  Drivers print views,
monitors and tables to `sys.stdout` as it is when they print, so a caller
captures them with `contextlib.redirect_stdout`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factory import build_ksp, build_operators, build_snes
from .forms import (SpaceEval, stiffness_form,
                    ns_jacobian_form, rb_jacobian_form, load_vector,
                    ns_residual, rb_residual)
from .krylov import Nullspace
from .mesh import build_unit_square, build_unit_cube
from .operators import ImplicitOperator
from .quadrature import make_quadrature, MAX_DEGREE
from .spaces import (build_space, taylor_hood, MixedSpace, DirichletBC,
                     interpolate)

__all__ = ["PoissonConfig", "CavityConfig", "ConvectionConfig",
           "run_poisson", "run_cavity", "run_convection", "l2_error",
           "poisson_mms"]


def _mesh(dim, n):
    if dim == 2:
        return build_unit_square(n)
    if dim == 3:
        return build_unit_cube(n)
    raise ValueError(f"dimension must be 2 or 3, got {dim}")


def l2_error(space, x, exact, quad_degree=None):
    """L2 distance between a scalar finite element function and a
    callable, by quadrature."""
    mesh = space.mesh
    if quad_degree is None:
        quad_degree = min(2 * space.element.degree + 2, MAX_DEGREE)
    rule = make_quadrature(mesh.dim, quad_degree)
    geom = mesh.geometry
    ev = SpaceEval(space, rule)
    uh = ev.gather(x) @ ev.values.T
    ue = geom.evaluate(exact, rule)
    wq = rule.weights[None, :] * geom.detJ[:, None]
    return float(np.sqrt(np.sum(wq * (uh - ue) ** 2)))


def poisson_mms(dim, kappa=1.0):
    """Manufactured solution prod(sin(pi x_i)) with its forcing, as
    callables of coordinates x of shape (dim, ...)."""
    def exact(x):
        return np.prod(np.sin(np.pi * np.asarray(x)), axis=0)

    def forcing(x):
        return kappa * dim * np.pi ** 2 * exact(x)

    return exact, forcing


@dataclass
class PoissonConfig:
    n: int = 8
    dim: int = 2
    degree: int = 1
    kappa: float = 1.0
    mms: bool = False


def run_poisson(cfg, db):
    """Dirichlet Poisson problem -div(kappa grad u) = f on the unit box.
    The report's `residual_norm` is the one the solve tested, or, for a
    `preonly` solve, which tests none, ||b - A x|| computed here."""
    mesh = _mesh(cfg.dim, cfg.n)
    V = build_space(mesh, cfg.degree)
    bc = DirichletBC(V, tuple(range(1, 2 * cfg.dim + 1)), value=0.0)
    form = stiffness_form(V, kappa=cfg.kappa)
    if cfg.mms:
        exact, forcing = poisson_mms(cfg.dim, cfg.kappa)
    else:
        exact, forcing = None, 1.0
    b = load_vector(form, forcing)
    b[bc.dofs] = bc.values

    A, Apc = build_operators(db, ImplicitOperator(form, bcs=[bc]))
    ksp = build_ksp(db, "", A, Apc, default_type="cg")
    x, report = ksp.solve(A, b)
    if report.residual_norm is None:
        report.residual_norm = np.linalg.norm(b - A.apply(x))

    out = {"mesh": mesh, "space": V, "solution": x, "report": report,
           "ksp": ksp, "dofs": V.num_dofs, "operator": A}
    if exact is not None:
        out["l2_error"] = l2_error(V, x, exact)
    return out


@dataclass
class CavityConfig:
    n: int = 8
    re: float = 100.0
    degree: int = 2


def _newton(db, resid, form, bcs):
    """Newton on a mixed problem whose field 1, the pressure, is fixed
    only up to a constant."""
    nullspace = np.zeros(form.col_space.num_dofs)
    nullspace[form.col_space.field_slice(1)] = 1.0
    return build_snes(db, resid, form, bcs, Nullspace([nullspace]))


def run_cavity(cfg, db):
    """Lid-driven cavity for steady Navier-Stokes: unit box, unit
    tangential velocity on the top wall, no-slip elsewhere."""
    mesh = _mesh(2, cfg.n)
    W = taylor_hood(mesh, cfg.degree)

    def lid(x):
        return [np.where(np.abs(x[1] - 1.0) < 1e-12, 1.0, 0.0),
                np.zeros_like(x[1])]

    bcs = [DirichletBC(W.fields[0], (1, 2, 3, 4), value=lid, field=0)]
    form = ns_jacobian_form(W, Re=cfg.re)
    resid = lambda x: ns_residual(form, x, bcs)
    x, report = _newton(db, resid, form, bcs).solve()
    return {"mesh": mesh, "space": W, "solution": x, "report": report,
            "dofs": W.num_dofs}


@dataclass
class ConvectionConfig:
    n: int = 8
    dim: int = 2
    ra: float = 200.0
    pr: float = 6.18


def run_convection(cfg, db):
    """Steady buoyancy-driven convection in a laterally heated unit box:
    no-slip walls, hot (T=1) at x=0, cold (T=0) at x=1, insulated
    elsewhere."""
    mesh = _mesh(cfg.dim, cfg.n)
    V = build_space(mesh, 2, ncomp=cfg.dim)
    Q = build_space(mesh, 1)
    T = build_space(mesh, 1)
    W = MixedSpace([V, Q, T])
    walls = tuple(range(1, 2 * cfg.dim + 1))
    bcs = [DirichletBC(V, walls, value=[0.0] * cfg.dim, field=0),
           DirichletBC(T, (1,), value=1.0, field=2),
           DirichletBC(T, (2,), value=0.0, field=2)]
    form = rb_jacobian_form(W, Ra=cfg.ra, Pr=cfg.pr)
    resid = lambda x: rb_residual(form, x, bcs)
    snes = _newton(db, resid, form, bcs)
    x0 = np.zeros(W.num_dofs)
    # start from the conducting state so the energy residual is small
    x0[W.field_slice(2)] = interpolate(T, lambda p: 1.0 - p[0])
    x, report = snes.solve(x0)
    return {"mesh": mesh, "space": W, "solution": x, "report": report,
            "dofs": W.num_dofs}


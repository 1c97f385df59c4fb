"""Composable block preconditioners and matrix-free finite elements."""

from .mesh import Mesh, build_unit_square, build_unit_cube
from .quadrature import QuadratureRule, make_quadrature
from .elements import Element, lagrange_element, tabulate
from .spaces import (FunctionSpace, MixedSpace, DirichletBC, build_space,
                     taylor_hood, interpolate)
from .forms import (Form, StateWind, mass_form, stiffness_form,
                    convection_diffusion_form, stokes_form,
                    ns_jacobian_form, rb_jacobian_form, load_vector,
                    ns_residual, rb_residual, poisson_residual,
                    jacobian_check)
from .operators import (LinearOperator, ImplicitOperator, AssembledOperator,
                        NoFieldMatch, match_fields, write_matrix_market)
from .krylov import (KSP, SolveReport, Nullspace, KrylovError,
                     DivergedMaxIts, DivergedNaN, IndefiniteOperator)
from .precond import (Preconditioner, MissingContext, NonePC, JacobiPC,
                      SORPC, LUPC, ILUPC, KSPPC,
                      AssembledPC, TelescopePC, FieldSplitPC, PCDPC,
                      MassSchurPC, SchwarzPC, SchurOperator, view_ksp)
from .options import OptionsDB, BadOptionName, BadOptionValue
from .factory import build_ksp, build_pc, UnknownType, report_unused
from .newton import (NewtonSolver, NewtonReport, NewtonError,
                     NewtonDivergedMaxIts, LinearSolveFailed)

__version__ = "0.1.0"

"""Eigenvalue studies for second-order elliptic operators with the
lowest-order Raviart-Thomas mixed finite element method, with Richardson
extrapolation of the eigenvalue sequences and superclose projection
distances on uniformly refined rectangle meshes."""

__version__ = "0.1.0"

from .assembly import (AssembledSystem, AssemblyError, assemble, dump_matrix,
                       element_flux_mass)
from .coefficients import (ProblemSpec, QuadratureRule, get_preset,
                           integrate_triangle, preset_names, triangle_rule)
from .eigensolver import (EigenResult, NumericalError, flux_mass_solver,
                          recover_flux, schur_complement, solve_gevp,
                          solve_gevp_iterative, solve_mixed_eigenproblem)
from .extrapolation import (ClusterRow, ConvergenceTable, LevelSequence,
                            SupercloseBlock, build_table, match_and_cluster,
                            observed_order, richardson)
from .mesh import (Mesh, MeshError, Rectangle, UNIT_SQUARE,
                   build_structured_mesh, edge_normals)
from .superclose import (AnalyticEigenpair, fortin_interpolate, l2_errors,
                         laplace_eigenpair, laplace_eigenvalues, p0_project,
                         superclose_distance)

__all__ = [
    "__version__",
    "AnalyticEigenpair", "AssembledSystem", "AssemblyError", "ClusterRow",
    "ConvergenceTable", "EigenResult", "LevelSequence", "Mesh", "MeshError",
    "NumericalError", "ProblemSpec", "QuadratureRule", "Rectangle",
    "SupercloseBlock", "UNIT_SQUARE", "assemble", "build_structured_mesh",
    "build_table", "dump_matrix", "edge_normals", "element_flux_mass",
    "flux_mass_solver", "fortin_interpolate", "get_preset",
    "integrate_triangle", "l2_errors", "laplace_eigenpair",
    "laplace_eigenvalues", "match_and_cluster", "observed_order",
    "p0_project", "preset_names", "recover_flux", "richardson",
    "schur_complement", "solve_gevp", "solve_gevp_iterative",
    "solve_mixed_eigenproblem", "superclose_distance", "triangle_rule",
]

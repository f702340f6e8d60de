"""Eigenvalue studies for second-order elliptic operators with the
lowest-order Raviart-Thomas mixed finite element method, with Richardson
extrapolation of the eigenvalue sequences and superclose projection
distances on uniformly refined rectangle meshes."""

__version__ = "0.1.0"

from .assembly import AssembledSystem, AssemblyError, assemble, dump_matrix
from .coefficients import ProblemSpec, get_preset, preset_names
from .eigensolver import EigenResult, NumericalError, solve_mixed_eigenproblem
from .extrapolation import (ConvergenceTable, SupercloseBlock, build_table,
                            match_and_cluster, observed_order, richardson)
from .mesh import MeshError, Rectangle, UNIT_SQUARE, build_structured_mesh
from .superclose import (l2_errors, laplace_eigenpair, laplace_eigenvalues,
                         p0_project, superclose_distance)

__all__ = [
    "__version__",
    "AssembledSystem", "AssemblyError", "ConvergenceTable", "EigenResult",
    "MeshError", "NumericalError", "ProblemSpec", "Rectangle",
    "SupercloseBlock", "UNIT_SQUARE", "assemble", "build_structured_mesh",
    "build_table", "dump_matrix", "get_preset", "l2_errors",
    "laplace_eigenpair", "laplace_eigenvalues", "match_and_cluster",
    "observed_order", "p0_project", "preset_names", "richardson",
    "solve_mixed_eigenproblem", "superclose_distance",
]

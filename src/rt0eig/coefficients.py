"""Coefficient fields of the elliptic operator and quadrature rules.

The continuous problem is

    -div(A grad u) + c u = lambda b u   in the rectangle,
    u = 0                               on the boundary,

with A(x) a symmetric positive definite 2x2 tensor, c(x) >= 0 and b(x) > 0.

Coefficients are callables f(x, y) of coordinate arrays and must broadcast:
x and y share one shape S (all triangles by all quadrature points during
assembly, or 0-d for a single point), a scalar field returns an array
broadcastable to S and the tensor A one broadcastable to S + (2, 2).
Constants such as `1.0` or `np.eye(2)` therefore work as they are; a
non-constant A fills the trailing 2x2 axes, for example

    def A(x, y):
        a = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)) + (2, 2))
        a[..., 0, 0] = 1.0 + x
        a[..., 1, 1] = 1.0 + y
        return a

Evaluation must be reentrant.

The built-in problems are frozen ProblemSpec values with pure coefficients
in one table by name: `get_preset` returns the shared entry itself.

Quadrature is fixed, not a setting: the package has one immutable rule,
MIDPOINT_RULE (the three edge midpoints, degree 2, positive weights), for
the element blocks of assembly and for the projections and L2 errors of
the superclose module.  `weighted_sum` adds up point values with its
weights.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Rectangle, UNIT_SQUARE

# Eigenvalue floor for A and positivity floor for b.
COEFF_EPS = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Triangle quadrature in barycentric coordinates.

    Weights are normalized to sum to 1 and are scaled by the triangle area
    at evaluation time, so a rule integrates f = 1 to the triangle area.
    """

    points: np.ndarray   # (Q, 3) barycentric coordinates
    weights: np.ndarray  # (Q,)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


# Degree 2, the three edge midpoints with weight 1/3 each: exact for the
# quadratic flux mass integrand of a constant A, and with positive weights
# a quadrature of a square is never negative.
MIDPOINT_RULE = QuadratureRule(
    points=np.array([
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
    ]),
    weights=np.array([1.0, 1.0, 1.0]) / 3.0)


def quad_points(tri: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Physical quadrature points of `rule` on the triangle `tri` (3x2),
    shape (Q, 2); a stack of triangles (..., 3, 2) gives (..., Q, 2)."""
    return rule.points @ np.asarray(tri, dtype=float)


def field_values(f: Callable, x: np.ndarray, y: np.ndarray,
                 tail: tuple[int, ...] = ()) -> np.ndarray:
    """f(x, y) broadcast to shape x.shape + tail (read-only).

    Raises ValueError naming the returned shape if it does not broadcast.
    """
    vals = np.asarray(f(x, y), dtype=float)
    try:
        return np.broadcast_to(vals, np.shape(x) + tail)
    except ValueError:
        raise ValueError(
            f"returned shape {vals.shape}, which does not broadcast to "
            f"{np.shape(x) + tail}") from None


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis.

    Each one is the same BLAS dot as a 1-D `a @ b`, so the result matches a
    point-by-point evaluation bit for bit (a plain multiply-and-sum may
    round differently from the fused operations of the BLAS kernel).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def weighted_sum(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum over axis 1 of point values (N, Q, ...) with weights (Q,),
    accumulated point by point in weight order: the quadrature mean of each
    of the N rows."""
    out = np.zeros(vals.shape[:1] + vals.shape[2:])
    for q, w in enumerate(weights):
        out += w * vals[:, q]
    return out


# f(x, y) on coordinate arrays of one shape S; results broadcast to S
# (scalar fields) or S + (2, 2) (tensor fields)
ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray | float]
TensorField = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients of one eigenvalue problem on a rectangle.

    `analytic_shift` is None when no closed-form spectrum is known;
    otherwise the spectrum is the Dirichlet Laplace spectrum of the
    rectangle shifted by that constant (the eigenfunctions are the Laplace
    ones).
    """

    name: str
    domain: Rectangle
    A: TensorField
    c: ScalarField
    b: ScalarField
    analytic_shift: float | None = None

    @property
    def has_analytic_spectrum(self) -> bool:
        return self.analytic_shift is not None


def _identity_tensor(x, y):
    return np.eye(2)


def _variable_tensor(x, y):
    a = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)) + (2, 2))
    a[..., 0, 0] = 1.0 + x
    a[..., 1, 1] = 1.0 + y
    return a


_PRESETS = {spec.name: spec for spec in (
    ProblemSpec("laplace", UNIT_SQUARE, _identity_tensor,
                c=lambda x, y: 0.0, b=lambda x, y: 1.0, analytic_shift=0.0),
    ProblemSpec("shifted", UNIT_SQUARE, _identity_tensor,
                c=lambda x, y: 5.0, b=lambda x, y: 1.0, analytic_shift=5.0),
    ProblemSpec("variable", UNIT_SQUARE, _variable_tensor,
                c=lambda x, y: x * y, b=lambda x, y: 1.0 + (x + y) / 4.0),
)}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def get_preset(name: str) -> ProblemSpec:
    """Look up a built-in problem by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}, available: {', '.join(preset_names())}"
        ) from None

"""Mixed projections of analytic eigenfunctions and distances to the
discrete ones.

The projection pair is the canonical one for the lowest-order mixed space
(Brezzi and Fortin, Mixed and Hybrid Finite Element Methods, 1991): the
elementwise mean P_h onto piecewise constants and the edge-flux
interpolant Pi_h onto the Raviart-Thomas space, with div Pi_h = P_h div.
The study measures the superclose distance ||P_h u - u_h||_D with the
scalar half alone, so the package ships `p0_project` (P_h); Pi_h is a test
oracle in tests/oracles.py, where the commuting diagram is checked
against the package's B.

Triangle integrals use coefficients.PROJECTION_RULE (degree 3) and add up
their points with coefficients.weighted_sum.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import (PROJECTION_RULE, field_values, quad_points,
                           rowdot, weighted_sum)
from .eigensolver import NumericalError
from .mesh import Mesh, Rectangle, as_integer


@dataclass(frozen=True)
class AnalyticEigenpair:
    """Closed-form eigenpair of the Dirichlet Laplacian on a rectangle.

    For mode (m, n) on [x0,x1] x [y0,y1] with side lengths Lx, Ly:

        lam = pi^2 (m^2 / Lx^2 + n^2 / Ly^2)
        u   = 2 / sqrt(Lx Ly) * sin(m pi (x-x0)/Lx) * sin(n pi (y-y0)/Ly)

    normalized so the integral of u^2 over the rectangle is 1.  On the unit
    square this reduces to lam = (m^2 + n^2) pi^2, u = 2 sin(m pi x)
    sin(n pi y).  `u` and `grad_u` broadcast over coordinate arrays;
    `grad_u` puts the two components on a new last axis.
    """

    lam: float
    u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mode: tuple[int, int]


def laplace_eigenpair(m: int, n: int, rect: Rectangle) -> AnalyticEigenpair:
    """Analytic eigenpair of -Laplace u = lam u, u = 0 on the rectangle
    boundary."""
    if m < 1 or n < 1:
        raise ValueError(f"mode numbers must be positive, got ({m}, {n})")
    lx, ly = rect.width, rect.height
    lam = math.pi**2 * (m**2 / lx**2 + n**2 / ly**2)
    amp = 2.0 / math.sqrt(lx * ly)
    km = m * math.pi / lx
    kn = n * math.pi / ly
    x0, y0 = rect.x0, rect.y0

    def u(x, y):
        return amp * np.sin(km * (x - x0)) * np.sin(kn * (y - y0))

    def grad_u(x, y):
        return amp * np.stack([
            km * np.cos(km * (x - x0)) * np.sin(kn * (y - y0)),
            kn * np.sin(km * (x - x0)) * np.cos(kn * (y - y0)),
        ], axis=-1)

    return AnalyticEigenpair(lam=lam, u=u, grad_u=grad_u, mode=(m, n))


def laplace_eigenvalues(count: int, rect: Rectangle,
                        shift: float = 0.0) -> np.ndarray:
    """The `count` smallest analytic eigenvalues, ascending, with `shift`
    added: pi^2 (m^2 / width^2 + n^2 / height^2) + shift over m, n >= 1.
    `count` is an integer >= 0 (see as_integer)."""
    try:
        count = as_integer(count)
        if count < 0:
            raise TypeError
    except TypeError:
        raise ValueError(f"count must be an integer >= 0, "
                         f"got {count!r}") from None
    # A mode (m, n) with m > count lies above the `count` modes (1..count, n),
    # and likewise in n, so the count smallest all have m, n <= count.
    m = np.arange(1, count + 1)
    vals = (math.pi**2 * (m[:, None]**2 / rect.width**2
                          + m[None, :]**2 / rect.height**2) + shift)
    return np.sort(vals, axis=None)[:count]


def _element_points(mesh: Mesh):
    """Vertices (T, 3, 2) and PROJECTION_RULE points (T, Q, 2) of all
    triangles."""
    tri = mesh.vertices[mesh.triangles]
    return tri, quad_points(tri, PROJECTION_RULE)


def _sequential_sum(vals: np.ndarray) -> float:
    """Left-to-right sum, rounded like a running total over the triangles,
    so that reported errors do not depend on a summation order."""
    return float(np.cumsum(vals)[-1])


def p0_project(u_exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
               mesh: Mesh) -> np.ndarray:
    """Elementwise mean of u_exact: entry t is the average over triangle t."""
    _, pts = _element_points(mesh)
    return weighted_sum(field_values(u_exact, pts[..., 0], pts[..., 1]),
                        PROJECTION_RULE.weights)


def superclose_distance(u_h: np.ndarray, pu: np.ndarray,
                        D: np.ndarray) -> float:
    """D-weighted distance between the discrete eigenfunction and the
    projection of the exact one.

    Both vectors are normalized to unit D-norm and the sign of u_h is
    aligned to the projection before measuring.  A vector whose D-norm is
    zero or not finite raises ValueError naming it.
    """
    d = np.asarray(D, dtype=float)
    pu = _unit(pu, d, "projection vector")
    u = _unit(u_h, d, "u_h")
    if float(u @ (d * pu)) < 0:
        u = -u
    diff = u - pu
    return math.sqrt(float(diff @ (d * diff)))


def _unit(v, d, name):
    """v over its D-norm, which must be positive and finite."""
    norm = math.sqrt(float(v @ (d * v)))
    # negated, so that NaN fails it
    if not 0.0 < norm < math.inf:
        raise ValueError(f"{name} has zero or non-finite weighted norm")
    return v / norm


def l2_errors(u_h: np.ndarray, sigma_h: np.ndarray, mesh: Mesh,
              exact: AnalyticEigenpair,
              A: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
              ) -> tuple[float, float]:
    """L2 errors of the discrete eigenfunction u_h (one value per triangle)
    and its flux sigma_h (one coefficient per edge).

    err_u integrates (u_exact - u_h)^2 over each triangle with u_h constant
    there; err_sigma does the same against the exact flux A grad(u_exact)
    with the discrete flux evaluated pointwise from its basis expansion.
    The sign of the discrete pair is aligned to the exact eigenfunction
    first.  A defaults to the identity.

    PROJECTION_RULE weights its centroid by -27/48, so on a coarse mesh a
    quadrature sum of squares can come out negative (the err_u sum is
    -0.0764 for the first laplace mode at n = 1); that raises
    NumericalError naming the sum.
    """
    tri, pts = _element_points(mesh)
    x, y = pts[..., 0], pts[..., 1]
    u = field_values(exact.u, x, y)
    # sign alignment: compare elementwise means against the exact function
    means = weighted_sum(u, PROJECTION_RULE.weights)
    overlap = _sequential_sum(mesh.areas * u_h * means)
    sign = 1.0 if overlap >= 0 else -1.0

    flux = field_values(exact.grad_u, x, y, (2,))
    if A is not None:
        flux = (field_values(A, x, y, (2, 2)) @ flux[..., None])[..., 0]
    # discrete flux at each point: sum over the local basis phi_i, with
    # coefficient sigma_e * s_i * |e_i| / (2 |T|), of (point - vertex i)
    te = mesh.triangle_edges
    coeff = (sigma_h[te] * mesh.triangle_edge_signs
             * mesh.edge_lengths[te] / (2.0 * mesh.areas[:, None]))
    flux_h = np.zeros(pts.shape)
    for i in range(3):
        flux_h += coeff[:, i, None, None] * (pts - tri[:, None, i])
    dsig = flux - sign * flux_h
    err_u = weighted_sum((u - sign * u_h[:, None]) ** 2,
                         PROJECTION_RULE.weights)
    err_sigma = weighted_sum(rowdot(dsig, dsig), PROJECTION_RULE.weights)
    return (_root_of_sum("err_u", mesh.areas * err_u),
            _root_of_sum("err_sigma", mesh.areas * err_sigma))


def _root_of_sum(name: str, vals: np.ndarray) -> float:
    """Square root of the sequential sum of vals, the quadrature of a
    squared error; NumericalError if the sum is negative."""
    total = _sequential_sum(vals)
    if total < 0.0:
        raise NumericalError(
            f"{name} quadrature sum {total:.3g} is negative: the degree-3 "
            f"rule's negative centroid weight outweighs the rest on this "
            f"mesh")
    return math.sqrt(total)

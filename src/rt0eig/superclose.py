"""Mixed projections of analytic eigenfunctions and distances to the
discrete ones.

The projection pair is the canonical one for the lowest-order mixed space:
the elementwise mean onto piecewise constants and the edge-normal-flux
interpolant onto the Raviart-Thomas space.  With the element basis used by
the assembly module (whose basis function on edge e has unit constant
normal flux across e), the interpolant's coefficient on an edge is the MEAN
normal flux of the field across that edge; this is exactly the scaling
under which the discrete divergence of the interpolant reproduces the
elementwise mean of the continuous divergence.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import (QuadratureRule, edge_rule, field_values,
                           quad_points, rowdot, triangle_rule)
from .mesh import Mesh, Rectangle, edge_normals


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


def laplace_eigenpair(m: int, n: int, rect: Rectangle,
                      shift: float = 0.0) -> AnalyticEigenpair:
    """Analytic eigenpair of -Laplace u + shift*u = lam u, u = 0 on the
    rectangle boundary."""
    if m < 1 or n < 1:
        raise ValueError(f"mode numbers must be positive, got ({m}, {n})")
    lx, ly = rect.width, rect.height
    lam = math.pi**2 * (m**2 / lx**2 + n**2 / ly**2) + shift
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
    """The `count` smallest analytic eigenvalues, ascending."""
    lx, ly = rect.width, rect.height
    # The modes (m, 1), m <= count, along the longer side are `count`
    # eigenvalues, so the count-th smallest is at most pi^2 * bound.  A mode
    # (m, n) at or below that has m^2/lx^2 <= bound - 1/ly^2 and
    # n^2/ly^2 <= bound - 1/lx^2, which bounds each axis by its own length.
    bound = count**2 / max(lx, ly) ** 2 + 1.0 / min(lx, ly) ** 2
    m_max = int(lx * math.sqrt(bound - 1.0 / ly**2)) + 1
    n_max = int(ly * math.sqrt(bound - 1.0 / lx**2)) + 1
    vals = sorted(
        math.pi**2 * (m**2 / lx**2 + n**2 / ly**2) + shift
        for m in range(1, m_max + 1) for n in range(1, n_max + 1)
    )
    return np.array(vals[:count])


def _element_points(mesh: Mesh, rule: QuadratureRule):
    """Vertices (T, 3, 2) and quadrature points (T, Q, 2) of all triangles."""
    tri = mesh.vertices[mesh.triangles]
    return tri, quad_points(tri, rule)


def _element_means(vals: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Quadrature means over each triangle of point values (T, Q, ...),
    accumulated point by point in rule order."""
    out = np.zeros(vals.shape[:1] + vals.shape[2:])
    for q, w in enumerate(rule.weights):
        out += w * vals[:, q]
    return out


def _sequential_sum(vals: np.ndarray) -> float:
    """Left-to-right sum, rounded like a running total over the triangles,
    so that reported errors do not depend on a summation order."""
    return float(np.cumsum(vals)[-1])


def p0_project(u_exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
               mesh: Mesh, rule: QuadratureRule | None = None) -> np.ndarray:
    """Elementwise mean of u_exact: entry t is the average over triangle t."""
    if rule is None:
        rule = triangle_rule(2)
    _, pts = _element_points(mesh, rule)
    return _element_means(
        field_values(u_exact, pts[..., 0], pts[..., 1]), rule)


def fortin_interpolate(
        sigma_exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
        mesh: Mesh, npts: int = 3) -> np.ndarray:
    """Edge-flux interpolant coefficients of a smooth vector field.

    Entry e is the mean normal flux (1/|e|) * integral over e of
    sigma_exact . n_e, with n_e the global unit edge normal, evaluated with
    an npts-point Gauss rule along the edge.  These are the coefficients of
    the interpolant in the assembly basis, so B applied to the result
    reproduces the elementwise integral of div(sigma_exact) up to
    quadrature error.  sigma_exact returns its components on the last axis.
    """
    nodes, weights = edge_rule(npts)
    normals = edge_normals(mesh)
    p0 = mesh.vertices[mesh.edges[:, 0]]
    vec = mesh.vertices[mesh.edges[:, 1]] - p0
    pts = p0[:, None, :] + nodes[None, :, None] * vec[:, None, :]  # (E, S, 2)
    sigma = field_values(sigma_exact, pts[..., 0], pts[..., 1], (2,))
    flux = rowdot(sigma, normals[:, None, :])
    out = np.zeros(mesh.num_edges)
    for s, w in enumerate(weights):
        out += w * flux[:, s]
    return out


def superclose_distance(u_h: np.ndarray, pu: np.ndarray,
                        D: np.ndarray) -> float:
    """D-weighted distance between the discrete eigenfunction and the
    projection of the exact one.

    Both vectors are normalized to unit D-norm and the sign of u_h is
    aligned to the projection before measuring.
    """
    d = np.asarray(D, dtype=float)
    pu_norm = math.sqrt(float(pu @ (d * pu)))
    if pu_norm <= 0.0:
        raise ValueError("projection vector has zero weighted norm")
    pu = pu / pu_norm
    u = u_h / math.sqrt(float(u_h @ (d * u_h)))
    if float(u @ (d * pu)) < 0:
        u = -u
    diff = u - pu
    return math.sqrt(float(diff @ (d * diff)))


def l2_errors(u_h: np.ndarray, sigma_h: np.ndarray, mesh: Mesh,
              exact: AnalyticEigenpair, rule: QuadratureRule | None = None,
              A: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
              ) -> tuple[float, float]:
    """L2 errors of the discrete eigenfunction u_h (one value per triangle)
    and its flux sigma_h (one coefficient per edge).

    err_u integrates (u_exact - u_h)^2 over each triangle with u_h constant
    there; err_sigma does the same against the exact flux A grad(u_exact)
    with the discrete flux evaluated pointwise from its basis expansion.
    The sign of the discrete pair is aligned to the exact eigenfunction
    first.  Defaults: degree-3 quadrature, A = identity.
    """
    if rule is None:
        rule = triangle_rule(3)
    tri, pts = _element_points(mesh, rule)
    x, y = pts[..., 0], pts[..., 1]
    u = field_values(exact.u, x, y)
    # sign alignment: compare elementwise means against the exact function
    overlap = _sequential_sum(mesh.areas * u_h * _element_means(u, rule))
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
    err_u = _element_means((u - sign * u_h[:, None]) ** 2, rule)
    err_sigma = _element_means(rowdot(dsig, dsig), rule)
    return (math.sqrt(_sequential_sum(mesh.areas * err_u)),
            math.sqrt(_sequential_sum(mesh.areas * err_sigma)))

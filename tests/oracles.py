"""Independent reference computations for the test suite.

Most of these deliberately avoid the package's own quadrature rules and
solver paths: element matrices come from symbolic integration, triangle
integrals from a Duffy-transform tensor Gauss rule, eigenvalues of the
reduced problem from the dense saddle-point pencil, and eigenpair residuals
through a factorization of M rather than of the saddle-point block.

The per-element and per-point references at the end redo, one triangle,
edge or point at a time, what the package computes on whole arrays: global
assembly from the element routines, the dict walk that numbers mesh edges,
and the projections and L2 errors of the superclose module.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy
from numpy.polynomial.legendre import leggauss

from rt0eig import (edge_normals, edge_rule, element_div, element_flux_mass,
                    integrate_triangle)


def symbolic_flux_mass(tri, signs):
    """Exact 3x3 flux mass matrix for A = I by symbolic integration.

    Integrates phi_i . phi_j over the triangle through the affine map onto
    the unit reference simplex.
    """
    tri = [sympy.Matrix([sympy.Float(p[0], 30), sympy.Float(p[1], 30)])
           for p in np.asarray(tri, dtype=float)]
    u, v = sympy.symbols("u v")
    point = tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0])
    jac = (tri[1] - tri[0]).row_join(tri[2] - tri[0]).det()
    area = sympy.Abs(jac) / 2
    lengths = [
        (tri[2] - tri[1]).norm(),
        (tri[0] - tri[2]).norm(),
        (tri[1] - tri[0]).norm(),
    ]
    phis = [signs[i] * lengths[i] / (2 * area) * (point - tri[i])
            for i in range(3)]
    m = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            integrand = sympy.expand(phis[i].dot(phis[j]) * sympy.Abs(jac))
            val = sympy.integrate(integrand, (v, 0, 1 - u), (u, 0, 1))
            m[i, j] = m[j, i] = float(val)
    return m


_GAUSS_1D = leggauss(16)


def duffy_triangle_integral(f, tri):
    """High-order integral of f(x, y) over a triangle.

    Collapses the unit square onto the simplex (Duffy transform) and uses a
    16x16 tensor Gauss-Legendre grid; exact to roundoff for the polynomial
    degrees appearing in these tests and ~1e-14 accurate for the smooth
    trigonometric fields.
    """
    tri = np.asarray(tri, dtype=float)
    gx, gw = _GAUSS_1D
    gx = (gx + 1.0) / 2.0
    gw = gw / 2.0
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    area2 = abs(u[0] * v[1] - u[1] * v[0])
    total = 0.0
    for a, wa in zip(gx, gw):
        for b, wb in zip(gx, gw):
            l2, l3 = a * (1.0 - b), a * b
            x = (1.0 - a) * tri[0] + l2 * tri[1] + l3 * tri[2]
            total += wa * wb * a * f(x[0], x[1])
    return area2 * total


def gauss_edge_integral(f, p0, p1, npts=20):
    """High-order line integral of a scalar function along a segment."""
    gx, gw = leggauss(npts)
    gx = (gx + 1.0) / 2.0
    gw = gw / 2.0
    p0 = np.asarray(p0, dtype=float)
    vec = np.asarray(p1, dtype=float) - p0
    length = float(np.hypot(*vec))
    return length * sum(w * f(*(p0 + s * vec)) for s, w in zip(gx, gw))


def saddle_point_eigenvalues(sys):
    """All finite eigenvalues of the full mixed block pencil, ascending.

    Solves K z = lambda G z with K = [[M, B^T], [B, -C]] and
    G = [[0, 0], [0, -D]] by inverting K densely: the nonzero eigenvalues
    of K^-1 G are the reciprocals of the finite pencil eigenvalues.
    """
    m = sys.M.toarray()
    b = sys.B.toarray()
    ne, nt = sys.num_edges, sys.num_triangles
    k = np.block([[m, b.T], [b, -np.diag(sys.C)]])
    g = np.zeros((ne + nt, ne + nt))
    g[ne:, ne:] = -np.diag(sys.D)
    w = np.linalg.solve(k, g)
    mu = np.linalg.eigvals(w)
    cutoff = 1e-8 * max(1.0, float(np.abs(mu).max()))
    finite = mu[np.abs(mu) > cutoff]
    assert np.abs(finite.imag).max() < 1e-10 * np.abs(finite.real).max()
    return np.sort(1.0 / finite.real)


def full_densify_schur_complement(sys):
    """S = B M^-1 B^T + C, densifying all of B^T before the chunked solves.

    The same chunks, solves and symmetrization as schur_complement, which
    densifies one chunk of B^T at a time instead.
    """
    bt = sys.B.T.toarray()
    s = np.empty((sys.num_triangles, sys.num_triangles))
    chunk = max(1, min(sys.num_triangles, (1 << 22) // max(sys.num_edges, 1)))
    for lo in range(0, sys.num_triangles, chunk):
        hi = min(lo + chunk, sys.num_triangles)
        s[:, lo:hi] = sys.B @ sys.solve_flux_mass(bt[:, lo:hi])
    s[np.diag_indices_from(s)] += sys.C
    return 0.5 * (s + s.T)


def schur_residuals(sys, vals, vecs):
    """2-norms of S u_j - lambda_j D u_j for the columns u_j of vecs.

    S is applied as B M^-1 B^T + C through a sparse LU of M alone, not
    through the saddle-point block the iterative solver factorizes.
    """
    m_lu = spla.splu(sys.M.tocsc())
    su = sys.B @ m_lu.solve(sys.B.T @ vecs) + sys.C[:, None] * vecs
    return np.linalg.norm(su - sys.D[:, None] * vecs * vals[None, :], axis=0)


def flux_row_image(sys, vecs, sigmas):
    """2-norms of B M^-1 (M sigma_j + B^T u_j), through a sparse LU of M.

    C u - B sigma - lambda D u differs from S u - lambda D u by this term.
    """
    m_lu = spla.splu(sys.M.tocsc())
    return np.linalg.norm(
        sys.B @ m_lu.solve(sys.M @ sigmas + sys.B.T @ vecs), axis=0)


def brute_force_edges(triangles):
    """Edge set of a triangle list by direct pair enumeration."""
    edges = set()
    for tri in np.asarray(triangles):
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            edges.add((min(a, b), max(a, b)))
    return edges


def element_assembly(mesh, prob, rule):
    """Global (M, B, C, D) by a loop over triangles of the element routines.

    A^-1 is the closed-form 2x2 inverse at each point, as in the package.
    """
    def ainv(x, y):
        a = np.asarray(prob.A(x, y), dtype=float)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det

    nt, ne = mesh.num_triangles, mesh.num_edges
    rows, cols, vals, b_vals = [], [], [], []
    c_diag, d_diag = np.empty(nt), np.empty(nt)
    for t in range(nt):
        tri, e = mesh.triangle_coords(t), mesh.triangle_edges[t]
        signs = mesh.triangle_edge_signs[t]
        vals.append(element_flux_mass(tri, signs, ainv, rule).ravel())
        rows.append(np.repeat(e, 3))
        cols.append(np.tile(e, 3))
        b_vals.append(element_div(tri, signs))
        c_diag[t] = integrate_triangle(lambda x, y: float(prob.c(x, y)),
                                       tri, rule)
        d_diag[t] = integrate_triangle(lambda x, y: float(prob.b(x, y)),
                                       tri, rule)
    M = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ne, ne)).tocsr()
    B = sp.coo_matrix((np.concatenate(b_vals),
                       (np.repeat(np.arange(nt), 3),
                        mesh.triangle_edges.ravel())),
                      shape=(nt, ne)).tocsr()
    return M, B, c_diag, d_diag


def dict_walk_topology(triangles):
    """Edges in first-seen order, triangle edges and signs, and boundary
    flags, by walking the triangles and numbering edges in a dict."""
    index, edges, uses = {}, [], []
    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    signs = np.empty((len(triangles), 3), dtype=np.int64)
    for t, tri in enumerate(np.asarray(triangles)):
        for i in range(3):
            a, b = int(tri[(i + 1) % 3]), int(tri[(i + 2) % 3])
            key = (min(a, b), max(a, b))
            if key not in index:
                index[key] = len(edges)
                edges.append(key)
                uses.append(0)
            uses[index[key]] += 1
            tri_edges[t, i] = index[key]
            signs[t, i] = 1 if a > b else -1
    return (np.array(edges, dtype=np.int64), tri_edges, signs,
            np.array(uses) == 1)


def pointwise_p0_project(u, mesh, rule):
    """Quadrature mean of u over each triangle, one point at a time."""
    return np.array([
        sum(w * float(u(x, y))
            for (x, y), w in zip(rule.points @ mesh.triangle_coords(t),
                                 rule.weights))
        for t in range(mesh.num_triangles)])


def pointwise_fortin(sigma, mesh, npts):
    """Mean normal flux of sigma across each edge, one point at a time."""
    nodes, weights = edge_rule(npts)
    normals = edge_normals(mesh)
    out = np.empty(mesh.num_edges)
    for e, (a, b) in enumerate(mesh.edges):
        p0, vec = mesh.vertices[a], mesh.vertices[b] - mesh.vertices[a]
        out[e] = sum(w * float(np.dot(sigma(*(p0 + s * vec)), normals[e]))
                     for s, w in zip(nodes, weights))
    return out


def pointwise_l2_errors(pair, exact, mesh, rule, A=None):
    """(err_u, err_sigma) with the discrete flux expanded in the element
    basis at each quadrature point."""
    means = pointwise_p0_project(exact.u, mesh, rule)
    sign = 1.0 if np.sum(mesh.areas * pair.u * means) >= 0 else -1.0
    err_u = err_sigma = 0.0
    for t in range(mesh.num_triangles):
        tri, area = mesh.triangle_coords(t), mesh.areas[t]
        for (x, y), w in zip(rule.points @ tri, rule.weights):
            flux = np.asarray(exact.grad_u(x, y))
            if A is not None:
                flux = np.asarray(A(x, y)) @ flux
            for i in range(3):
                e = mesh.triangle_edges[t, i]
                flux = flux - sign * (
                    pair.sigma[e] * mesh.triangle_edge_signs[t, i]
                    * mesh.edge_lengths[e] / (2.0 * area)
                    * (np.array([x, y]) - tri[i]))
            err_u += area * w * (float(exact.u(x, y)) - sign * pair.u[t]) ** 2
            err_sigma += area * w * float(flux @ flux)
    return math.sqrt(err_u), math.sqrt(err_sigma)

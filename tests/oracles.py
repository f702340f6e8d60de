"""Independent reference computations for the test suite.

The package ships the study pipeline only; code that only tests call lives
here.  First come the per-triangle routines that `assemble` is compared
with bit for bit: the flux mass block and the row of B of one triangle
(element_flux_mass, element_div), one triangle's quadrature integral
(integrate_triangle), the vertex coordinates of one triangle and the
vertex count of a mesh, and plain-text dumps of a mesh and of a matrix,
through which the tests compare meshes and assembled blocks bit for bit.
They use the package's quadrature rule, as assembly does.  Then comes
the flux half of the mixed projection pair, the interpolant Pi_h
(fortin_interpolate) with its unit edge normals and Gauss edge rule: the
study measures superclose with the scalar half P_h alone, and the tests
check the commuting diagram div Pi_h = P_h div with it against the
package's B.

The references after them deliberately avoid the package's own
quadrature rule and solver paths: element matrices come from symbolic
integration, triangle integrals from a Duffy-transform tensor Gauss rule,
eigenvalues of the reduced problem from the dense saddle-point pencil,
the dense Schur complement, eigenpair residuals and Rayleigh quotients
through a sparse LU of M rather than the blocks of its Cholesky factor or
the saddle-point block, and solves with that block from a sparse direct
solve of it whole, not from its hybridization.  The hybridization's own
three matrices have a reference as the sparse products of a global A^-1
and jump map, which the package no longer forms.  The dense eigensolve has a
reference that copies whole arrays where the package works in place, and
the sign convention one that scans each column for the entry it makes
positive.

The per-element and per-point references at the end redo, one triangle,
edge or point at a time, what the package computes on whole arrays: global
assembly from the element routines, the dict walk that numbers mesh edges,
the nested-dissection order of the unknowns by recursion over boxes, the
iterative eigenvalues through a COLAMD-ordered factorization, the
nested-dissection LU of the saddle-point block, and the projections and L2
errors of the superclose module, at the points of a given rule, and the
same three superclose measures with every triangle integral a Duffy one.
The study's superclose block has a post-hoc reference that measures every level after
the last one is solved, where the package measures each level while it is
alive.  The extrapolation table and the analytic Laplace spectrum follow,
one index, level pair or mode at a time.  Last come the report renderers that walk the convergence table
once per output, each with its own level offsets.
"""

import io
import json
import math
import sys

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy
from numpy.polynomial.legendre import leggauss

from rt0eig import (__version__, l2_errors, laplace_eigenpair, p0_project,
                    superclose_distance)
from rt0eig.assembly import DEGENERATE_AREA, AssemblyError
from rt0eig.cli import CSV_COLUMNS
from rt0eig.coefficients import (QuadratureRule, field_values, quad_points,
                                 rowdot, weighted_sum)
from rt0eig.eigensolver import (NumericalError, _check_residuals,
                                _column_signs, _residuals)
from rt0eig.extrapolation import (CLUSTER_RTOL, EXPANSION_ORDER, SATURATION,
                                  ClusterRow, ConvergenceTable, LevelSequence,
                                  SupercloseBlock, richardson)
from rt0eig.mesh import nested_dissection_order


def _local_geometry(tri):
    tri = np.asarray(tri, dtype=float)
    if tri.shape != (3, 2):
        raise AssemblyError(f"triangle must be a 3x2 array, got {tri.shape}")
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(float(u[0] * v[1] - u[1] * v[0]))
    if area < DEGENERATE_AREA:
        raise AssemblyError(f"degenerate triangle with area {area:g}")
    # edge opposite vertex i connects the other two vertices
    lengths = np.array([
        np.linalg.norm(tri[2] - tri[1]),
        np.linalg.norm(tri[0] - tri[2]),
        np.linalg.norm(tri[1] - tri[0]),
    ])
    return tri, area, lengths


def element_flux_mass(tri, signs, Ainv, rule: QuadratureRule) -> np.ndarray:
    """3x3 flux mass block: entries integral of (A^-1 phi_j) . phi_i.

    Parameters
    ----------
    tri : (3, 2) array
        Triangle vertices.
    signs : length-3 sequence of +-1
        Global orientation signs of the edges opposite each vertex.
    Ainv : callable (x, y) -> (2, 2) array
        Pointwise inverse of the diffusion tensor.
    rule : QuadratureRule
    """
    tri, area, lengths = _local_geometry(tri)
    signs = np.asarray(signs, dtype=float)
    coeff = signs * lengths / (2.0 * area)
    pts = quad_points(tri, rule)
    m = np.zeros((3, 3))
    for (x, y), w in zip(pts, rule.weights):
        phi = coeff[:, None] * (np.array([x, y])[None, :] - tri)  # (3, 2)
        m += w * (phi @ np.asarray(Ainv(x, y), dtype=float) @ phi.T)
    m *= area
    return 0.5 * (m + m.T)


def element_div(tri, signs) -> np.ndarray:
    """Row of B for one triangle: entry i is signs[i] * |e_i|."""
    _, _, lengths = _local_geometry(tri)
    return np.asarray(signs, dtype=float) * lengths


def triangle_area(tri: np.ndarray) -> float:
    tri = np.asarray(tri, dtype=float)
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    return 0.5 * abs(float(u[0] * v[1] - u[1] * v[0]))


def integrate_triangle(f, tri: np.ndarray, rule: QuadratureRule) -> float:
    """Area-weighted quadrature of f over the triangle with vertices `tri`,
    evaluating f one point at a time."""
    area = triangle_area(tri)
    pts = quad_points(tri, rule)
    acc = 0.0
    for (x, y), w in zip(pts, rule.weights):
        acc += w * f(x, y)
    return area * acc


def triangle_coords(mesh, t: int) -> np.ndarray:
    """Vertex coordinates of triangle t of the mesh as a (3, 2) array."""
    return mesh.vertices[mesh.triangles[t]]


def num_vertices(mesh) -> int:
    return mesh.vertices.shape[0]


def dump_mesh(mesh) -> str:
    """Plain-text mesh dump with VERTICES, TRIANGLES and EDGES sections.

    One record per line: vertex index with coordinates, triangle index with
    its three vertices, edge index with its two vertices and a 0/1 boundary
    flag.  Coordinates use 17 significant digits.
    """
    lines = ["VERTICES"]
    for i, (x, y) in enumerate(mesh.vertices):
        lines.append(f"{i} {x:.17g} {y:.17g}")
    lines.append("TRIANGLES")
    for t, (a, b, c) in enumerate(mesh.triangles):
        lines.append(f"{t} {a} {b} {c}")
    lines.append("EDGES")
    for e, (a, b) in enumerate(mesh.edges):
        flag = 1 if mesh.boundary_edge_flags[e] else 0
        lines.append(f"{e} {a} {b} {flag}")
    return "\n".join(lines) + "\n"


def dump_matrix(mat) -> str:
    """Coordinate text dump, one `row col value` line per stored entry,
    17 significant digits, sorted by (row, col).

    Accepts a scipy sparse matrix or a 1-D array standing for a diagonal.
    """
    arr = np.asarray(mat) if not sp.issparse(mat) else None
    if arr is not None and arr.ndim == 1:
        triples = [(i, i, v) for i, v in enumerate(arr)]
    else:
        coo = sp.coo_matrix(mat)
        order = np.lexsort((coo.col, coo.row))
        triples = [(int(coo.row[k]), int(coo.col[k]), float(coo.data[k]))
                   for k in order]
    return "".join(f"{r} {c} {v:.17g}\n" for r, c, v in triples)


def edge_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1].

    The 2-point rule is exact for cubics, the 3-point rule for quintics.
    """
    if npts == 2:
        r = 1.0 / np.sqrt(3.0)
        nodes = np.array([(1 - r) / 2, (1 + r) / 2])
        weights = np.array([0.5, 0.5])
    elif npts == 3:
        r = np.sqrt(3.0 / 5.0)
        nodes = np.array([(1 - r) / 2, 0.5, (1 + r) / 2])
        weights = np.array([5.0, 8.0, 5.0]) / 18.0
    else:
        raise ValueError(f"unsupported edge rule size {npts}, "
                         "supported sizes are 2, 3")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def edge_normals(mesh) -> np.ndarray:
    """Unit global normals per edge, the oriented direction rotated 90
    degrees counterclockwise."""
    vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    tangent = vec / mesh.edge_lengths[:, None]
    return np.column_stack([-tangent[:, 1], tangent[:, 0]])


def fortin_interpolate(sigma_exact, mesh, npts: int = 3) -> np.ndarray:
    """Edge-flux interpolant Pi_h of a smooth vector field, the flux half
    of the mixed projection pair.

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
    return weighted_sum(rowdot(sigma, normals[:, None, :]), weights)

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
    """High-order integral of f(x, y) over a triangle (3, 2), or over each
    of a stack of triangles (T, 3, 2), where f gets coordinate arrays of
    shape (T,) and the result has that shape.

    Collapses the unit square onto the simplex (Duffy transform) and uses a
    16x16 tensor Gauss-Legendre grid; exact to roundoff for the polynomial
    degrees appearing in these tests and ~1e-14 accurate for the smooth
    trigonometric fields.
    """
    tri = np.asarray(tri, dtype=float)
    gx, gw = _GAUSS_1D
    gx = (gx + 1.0) / 2.0
    gw = gw / 2.0
    p0, p1, p2 = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    u, v = p1 - p0, p2 - p0
    area2 = abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    total = 0.0
    for a, wa in zip(gx, gw):
        for b, wb in zip(gx, gw):
            l2, l3 = a * (1.0 - b), a * b
            x = (1.0 - a) * p0 + l2 * p1 + l3 * p2
            total += wa * wb * a * f(x[..., 0], x[..., 1])
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


def copying_solve_gevp(S, D, k):
    """solve_gevp with a fresh array for the transform D^-1/2 S D^-1/2 and
    eigh's own copy of it, where solve_gevp works in one array in place.
    eigh reads the same triangle of it as in solve_gevp."""
    t = S.shape[0]
    if not (1 <= k <= t):
        raise NumericalError(f"requested {k} eigenvalues from a {t}-dim space")
    d = np.asarray(D, dtype=float)
    if np.any(d <= 0):
        raise NumericalError("weight mass diagonal must be positive")
    rsq = 1.0 / np.sqrt(d)
    w = rsq[:, None] * S * rsq[None, :]
    vals, y = la.eigh(w.T, subset_by_index=(0, k - 1))
    vecs = rsq[:, None] * y
    vecs *= _column_signs(vecs)
    residuals = _residuals(S @ vecs, d[:, None] * vecs, vals)
    _check_residuals(residuals, np.linalg.norm(S))
    return vals, vecs, residuals


def sign_entries(vecs):
    """Per column, its first entry whose magnitude is within a relative
    1e-8 of its largest: the entry the sign convention makes positive."""
    out = []
    for col in np.asarray(vecs).T:
        top = max(abs(v) for v in col)
        out.append(next(v for v in col if abs(v) >= (1.0 - 1e-8) * top))
    return np.array(out)


def mass_solve(sys, rhs):
    """M^-1 rhs by a sparse LU of M alone, not through the blocks of M's
    Cholesky factor that the dense path keeps nor the hybridized
    saddle-point block of the iterative one."""
    return spla.splu(sys.M.tocsc()).solve(rhs)


def dense_schur_eigentriples(sys, k):
    """The k smallest eigentriples of S u = lambda D u as (values, vectors,
    fluxes), S = C + B M^-1 B^T formed whole through mass_solve and handed
    to eigh with diag(D): no blocks, no chunks, no in-place transform.  The
    vectors are D-orthonormal with the solver paths' sign convention, and
    the fluxes are sigma = -M^-1 B^T u."""
    s = sys.B @ mass_solve(sys, sys.B.T.toarray()) + np.diag(sys.C)
    vals, vecs = la.eigh(s, np.diag(sys.D), subset_by_index=(0, k - 1))
    vecs *= _column_signs(vecs)
    return vals, vecs, -mass_solve(sys, sys.B.T @ vecs)


def schur_residuals(sys, vals, vecs):
    """2-norms of S u_j - lambda_j D u_j for the columns u_j of vecs.

    S is applied as B M^-1 B^T + C through mass_solve.
    """
    su = sys.B @ mass_solve(sys, sys.B.T @ vecs) + sys.C[:, None] * vecs
    return np.linalg.norm(su - sys.D[:, None] * vecs * vals[None, :], axis=0)


def flux_row_image(sys, vecs, sigmas):
    """2-norms of B M^-1 (M sigma_j + B^T u_j), through mass_solve.

    C u - B sigma - lambda D u differs from S u - lambda D u by this term.
    """
    return np.linalg.norm(
        sys.B @ mass_solve(sys, sys.M @ sigmas + sys.B.T @ vecs), axis=0)


def saddle_point_matrix(sys):
    """K = [[M, B^T], [B, -C]] in CSC, the unknowns in K's own numbering."""
    return sp.bmat([[sys.M, sys.B.T], [sys.B, -sp.diags(sys.C)]],
                   format="csc")


def saddle_point_solve(sys, rhs):
    """K^-1 rhs by a sparse direct solve of the whole saddle-point block."""
    return spla.spsolve(saddle_point_matrix(sys), rhs)


def nested_dissection_k_factor(mesh, sys):
    """The LU the iterative path made before it was hybridized: K with its
    unknowns in the nested-dissection order of recursive_nested_dissection,
    SuperLU keeping that column order and pivoting rows with its default
    threshold."""
    order = recursive_nested_dissection(mesh)
    k = saddle_point_matrix(sys)[order][:, order]
    return spla.splu(k, permc_spec="NATURAL")


def product_hybridization(mesh, sys):
    """(Z, W, H) of the iterative path's hybridization as sparse products:
    the global block diagonal A^-1 of the symmetrized local inverses, the
    jump map G from the local slots to the multipliers (owner +1,
    neighbour -1, in nested_dissection_order), A^-1 G^T, and the row and
    column selections Z = A^-1[slot][:, slot], W = (A^-1 G^T)[slot] and
    H = G A^-1 G^T, with sorted indices.  The owners come from np.unique.
    The package gathers the same three matrices from the local inverses
    without forming any of these products."""
    t, ne = sys.num_triangles, sys.num_edges
    blocks = np.zeros((t, 4, 4))
    blocks[:, :3, :3] = sys.m_vals
    blocks[:, :3, 3] = blocks[:, 3, :3] = sys.div_vals
    blocks[:, 3, 3] = -sys.C
    inv = np.linalg.inv(blocks)
    inv = (inv + inv.transpose(0, 2, 1)) * 0.5
    a_inv = sp.bsr_matrix((inv, np.arange(t), np.arange(t + 1))).tocsr()
    te = mesh.triangle_edges.ravel()
    p = np.arange(3 * t)
    local = 4 * (p // 3) + p % 3
    owner = np.unique(te, return_index=True)[1]
    slot = np.concatenate([local[owner], 4 * np.arange(t) + 3])
    order = nested_dissection_order(mesh)
    multiplier = np.full(ne, -1)
    multiplier[order] = np.arange(order.size)
    interior = multiplier[te] >= 0
    g = sp.csr_matrix(
        (np.where(owner[te] == p, 1.0, -1.0)[interior],
         (multiplier[te][interior], local[interior])),
        shape=(order.size, 4 * t))
    a_inv_gt = a_inv @ g.T
    z, w, h = a_inv[slot][:, slot], a_inv_gt[slot], g @ a_inv_gt
    for m in (z, w, h):
        m.sort_indices()
    return z, w, h


def schur_rayleigh_quotients(sys, vecs):
    """u_j^T S u_j / u_j^T D u_j for the columns u_j of vecs, S applied as
    B M^-1 B^T + C through mass_solve."""
    su = sys.B @ mass_solve(sys, sys.B.T @ vecs) + sys.C[:, None] * vecs
    return (np.sum(vecs * su, axis=0)
            / np.sum(sys.D[:, None] * vecs**2, axis=0))


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
        tri, e = triangle_coords(mesh, t), mesh.triangle_edges[t]
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


def recursive_nested_dissection(mesh):
    """The nested-dissection order of the mixed unknowns (edges, then
    triangles), by recursion over boxes of cells.

    Unknowns are placed from vertex coordinates: an axis-aligned interior
    edge on a grid line belongs to that line, every other unknown to the
    cell it lies in.  A box is cut at the middle grid line of its longer
    side (the x-side on a tie); its order is the lower half's, the upper
    half's, then the cut's edges in mesh order.
    """
    n, rect = mesh.n, mesh.rect
    grid = np.rint(np.column_stack([
        (mesh.vertices[:, 0] - rect.x0) / rect.width * n,
        (mesh.vertices[:, 1] - rect.y0) / rect.height * n])).astype(int)
    cells, lines = {}, {}
    for e, (a, b) in enumerate(mesh.edges):
        (xa, ya), (xb, yb) = grid[a], grid[b]
        if xa == xb and 0 < xa < n:
            lines[("x", xa, min(ya, yb))] = e
        elif ya == yb and 0 < ya < n:
            lines[("y", ya, min(xa, xb))] = e
        else:
            cell = (min(xa, xb, n - 1), min(ya, yb, n - 1))
            cells.setdefault(cell, []).append(e)
    for t, tri in enumerate(mesh.triangles):
        xs, ys = grid[tri, 0], grid[tri, 1]
        cells[(xs.min(), ys.min())].append(mesh.num_edges + t)

    def order(x0, x1, y0, y1):
        w, h = x1 - x0, y1 - y0
        if w == h == 1:
            return cells[(x0, y0)]
        if w >= h:
            c = x0 + w // 2
            return (order(x0, c, y0, y1) + order(c, x1, y0, y1)
                    + [lines[("x", c, r)] for r in range(y0, y1)])
        c = y0 + h // 2
        return (order(x0, x1, y0, c) + order(x0, x1, c, y1)
                + [lines[("y", c, r)] for r in range(x0, x1)])

    return np.array(order(0, n, 0, n))


def colamd_eigenvalues(sys, k, seed):
    """k smallest eigenvalues of the iterative path with the saddle-point
    block K factorized in SuperLU's default COLAMD column order, K's own
    numbering untouched: ARPACK on D^1/2 S^-1 D^1/2 from the same start
    vector."""
    ne, t = sys.num_edges, sys.num_triangles
    k_lu = spla.splu(saddle_point_matrix(sys))
    sqd = np.sqrt(sys.D)

    def shift_invert(y):
        rhs = np.concatenate([np.zeros(ne), -sqd * np.ravel(y)])
        return sqd * k_lu.solve(rhs)[ne:]

    op = spla.LinearOperator((t, t), matvec=shift_invert, dtype=float)
    mu, _ = spla.eigsh(op, k=k, which="LM",
                       v0=np.random.default_rng(seed).standard_normal(t))
    return np.sort(1.0 / mu)


def pointwise_p0_project(u, mesh, rule):
    """Quadrature mean of u over each triangle, one point at a time."""
    return np.array([
        sum(w * float(u(x, y))
            for (x, y), w in zip(rule.points @ triangle_coords(mesh, t),
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


def pointwise_l2_errors(u_h, sigma_h, mesh, exact, rule, A=None):
    """(err_u, err_sigma) with the discrete flux expanded in the element
    basis at each quadrature point."""
    means = pointwise_p0_project(exact.u, mesh, rule)
    sign = 1.0 if np.sum(mesh.areas * u_h * means) >= 0 else -1.0
    err_u = err_sigma = 0.0
    for t in range(mesh.num_triangles):
        tri, area = triangle_coords(mesh, t), mesh.areas[t]
        for (x, y), w in zip(rule.points @ tri, rule.weights):
            flux = np.asarray(exact.grad_u(x, y))
            if A is not None:
                flux = np.asarray(A(x, y)) @ flux
            for i in range(3):
                e = mesh.triangle_edges[t, i]
                flux = flux - sign * (
                    sigma_h[e] * mesh.triangle_edge_signs[t, i]
                    * mesh.edge_lengths[e] / (2.0 * area)
                    * (np.array([x, y]) - tri[i]))
            err_u += area * w * (float(exact.u(x, y)) - sign * u_h[t]) ** 2
            err_sigma += area * w * float(flux @ flux)
    return math.sqrt(err_u), math.sqrt(err_sigma)


def duffy_superclose_measures(u_h, sigma_h, mesh, exact, D):
    """(distance, err_u, err_sigma) of a discrete pair against the exact
    one, every triangle integral taken by duffy_triangle_integral: the
    projection as exact means, and A the identity."""
    tri = mesh.vertices[mesh.triangles]
    means = duffy_triangle_integral(exact.u, tri) / mesh.areas
    sign = 1.0 if np.sum(mesh.areas * u_h * means) >= 0 else -1.0
    te = mesh.triangle_edges
    coeff = (sigma_h[te] * mesh.triangle_edge_signs * mesh.edge_lengths[te]
             / (2.0 * mesh.areas[:, None]))

    def flux_error_squared(x, y):
        point = np.stack([x, y], axis=-1)
        d = exact.grad_u(x, y) - sign * sum(
            coeff[:, i, None] * (point - tri[:, i]) for i in range(3))
        return np.sum(d * d, axis=-1)

    err_u = duffy_triangle_integral(
        lambda x, y: (exact.u(x, y) - sign * u_h) ** 2, tri)
    err_sigma = duffy_triangle_integral(flux_error_squared, tri)
    return (superclose_distance(u_h, means, D), math.sqrt(err_u.sum()),
            math.sqrt(err_sigma.sum()))


def posthoc_superclose_block(prob, solved):
    """Projection distances and plain errors for the first (simple) mode,
    measured after the fact from every level's (mesh, system, result)."""
    exact = laplace_eigenpair(1, 1, prob.domain)
    dist, err_u, err_sigma = [], [], []
    for mesh, sys_, result in solved:
        pu = p0_project(exact.u, mesh)
        u_h = result.vectors[:, 0]
        dist.append(superclose_distance(u_h, pu, sys_.D))
        eu, es = l2_errors(u_h, result.fluxes[:, 0], mesh, exact, A=prob.A)
        err_u.append(eu)
        err_sigma.append(es)
    return SupercloseBlock(
        mode=(1, 1),
        distance=np.array(dist),
        err_u=np.array(err_u),
        err_sigma=np.array(err_sigma),
    )


def loop_observed_order(errors):
    """observed_order one neighbouring pair at a time."""
    e = np.asarray(errors, dtype=float)
    orders = np.full(e.size - 1, np.nan)
    for i in range(e.size - 1):
        if e[i] > SATURATION and e[i + 1] > SATURATION:
            orders[i] = math.log2(e[i] / e[i + 1])
    return orders


def loop_match_and_cluster(levels):
    """match_and_cluster without its input checks, extrapolating one index
    at a time and growing the clusters one index at a time."""
    levels = [(int(n), float(h), np.asarray(vals, dtype=float))
              for n, h, vals in levels]
    k = levels[0][2].size
    matched = np.vstack([vals for _, _, vals in levels]).T
    limits = np.array([richardson(matched[i, -2], matched[i, -1])
                       for i in range(k)])
    clusters = [[0]]
    for i in range(1, k):
        gap = abs(limits[i] - limits[i - 1])
        if gap <= CLUSTER_RTOL * abs(limits[i - 1]):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return LevelSequence(levels=levels, matched=matched, clusters=clusters)


def loop_build_table(seq, reference=None):
    """build_table extrapolating one level pair at a time, with the self
    reference extrapolated again from the two finest raw values."""
    table = ConvergenceTable(
        level_ns=[n for n, _, _ in seq.levels],
        level_hs=[h for _, h, _ in seq.levels],
        reference_kind="analytic" if reference is not None else "self",
    )
    nlev = len(seq.levels)
    for indices, raw in zip(seq.clusters, seq.cluster_means()):
        extrap = np.array([richardson(raw[i], raw[i + 1])
                           for i in range(nlev - 1)])
        if reference is not None:
            ref = float(np.mean([reference[i] for i in indices]))
        else:
            ref = richardson(raw[-2], raw[-1])
        err_raw = np.abs(raw - ref)
        err_extrap = np.abs(extrap - ref)
        lo, hi = indices[0] + 1, indices[-1] + 1
        table.rows.append(ClusterRow(
            indices=list(indices),
            label=str(lo) if lo == hi else f"{lo}-{hi}",
            raw=raw, extrapolated=extrap, reference=ref,
            err_raw=err_raw, err_extrap=err_extrap,
            order_raw=loop_observed_order(err_raw),
            order_extrap=(loop_observed_order(err_extrap)
                          if nlev >= 3 else np.empty(0))))
    return table


def loop_laplace_eigenvalues(count, rect, shift=0.0):
    """laplace_eigenvalues from a separate bound on each axis, sorted as
    a Python list."""
    lx, ly = rect.width, rect.height
    bound = count**2 / max(lx, ly) ** 2 + 1.0 / min(lx, ly) ** 2
    m_max = int(lx * math.sqrt(bound - 1.0 / ly**2)) + 1
    n_max = int(ly * math.sqrt(bound - 1.0 / lx**2)) + 1
    vals = sorted(
        math.pi**2 * (m**2 / lx**2 + n**2 / ly**2) + shift
        for m in range(1, m_max + 1) for n in range(1, n_max + 1)
    )
    return np.array(vals[:count])


# ---------------------------------------------------------------------------
# report renderers, one walk of ConvergenceTable per output


def _f12(v) -> str:
    """12-significant-digit text for a float, empty for missing."""
    if v is None:
        return ""
    v = float(v)
    if math.isnan(v):
        return ""
    return f"{v:.12g}"


def _round12(v):
    """Float rounded to 12 significant digits; None for missing/NaN."""
    if v is None:
        return None
    v = float(v)
    if math.isnan(v):
        return None
    return float(f"{v:.12g}")


def _csv_rows(table: ConvergenceTable):
    rows = []
    nlev = len(table.level_ns)
    sc = table.superclose
    for row in table.rows:
        carries_mode = 0 in row.indices
        for i in range(nlev):
            rec = {
                "eigen": row.label,
                "level_n": str(table.level_ns[i]),
                "h": _f12(table.level_hs[i]),
                "lambda_h": _f12(row.raw[i]),
                "lambda_extrap": _f12(row.extrapolated[i - 1]) if i else "",
                "err_raw": _f12(row.err_raw[i]),
                "err_extrap": _f12(row.err_extrap[i - 1]) if i else "",
                "order_raw": _f12(row.order_raw[i - 1]) if i else "",
                "order_extrap": (_f12(row.order_extrap[i - 2])
                                 if i >= 2 else ""),
                "superclose": "",
                "err_u": "",
                "err_sigma": "",
            }
            if sc is not None and carries_mode:
                rec["superclose"] = _f12(sc.distance[i])
                rec["err_u"] = _f12(sc.err_u[i])
                rec["err_sigma"] = _f12(sc.err_sigma[i])
            rows.append(rec)
    return rows


def _json_payload(table, cfg, results, failures):
    levels = []
    for res in results:
        levels.append({
            "n": res.n,
            "h": _round12(res.h),
            "edges": res.num_edges,
            "triangles": res.num_triangles,
            "status": "ok",
            "eigenvalues": [_round12(v) for v in res.eigenvalues],
            "residuals": [_round12(v) for v in res.residuals],
        })
    for f in failures:
        levels.append({"n": f["n"], "status": "failed", "error": f["error"]})

    payload = {
        "tool": {"name": "rt0eig", "version": __version__},
        "study": {
            "preset": cfg.preset,
            "levels": list(cfg.levels),
            "k": cfg.k,
            "expansion_order": EXPANSION_ORDER,
            "solver": cfg.solver,
            "seed": cfg.seed,
            "compute_superclose": cfg.compute_superclose,
        },
        "status": "failed" if failures else "ok",
        "levels": levels,
        "eigen": [],
        "superclose": None,
    }
    if table is None:
        return payload
    payload["reference_kind"] = table.reference_kind
    for row in table.rows:
        payload["eigen"].append({
            "label": row.label,
            "indices": [i + 1 for i in row.indices],
            "reference": _round12(row.reference),
            "lambda_h": [_round12(v) for v in row.raw],
            "lambda_extrap": [_round12(v) for v in row.extrapolated],
            "err_raw": [_round12(v) for v in row.err_raw],
            "err_extrap": [_round12(v) for v in row.err_extrap],
            "order_raw": [_round12(v) for v in row.order_raw],
            "order_extrap": [_round12(v) for v in row.order_extrap],
        })
    sc = table.superclose
    if sc is not None:
        payload["superclose"] = {
            "mode": list(sc.mode),
            "distance": [_round12(v) for v in sc.distance],
            "err_u": [_round12(v) for v in sc.err_u],
            "err_sigma": [_round12(v) for v in sc.err_sigma],
            "order_distance": [_round12(v) for v in sc.order_distance],
            "order_err_u": [_round12(v) for v in sc.order_err_u],
            "order_err_sigma": [_round12(v) for v in sc.order_err_sigma],
        }
    return payload


def _print_summary(table, cfg, results, failures, timings, total, out=None):
    w = (out or sys.stdout).write
    w(f"study: preset={cfg.preset} levels={cfg.levels} k={cfg.k} "
      f"solver={cfg.solver}\n")
    for res, secs in zip(results, timings):
        w(f"  level n={res.n:<4d} h={res.h:.6g}  edges={res.num_edges} "
          f"triangles={res.num_triangles}  [{secs:.2f}s]\n")
    for f in failures:
        w(f"  level n={f['n']:<4d} FAILED: {f['error']}\n")
    if table is not None:
        w(f"reference: {table.reference_kind}\n")
        header = (f"{'eigen':>6} {'n':>5} {'lambda_h':>16} "
                  f"{'extrapolated':>16} {'err_raw':>11} {'err_extrap':>11} "
                  f"{'ord':>6} {'ord_x':>6}\n")
        w(header)
        for row in table.rows:
            for i, n in enumerate(table.level_ns):
                lam_x = _f12(row.extrapolated[i - 1]) if i else ""
                err_x = f"{row.err_extrap[i - 1]:.5e}" if i else ""
                p_raw = (f"{row.order_raw[i - 1]:.2f}"
                         if i and not math.isnan(row.order_raw[i - 1]) else "")
                p_x = (f"{row.order_extrap[i - 2]:.2f}"
                       if i >= 2 and not math.isnan(row.order_extrap[i - 2])
                       else "")
                w(f"{row.label:>6} {n:>5} {row.raw[i]:>16.10g} "
                  f"{lam_x:>16.16s} {row.err_raw[i]:>11.5e} "
                  f"{err_x:>11} {p_raw:>6} {p_x:>6}\n")
        sc = table.superclose
        if sc is not None:
            w("superclose (mode 1,1):\n")
            for i, n in enumerate(table.level_ns):
                od = (f"{sc.order_distance[i - 1]:.2f}" if i else "")
                ou = (f"{sc.order_err_u[i - 1]:.2f}" if i else "")
                w(f"  n={n:<4d} distance={sc.distance[i]:.6e} ({od:>5}) "
                  f"err_u={sc.err_u[i]:.6e} ({ou:>5}) "
                  f"err_sigma={sc.err_sigma[i]:.6e}\n")
    w(f"total time: {total:.2f}s\n")


def csv_text(table):
    """report.csv as written by the per-output renderers."""
    csv_lines = [",".join(CSV_COLUMNS)]
    if table is not None:
        for rec in _csv_rows(table):
            csv_lines.append(",".join(rec[c] for c in CSV_COLUMNS))
    return "\n".join(csv_lines) + "\n"


def json_text(table, cfg, results, failures):
    """report.json as written by the per-output renderers."""
    payload = _json_payload(table, cfg, results, list(failures))
    return json.dumps(payload, indent=2) + "\n"


def summary_text(table, cfg, results, failures, timings, total):
    """The stdout summary as printed by the per-output renderers."""
    out = io.StringIO()
    _print_summary(table, cfg, results, failures, timings, total, out=out)
    return out.getvalue()

"""Independent reference computations for the test suite.

Most of these deliberately avoid the package's own quadrature rules and
solver paths: element matrices come from symbolic integration, triangle
integrals from a Duffy-transform tensor Gauss rule, eigenvalues of the
reduced problem from the dense saddle-point pencil, eigenpair residuals and
Rayleigh quotients through a factorization of M rather than of the
saddle-point block, and solves with that block from a sparse direct solve
of it whole, not from its hybridization.  The dense Schur complement and
the dense eigensolve have references that densify or copy whole arrays
where the package works chunk by chunk or in place.

The per-element and per-point references at the end redo, one triangle,
edge or point at a time, what the package computes on whole arrays: global
assembly from the element routines, the dict walk that numbers mesh edges,
the nested-dissection order of the unknowns by recursion over boxes, the
iterative eigenvalues through a COLAMD-ordered factorization, the
nested-dissection LU of the saddle-point block, and the
projections and L2 errors of the superclose module.  The study's
superclose block has a post-hoc reference that measures every level after
the last one is solved, where the package measures each level while it is
alive.  Last come the report renderers that walk the convergence table
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

from rt0eig import (__version__, edge_normals, element_flux_mass,
                    integrate_triangle, l2_errors, laplace_eigenpair,
                    p0_project, superclose_distance, triangle_rule)
from rt0eig.assembly import element_div
from rt0eig.cli import CSV_COLUMNS
from rt0eig.coefficients import edge_rule
from rt0eig.eigensolver import (NumericalError, _check_residuals, _fix_signs,
                                _residuals)
from rt0eig.extrapolation import (EXPANSION_ORDER, ConvergenceTable,
                                  SupercloseBlock)


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


def full_densify_schur_complement(sys, solve):
    """S = B M^-1 B^T + C, densifying all of B^T before the chunked solves.

    The same chunks, solves (through `solve`, which applies M^-1) and
    symmetrization as schur_complement, which densifies one chunk of B^T at
    a time instead.
    """
    bt = sys.B.T.toarray()
    s = np.empty((sys.num_triangles, sys.num_triangles))
    chunk = max(1, min(sys.num_triangles, (1 << 20) // max(sys.num_edges, 1)))
    for lo in range(0, sys.num_triangles, chunk):
        hi = min(lo + chunk, sys.num_triangles)
        s[:, lo:hi] = sys.B @ solve(bt[:, lo:hi])
    s[np.diag_indices_from(s)] += sys.C
    return 0.5 * (s + s.T)


def copying_solve_gevp(S, D, k):
    """solve_gevp with a fresh array for each step of the transform
    D^-1/2 S D^-1/2, its symmetrization and eigh's own copy of it, where
    solve_gevp works in one array in place."""
    t = S.shape[0]
    if not (1 <= k <= t):
        raise NumericalError(f"requested {k} eigenvalues from a {t}-dim space")
    d = np.asarray(D, dtype=float)
    if np.any(d <= 0):
        raise NumericalError("weight mass diagonal must be positive")
    rsq = 1.0 / np.sqrt(d)
    w = rsq[:, None] * S * rsq[None, :]
    w = 0.5 * (w + w.T)
    vals, y = la.eigh(w, subset_by_index=(0, k - 1))
    vecs = _fix_signs(rsq[:, None] * y)
    residuals = _residuals(S @ vecs, d[:, None] * vecs, vals)
    _check_residuals(residuals, np.linalg.norm(S))
    return vals, vecs, residuals


def mass_solve(sys, rhs):
    """M^-1 rhs by a sparse LU of M alone, not through the dense Cholesky
    factor of the dense path nor the saddle-point block of the iterative
    one."""
    return spla.splu(sys.M.tocsc()).solve(rhs)


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


def pointwise_l2_errors(u_h, sigma_h, mesh, exact, rule, A=None):
    """(err_u, err_sigma) with the discrete flux expanded in the element
    basis at each quadrature point."""
    means = pointwise_p0_project(exact.u, mesh, rule)
    sign = 1.0 if np.sum(mesh.areas * u_h * means) >= 0 else -1.0
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
                    sigma_h[e] * mesh.triangle_edge_signs[t, i]
                    * mesh.edge_lengths[e] / (2.0 * area)
                    * (np.array([x, y]) - tri[i]))
            err_u += area * w * (float(exact.u(x, y)) - sign * u_h[t]) ** 2
            err_sigma += area * w * float(flux @ flux)
    return math.sqrt(err_u), math.sqrt(err_sigma)


def posthoc_superclose_block(prob, solved):
    """Projection distances and plain errors for the first (simple) mode,
    measured after the fact from every level's (mesh, system, result)."""
    exact = laplace_eigenpair(1, 1, prob.domain)
    rule3 = triangle_rule(3)
    dist, err_u, err_sigma = [], [], []
    for mesh, sys_, result in solved:
        pu = p0_project(exact.u, mesh, rule3)
        u_h = result.vectors[:, 0]
        dist.append(superclose_distance(u_h, pu, sys_.D))
        eu, es = l2_errors(u_h, result.fluxes[:, 0], mesh, exact, rule3,
                           A=prob.A)
        err_u.append(eu)
        err_sigma.append(es)
    return SupercloseBlock(
        mode=(1, 1),
        distance=np.array(dist),
        err_u=np.array(err_u),
        err_sigma=np.array(err_sigma),
    )


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

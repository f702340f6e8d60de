"""Assembly of the lowest-order Raviart-Thomas / piecewise-constant system.

Local basis on a triangle with vertices p0, p1, p2 and area |T|:

    phi_i(x) = s_i * |e_i| / (2 |T|) * (x - p_i),

where e_i is the edge opposite vertex p_i and s_i the +-1 sign recorded by
the mesh (global edge orientation).  Then div phi_i = s_i |e_i| / |T| and
the constant normal flux of phi_i across e_i, measured against the global
edge normal, is exactly 1.  The scalar space has the indicator of each
triangle as its basis.

Global blocks:

    M[i, j] = integral of (A^-1 phi_j) . phi_i   (flux mass, E x E, SPD)
    B[t, j] = integral over triangle t of div phi_j   (T x E, 3 nnz per row)
    C[t]    = integral over triangle t of c   (diagonal of reaction mass)
    D[t]    = integral over triangle t of b   (diagonal of weight mass)

The homogeneous Dirichlet condition on u is natural in this mixed form, so
no edge degrees of freedom are eliminated.

`assemble` forms the blocks of all triangles at once, with the quadrature
rule coefficients.MIDPOINT_RULE.  The tests compare it bit for bit with a
loop over per-triangle reference routines.

The blocks are plain scipy and numpy data, so other tools take them as
Matrix Market files: a study with `dump_matrices` writes each level's M, B,
C and D with `scipy.io.mmwrite`, C and D as diagonal matrices that keep
their zero entries.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coefficients import (COEFF_EPS, MIDPOINT_RULE, ProblemSpec,
                           field_values, quad_points, rowdot, weighted_sum)
from .mesh import Mesh

# a triangle whose area is not above this times its squared longest edge
# is degenerate: a shape test, so it holds at every scale of the domain
DEGENERATE_AREA = 1e-14


class AssemblyError(Exception):
    """Invalid element geometry or coefficient data during assembly."""


@dataclass
class AssembledSystem:
    """Sparse blocks of the discrete mixed eigenvalue problem, plain data:
    the solvers factorize what they need of it themselves.

    C and D hold the diagonals of the (diagonal) reaction and weight mass
    matrices as 1-D arrays of length num_triangles.

    The element blocks that M and B are summed from stay alongside them
    for the iterative solver, which hybridizes the mixed system triangle by
    triangle: `m_vals` (T, 3, 3) holds each triangle's flux mass block and
    `div_vals` (T, 3) its row of B, both over its local edges, whose global
    edges are the mesh's `triangle_edges`.
    """

    M: sp.csr_matrix
    B: sp.csr_matrix
    C: np.ndarray
    D: np.ndarray
    num_edges: int
    num_triangles: int
    m_vals: np.ndarray
    div_vals: np.ndarray


def _coefficient(f, name, x, y, tail=()):
    try:
        return field_values(f, x, y, tail)
    except ValueError as exc:
        raise AssemblyError(f"coefficient {name}: {exc}") from None


def _first_violation(pts, checks):
    """Raise for the first triangle in mesh order that fails a check.

    `checks` holds ((T, Q) bool mask, message) pairs in the order they apply
    at one triangle; message(t, q, where) formats the error for point q of
    triangle t, `where` naming the point and the triangle.
    """
    found = [(int(np.argmax(mask.any(axis=1))), k)
             for k, (mask, _) in enumerate(checks) if mask.any()]
    if not found:
        return
    t, k = min(found)
    mask, message = checks[k]
    q = int(np.argmax(mask[t]))
    x, y = pts[t, q]
    raise AssemblyError(message(t, q, f"at ({x:g}, {y:g}) in triangle {t}"))


def _tensor_check(a):
    """Symmetry and positive definiteness of the 2x2 tensors a (T, Q, 2, 2),
    as a _first_violation check."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    # each check negates the valid condition, so that NaN fails it
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    asym = ~(np.abs(a01 - a10) <= 1e-10 * scale)
    det = a00 * a11 - a01 * a10
    lam_min = 0.5 * (a00 + a11 - np.sqrt(np.maximum((a00 - a11) ** 2
                                                    + 4.0 * a01 ** 2, 0.0)))
    indefinite = ~((lam_min >= COEFF_EPS) & (det >= COEFF_EPS))

    def message(t, q, where):
        if not np.isfinite(a[t, q]).all():
            return f"A is not finite {where}"
        if asym[t, q]:
            return f"A is not symmetric {where}"
        return (f"A is not positive definite {where}: "
                f"min eigenvalue {lam_min[t, q]:g}")

    return asym | indefinite, message


def _lower_bound_check(vals, name, lower):
    return (~(vals >= lower), lambda t, q, where: (
        f"coefficient {name} = {vals[t, q]:g} is not at least {lower:g} "
        f"{where}"))


def _inverse_tensor(a):
    """Closed-form inverses of 2x2 tensors stacked on the last two axes."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    det = a00 * a11 - a01 * a10
    inv = np.stack([np.stack([a11, -a01], axis=-1),
                    np.stack([-a10, a00], axis=-1)], axis=-2)
    return inv / det[..., None, None]


def assemble(mesh: Mesh, prob: ProblemSpec) -> AssembledSystem:
    """Assemble the global mixed system by element scatter-add.

    The coefficients are evaluated once on the MIDPOINT_RULE points of all
    triangles and the element blocks of all triangles are formed together.
    Element geometry and the coefficient invariants (A SPD, c >= 0, b > 0)
    are checked at every quadrature point; a violation raises AssemblyError
    naming the first offending triangle in mesh order and the point.  So
    does an element block that is not finite, as on a rectangle so large
    that its edge lengths overflow.  Duplicate scatter entries are summed.
    """
    rule = MIDPOINT_RULE
    if mesh.rect != prob.domain:
        raise AssemblyError(
            f"mesh domain {mesh.rect} differs from problem domain {prob.domain}")

    nt, ne = mesh.num_triangles, mesh.num_edges
    tri = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    area = mesh.areas
    # the degenerate test compares area / longest with DEGENERATE_AREA *
    # longest, which, unlike longest squared, cannot overflow
    longest = mesh.edge_lengths[mesh.triangle_edges].max(axis=1)
    pts = quad_points(tri, rule)  # (T, Q, 2)
    x, y = pts[..., 0], pts[..., 1]
    a = _coefficient(prob.A, "A", x, y, (2, 2))
    c_vals = _coefficient(prob.c, "c", x, y)
    b_vals = _coefficient(prob.b, "b", x, y)
    _first_violation(pts, [
        (np.broadcast_to(
            ~(area / longest > DEGENERATE_AREA * longest)[:, None], x.shape),
         lambda t, q, where: (
             f"degenerate triangle {t} with area {area[t]:g} and longest "
             f"edge {longest[t]:g}")),
        _tensor_check(a),
        _lower_bound_check(c_vals, "c", 0.0),
        _lower_bound_check(b_vals, "b", COEFF_EPS),
    ])

    # the finiteness check below names an overflow of the element blocks, so
    # numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        # edge opposite vertex i connects the other two vertices
        opposite = tri[:, [2, 0, 1]] - tri[:, [1, 2, 0]]
        div_vals = mesh.triangle_edge_signs * np.sqrt(
            rowdot(opposite, opposite))
        coeff = div_vals / (2.0 * area[:, None])
        ainv = _inverse_tensor(a)
        m_vals = np.zeros((nt, 3, 3))
        for q, w in enumerate(rule.weights):
            phi = coeff[:, :, None] * (pts[:, q, None, :] - tri)  # (T, 3, 2)
            m_vals += w * (phi @ ainv[:, q] @ phi.transpose(0, 2, 1))
        m_vals *= area[:, None, None]
        m_vals = 0.5 * (m_vals + m_vals.transpose(0, 2, 1))
        c_diag = weighted_sum(c_vals, rule.weights) * area
        d_diag = weighted_sum(b_vals, rule.weights) * area
    finite = (np.isfinite(div_vals).all(axis=1)
              & np.isfinite(m_vals).all(axis=(1, 2))
              & np.isfinite(c_diag) & np.isfinite(d_diag))
    if not finite.all():
        t = int(np.argmin(finite))
        raise AssemblyError(
            f"element blocks of triangle {t} are not finite: the geometry or "
            f"the coefficient integrals overflow")

    te = mesh.triangle_edges
    M = sp.coo_matrix(
        (m_vals.ravel(),
         (np.repeat(te, 3, axis=1).ravel(), np.tile(te, 3).ravel())),
        shape=(ne, ne)).tocsr()
    b_rows = np.repeat(np.arange(nt), 3)
    B = sp.coo_matrix(
        (div_vals.ravel(), (b_rows, te.ravel())),
        shape=(nt, ne)).tocsr()

    return AssembledSystem(M=M, B=B, C=c_diag, D=d_diag,
                           num_edges=ne, num_triangles=nt,
                           m_vals=m_vals, div_vals=div_vals)


"""Eigenvalue solver for the discrete mixed problem.

The saddle-point system

    M sigma + B^T u = 0
    B sigma - C u   = -lambda D u

is reduced by eliminating the flux: S = B M^-1 B^T + C is symmetric positive
definite and S u = lambda D u has exactly the finite eigenvalues of the full
block pencil.  The dense path, for levels of at most DENSE_MAX_TRIANGLES
triangles, factorizes M once per level by dense Cholesky.  Through that
factor it forms S explicitly, diagonalizes the similarity transform
D^-1/2 S D^-1/2 in S's own storage, and recovers the fluxes of all pairs
in one solve with k right-hand sides.  The iterative path,
solve_gevp_iterative, never forms S nor factorizes M or the block matrix
K = [[M, B^T], [B, -C]].  It hybridizes K (Arnold and Brezzi, M2AN 19,
1985): the flux space is broken triangle by triangle, one multiplier per
interior edge makes the normal flux continuous, and the flux and the
scalar are eliminated element by element through the block diagonal
inverse A^-1 of the element blocks.
With G the jump map from the element slots to the multipliers, K^-1 =
Z - W H^-1 W^T, where Z and W are A^-1 and A^-1 G^T restricted to K's
unknowns and H = G A^-1 G^T is a symmetric positive definite system on the
interior edges with at most 5 entries per row.  One sparse LU of H per
level, in the mesh's nested-dissection order and without pivoting,
applies S^-1 for shift-invert ARPACK and then gives the fluxes of the
eigentriples.  Up to a sign and the edge length, the multipliers
approximate the scalar's trace on the interior edges, from which Arnold
and Brezzi post-process it.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Residual and orthonormality contracts.
RESIDUAL_RTOL = 1e-10
FLUX_RTOL = 1e-11
SCHUR_SYM_RTOL = 1e-11

# The dense path holds the factor of M and S as full float64 arrays, and
# diagonalizes S in its own storage (see solve_gevp): at 2048 triangles
# (n = 32) they take 79 MB and 34 MB, and M alone would take 1.2 GB at
# n = 64.
DENSE_MAX_TRIANGLES = 2048

ITER_BUDGET_PER_EIGENVALUE = 500


class NumericalError(Exception):
    """Factorization failure, non-convergence, or violated residual bound."""


@dataclass
class EigenPair:
    """One discrete eigentriple, a column of what solve_gevp and
    recover_flux return on the dense path, or solve_gevp_iterative on the
    iterative one.

    `u` is normalized to u^T D u = 1 with its largest-magnitude entry
    positive; `sigma` solves M sigma = -B^T u.  `residual` is the 2-norm of
    S u - lambda D u on the dense path, formed from the triangle of
    W = D^-1/2 S D^-1/2 that is left in S's storage after the eigensolver
    overwrote it (see solve_gevp).  The iterative path does not apply S
    and reports the 2-norm of C u - B sigma - lambda D u instead, the scalar
    row of the saddle-point system; it differs from S u - lambda D u by
    B M^-1 (M sigma + B^T u), the image of the flux row's residual, which
    is checked against FLUX_RTOL.  Its `lambda_h` is the Rayleigh quotient
    u^T (C u - B sigma) / u^T D u of the reported u and sigma, not ARPACK's
    Ritz value.
    """

    lambda_h: float
    u: np.ndarray
    sigma: np.ndarray
    residual: float


@dataclass
class EigenResult:
    """Eigenpairs of one mesh level, ascending by eigenvalue."""

    n: int
    h: float
    num_edges: int
    num_triangles: int
    pairs: list[EigenPair] = field(default_factory=list)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([p.lambda_h for p in self.pairs])


def flux_mass_solver(M: sp.csr_matrix):
    """Factorize the SPD flux mass matrix by dense Cholesky; return its solve.

    M is densified in Fortran order, which LAPACK factors in place, so the
    level holds one E x E array.  The factorization also certifies positive
    definiteness.  The solve takes one right-hand side or a column block of
    them and leaves them unchanged.  It checks only the right-hand side for
    infs and NaNs, raising ValueError: cho_factor checked M, and the factor
    it returned is finite.
    """
    try:
        factor = la.cho_factor(M.toarray(order="F"), overwrite_a=True)
    except la.LinAlgError as exc:
        raise NumericalError(
            f"flux mass matrix is not positive definite: {exc}") from exc
    return lambda rhs: la.cho_solve(factor, np.asarray_chkfinite(rhs),
                                    check_finite=False)


def schur_complement(sys, solve) -> np.ndarray:
    """Dense Schur complement S = B M^-1 B^T + C of the mixed system.

    `solve` applies M^-1, as returned by flux_mass_solver; it is called once
    per column chunk of B^T.  S is checked and symmetrized in place (see
    _symmetrize).  Raises NumericalError, naming the first column, if an
    entry is not finite, and if S is not symmetric to within tolerance.
    """
    bt = sys.B.T.tocsc()
    s = np.empty((sys.num_triangles, sys.num_triangles))
    # densify and solve B^T in column chunks of at most 2^20 entries (7 at
    # n = 32): each chunk's dense block, its solve and its product with B
    # are live at once
    chunk = max(1, min(sys.num_triangles, (1 << 20) // max(sys.num_edges, 1)))
    for lo in range(0, sys.num_triangles, chunk):
        hi = min(lo + chunk, sys.num_triangles)
        s[:, lo:hi] = sys.B @ solve(bt[:, lo:hi].toarray())
    s[np.diag_indices_from(s)] += sys.C
    scale = float(max(s.max(), -s.min()))  # max |s|, with no |s| array
    # max |s| is NaN or inf exactly when an entry is, which the symmetry
    # check below would let through
    if not np.isfinite(scale):
        j = int(np.argmin(np.isfinite(s).all(axis=0)))
        raise NumericalError(f"Schur complement column {j} is not finite")
    asym = _symmetrize(s)
    if asym > SCHUR_SYM_RTOL * scale:
        raise NumericalError(
            f"Schur complement asymmetry {asym:g} exceeds "
            f"{SCHUR_SYM_RTOL:g} * {scale:g}")
    return s


def _symmetrize(a: np.ndarray) -> float:
    """Replace the square array a by 0.5 * (a + a^T) in place and return the
    largest |a_ij - a_ji| it had.

    It goes over pairs of mirrored blocks, so its temporaries are a few
    block x block arrays; every entry is the same double as in
    0.5 * (a + a.T).
    """
    n, block = a.shape[0], 256
    asym = 0.0
    for lo in range(0, n, block):
        rows = slice(lo, lo + block)
        for lo2 in range(lo, n, block):
            cols = slice(lo2, lo2 + block)
            upper, lower = a[rows, cols], a[cols, rows].T
            asym = max(asym, float(np.abs(upper - lower).max()))
            mean = 0.5 * (upper + lower)
            a[rows, cols] = mean
            a[cols, rows] = mean.T
    return asym


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive.

    Ties in magnitude resolve to the lowest index (argmax takes the first).
    """
    return vecs * _column_signs(vecs)[None, :]


def _column_signs(vecs: np.ndarray) -> np.ndarray:
    """+1 or -1 per column, the sign of its first largest-magnitude entry."""
    idx = np.argmax(np.abs(vecs), axis=0)
    return np.where(vecs[idx, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)


def solve_gevp(S: np.ndarray, D: np.ndarray, k: int):
    """k smallest eigenpairs of S u = lambda D u, D diagonal positive.

    Returns (values, vectors, residuals) with values ascending, vectors
    D-orthonormal columns with the sign convention applied, and residuals
    the 2-norms of S u - lambda D u.  The residual bound is checked against
    RESIDUAL_RTOL times the Frobenius norm of S.

    S is overwritten: it is scaled in place to W = D^-1/2 S D^-1/2,
    symmetrized, and handed to the eigensolver in Fortran order, which
    destroys one triangle of it and the diagonal.  The diagonal is saved
    and written back, so the other triangle still holds W, and the
    residuals are formed from it as ||D^1/2 (W y - lambda y)|| for the
    eigenvectors y of W; that is S u - lambda D u up to rounding.
    """
    t = S.shape[0]
    if not (1 <= k <= t):
        raise NumericalError(f"requested {k} eigenvalues from a {t}-dim space")
    d = np.asarray(D, dtype=float)
    if not np.all(d > 0):
        raise NumericalError("weight mass diagonal must be positive")
    s_norm = np.linalg.norm(S)
    sqd = np.sqrt(d)
    rsq = 1.0 / sqd
    S *= rsq[:, None]
    S *= rsq[None, :]
    _symmetrize(S)
    # S is symmetric, so S.T is W in Fortran order.  eigh overwrites its
    # lower triangle and diagonal; with the diagonal written back, dsymm
    # reads W from the diagonal and the upper triangle
    w, diag = S.T, S.diagonal().copy()
    vals, y = la.eigh(w, overwrite_a=True, subset_by_index=(0, k - 1))
    np.fill_diagonal(w, diag)
    wy = la.blas.dsymm(1.0, w, y, lower=0)
    residuals = _residuals(sqd[:, None] * wy, sqd[:, None] * y, vals)
    _check_residuals(residuals, s_norm)
    return vals, _fix_signs(rsq[:, None] * y), residuals


def _residuals(sv, dv, vals):
    return np.linalg.norm(sv - dv * vals[None, :], axis=0)


def _check_residuals(residuals, s_norm):
    bound = RESIDUAL_RTOL * s_norm
    worst = float(residuals.max())
    # negated, so that NaN fails it; argmax names the first NaN
    if not worst <= bound:
        bad = int(np.argmax(residuals))
        raise NumericalError(
            f"eigenpair {bad} residual {worst:g} exceeds bound {bound:g}")


def _hybridize(sys):
    """Sparse (Z, W, H) such that K^-1 r = Z r - W H^-1 W^T r.

    The flux space is broken triangle by triangle, and the normal flux of
    each interior edge is made continuous by one multiplier.  Triangle t
    has four local slots 4t..4t+3: the fluxes of its local edges and its
    scalar.  A^-1 is the block diagonal inverse of the local blocks
    [[M_T, L_T^T], [L_T, -c_T]] (M_T from m_vals, L_T from div_vals).  Each
    unknown of K has one slot: a triangle's scalar its own, and an edge's
    flux that of its first triangle, its owner, which also gives its sigma
    back.  The jump map G takes the owner's slot minus the neighbour's to
    the multipliers, numbered in the order `sys.order` gives their edges.
    Then

        Z = A^-1 restricted to the slots of K,
        W = A^-1 G^T restricted to the slots of K,   H = G A^-1 G^T.

    H couples the interior edges of one triangle, so it has at most 5
    entries per row, and it is symmetric positive definite.
    """
    t, ne = sys.num_triangles, sys.num_edges
    blocks = np.zeros((t, 4, 4))
    blocks[:, :3, :3] = sys.m_vals
    blocks[:, :3, 3] = blocks[:, 3, :3] = sys.div_vals
    blocks[:, 3, 3] = -sys.C
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        # LAPACK reports an exactly zero pivot, so the det of a singular
        # block is exactly 0
        bad = int(np.argmin(np.abs(np.linalg.det(blocks))))
        raise NumericalError(
            f"local block of triangle {bad} is singular") from None
    inv = 0.5 * (inv + inv.transpose(0, 2, 1))
    a_inv = sp.bsr_matrix((inv, np.arange(t), np.arange(t + 1))).tocsr()

    te = sys.triangle_edges.ravel()
    # local edge p = 3t + i has slot 4t + i; owner[e] is the first p of e
    p = np.arange(3 * t)
    local = 4 * (p // 3) + p % 3
    owner = np.unique(te, return_index=True)[1]
    slot = np.concatenate([local[owner], 4 * np.arange(t) + 3])
    edges = sys.order[sys.order < ne]
    edges = edges[np.bincount(te, minlength=ne)[edges] == 2]
    multiplier = np.full(ne, -1)
    multiplier[edges] = np.arange(edges.size)
    interior = multiplier[te] >= 0
    g = sp.csr_matrix(
        (np.where(owner[te] == p, 1.0, -1.0)[interior],
         (multiplier[te][interior], local[interior])),
        shape=(edges.size, 4 * t))

    a_inv_gt = a_inv @ g.T
    z, w, h = a_inv[slot][:, slot], a_inv_gt[slot], g @ a_inv_gt
    # SpMV and SuperLU sum in stored order: sorted indices fix the rounding
    for m in (z, w, h):
        m.sort_indices()
    return z, w, h


def _factor_multipliers(h):
    """Sparse LU of the SPD multiplier system H in its own order, no
    pivoting."""
    try:
        return spla.splu(h.tocsc(), permc_spec="NATURAL",
                         diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise NumericalError(
            f"multiplier factorization failed: {exc}") from exc


def _k_solve(z, w, h_lu, rhs):
    """K^-1 rhs from the hybridization (Z, W, LU of H)."""
    return z @ rhs - w @ h_lu.solve(w.T @ rhs)


def solve_gevp_iterative(sys, k: int, seed: int = 0):
    """Shift-invert ARPACK variant of solve_gevp acting on the assembled
    system without forming S or factorizing M.

    Returns (values, vectors, fluxes, residuals): values and vectors like
    solve_gevp, the flux sigma_j of each vector as the columns of fluxes,
    and residuals of the scalar row (see EigenPair).  The saddle-point
    block K = [[M, B^T], [B, -C]] is solved through its hybridization (see
    _hybridize): K^-1 r = Z r - W H^-1 W^T r, with H the symmetric positive
    definite system of the interface multipliers, factorized once per level
    by a sparse LU without pivoting in the multipliers' nested-dissection
    order.  Through that factor:

    * ARPACK finds the largest eigenvalues 1/lambda of D^1/2 S^-1 D^1/2,
      applying S^-1 v as the triangle block of K^-1 [0; -v], from a start
      vector drawn from `seed`;
    * one solve K [sigma; v] = [0; -lambda D u] for all pairs, refined
      once with K as a sparse matvec, is an inverse-iteration step; the
      pairs are reported as u = v / ||v||_D with sigma scaled alike, so
      sigma is their flux, and lambda as the Rayleigh quotient
      u^T (C u - B sigma) / u^T D u;
    * the flux row ||M sigma + B^T u|| is checked against FLUX_RTOL, and
      the residual ||C u - B sigma - lambda D u|| against RESIDUAL_RTOL
      times max_j lambda_j / (u_j . u_j) (see _check_eigentriples).

    The iteration budget is 500 per requested eigenvalue; exhausting it is
    an error, never a silent partial result.
    """
    t = sys.num_triangles
    if not (1 <= k <= t - 1):
        raise NumericalError(
            f"iterative path needs 1 <= k <= {t - 1}, got {k}")
    d = sys.D
    ne = sys.num_edges
    z, w, h = _hybridize(sys)
    h_lu = _factor_multipliers(h)
    sqd = np.sqrt(d)
    # the triangle block of K^-1: Z's is diagonal
    z_tri, w_tri = z.diagonal()[ne:], w[ne:]
    w_tri_t = w_tri.T.tocsr()

    def shift_invert(y):
        # D^1/2 S^-1 D^1/2 y; S^-1 v is the triangle block of K^-1 [0; -v]
        v = sqd * np.ravel(y)
        return sqd * (w_tri @ h_lu.solve(w_tri_t @ v) - z_tri * v)

    op = spla.LinearOperator((t, t), matvec=shift_invert, dtype=float)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(t)
    try:
        mu, y = spla.eigsh(op, k=k, which="LM", v0=v0,
                           maxiter=ITER_BUDGET_PER_EIGENVALUE * k)
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(
            f"iterative eigensolver did not converge for k={k}: {exc}"
        ) from exc
    order = np.argsort(mu)[::-1]
    vals = 1.0 / mu[order]
    vecs = y[:, order] / sqd[:, None]
    # one inverse-iteration step K [sigma; v] = [0; -lambda D u] for all
    # pairs, whose flux block is the flux of v.  One step of iterative
    # refinement, with K applied as a sparse matvec, makes the flux row
    # hold to roundoff; what is left of it reaches S v - lambda D v
    # amplified by M^-1.  ARPACK's eigenvalues carry the error of its
    # unrefined solves, so lambda is then taken as the Rayleigh quotient of
    # the refined pair.  On laplace with k = 6 over eight start vectors,
    # the largest scalar-row residual sits 8 times below the bound at
    # n = 128 and 1.1 times at n = 256 without it, and 36-71 and 7-24
    # times below with it.
    k_block = sp.bmat([[sys.M, sys.B.T], [sys.B, -sp.diags(sys.C)]],
                      format="csr")
    rhs = np.zeros((ne + t, k))
    rhs[ne:] = -(d[:, None] * vecs) * vals[None, :]
    sol = _k_solve(z, w, h_lu, rhs)
    sol += _k_solve(z, w, h_lu, rhs - k_block @ sol)
    scale = (np.sqrt(np.sum(d[:, None] * sol[ne:]**2, axis=0))
             * _column_signs(sol[ne:]))
    vecs, sigmas = sol[ne:] / scale[None, :], sol[:ne] / scale[None, :]
    vals = (np.sum(vecs * (sys.C[:, None] * vecs - sys.B @ sigmas), axis=0)
            / np.sum(d[:, None] * vecs**2, axis=0))
    order = np.argsort(vals, kind="stable")
    vals, vecs, sigmas = vals[order], vecs[:, order], sigmas[:, order]
    residuals = _check_eigentriples(sys, vals, vecs, sigmas)
    return vals, vecs, sigmas, residuals


def _check_eigentriples(sys, vals, vecs, sigmas):
    """Residuals of eigentriples (lambda_j, u_j, sigma_j), columns of vecs
    and sigmas; raises NumericalError naming the first pair that fails.

    The flux rows must hold (see _check_flux_rows).  C u - B sigma is then
    S u up to B M^-1 times the flux row, and the residual
    ||C u - B sigma - lambda D u|| must stay below RESIDUAL_RTOL times
    max_j lambda_j / (u_j . u_j), a Rayleigh quotient of S and so a lower
    bound on its norm.
    """
    _check_flux_rows(sys, vecs, sigmas)
    residuals = _residuals(sys.C[:, None] * vecs - sys.B @ sigmas,
                           sys.D[:, None] * vecs, vals)
    s_norm = max(float(vals[j] / (vecs[:, j] @ vecs[:, j]))
                 for j in range(len(vals)))
    _check_residuals(residuals, s_norm)
    return residuals


def _check_flux_rows(sys, vecs, sigmas):
    """Raise NumericalError naming the first pair j whose flux row
    ||M sigma_j + B^T u_j|| exceeds FLUX_RTOL * ||B^T u_j||."""
    bt_u = sys.B.T @ vecs
    flux = np.linalg.norm(sys.M @ sigmas + bt_u, axis=0)
    rhs_norm = np.linalg.norm(bt_u, axis=0)
    bad = np.flatnonzero(~(flux <= FLUX_RTOL * rhs_norm))
    if bad.size:
        j = int(bad[0])
        raise NumericalError(
            f"eigenpair {j} flux residual {flux[j]:g} exceeds "
            f"{FLUX_RTOL:g} * {rhs_norm[j]:g}")


def recover_flux(vecs: np.ndarray, sys, solve) -> np.ndarray:
    """Fluxes sigma_j = -M^-1 B^T u_j of the columns u_j of vecs, in one
    solve with all of them as right-hand sides.

    `solve` applies M^-1, as returned by flux_mass_solver.  The flux rows
    must hold (see _check_flux_rows).
    """
    sigmas = -solve(sys.B.T @ vecs)
    _check_flux_rows(sys, vecs, sigmas)
    return sigmas


def solve_mixed_eigenproblem(mesh, sys, k: int, method: str = "dense",
                             seed: int = 0) -> EigenResult:
    """Solve for the k smallest eigenpairs and recover fluxes.

    `method` is "dense" (Schur complement plus a dense symmetric solver, for
    at most DENSE_MAX_TRIANGLES triangles) or "iterative" (shift-invert
    ARPACK).
    """
    if method == "dense":
        if sys.num_triangles > DENSE_MAX_TRIANGLES:
            raise NumericalError(
                f"{sys.num_triangles} triangles are more than the "
                f"{DENSE_MAX_TRIANGLES} the dense solver can hold; use the "
                f"iterative method")
        solve = flux_mass_solver(sys.M)
        vals, vecs, residuals = solve_gevp(schur_complement(sys, solve),
                                           sys.D, k)
        fluxes = recover_flux(vecs, sys, solve)
    elif method == "iterative":
        vals, vecs, fluxes, residuals = solve_gevp_iterative(sys, k, seed)
    else:
        raise NumericalError(f"unknown solver method {method!r}")
    pairs = [
        EigenPair(lambda_h=float(vals[j]), u=vecs[:, j], sigma=fluxes[:, j],
                  residual=float(residuals[j]))
        for j in range(k)
    ]
    return EigenResult(n=mesh.n, h=mesh.h, num_edges=sys.num_edges,
                       num_triangles=sys.num_triangles, pairs=pairs)

"""Eigenvalue solver for the discrete mixed problem.

The saddle-point system

    M sigma + B^T u = 0
    B sigma - C u   = -lambda D u

is reduced by eliminating the flux: S = B M^-1 B^T + C is symmetric positive
definite and S u = lambda D u has exactly the finite eigenvalues of the full
block pencil.  The dense path forms S explicitly and diagonalizes the
similarity transform D^-1/2 S D^-1/2.  The iterative path never forms S nor
factorizes M: one sparse LU of the block matrix K = [[M, B^T], [B, -C]],
its unknowns in the mesh's nested-dissection order, applies S^-1 for
shift-invert ARPACK and then gives the fluxes and the residuals of the
eigentriples.
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

# Above this edge count M is factorized sparsely instead of densely.
DENSE_FACTOR_LIMIT = 4096

ITER_BUDGET_PER_EIGENVALUE = 500


class NumericalError(Exception):
    """Factorization failure, non-convergence, or violated residual bound."""


@dataclass
class EigenPair:
    """One discrete eigentriple.

    `u` is normalized to u^T D u = 1 with its largest-magnitude entry
    positive; `sigma` solves M sigma = -B^T u.  `residual` is the 2-norm of
    S u - lambda D u on the dense path.  The iterative path does not apply S
    and reports the 2-norm of C u - B sigma - lambda D u instead, the scalar
    row of the saddle-point system; it differs from S u - lambda D u by
    B M^-1 (M sigma + B^T u), the image of the flux row's residual, which
    is checked against FLUX_RTOL.
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
    """Factorize the SPD flux mass matrix once; return a dense solve.

    Small systems use a dense Cholesky factorization (which also certifies
    positive definiteness); larger ones a sparse LU.
    """
    ne = M.shape[0]
    if ne <= DENSE_FACTOR_LIMIT:
        try:
            factor = la.cho_factor(M.toarray())
        except la.LinAlgError as exc:
            raise NumericalError(
                f"flux mass matrix is not positive definite: {exc}") from exc
        return lambda rhs: la.cho_solve(factor, rhs)
    try:
        lu = spla.splu(M.tocsc())
    except RuntimeError as exc:
        raise NumericalError(
            f"flux mass factorization failed: {exc}") from exc
    return lambda rhs: lu.solve(np.asarray(rhs))


def schur_complement(sys) -> np.ndarray:
    """Dense Schur complement S = B M^-1 B^T + C of the mixed system.

    Uses one factorization of M and one triangular solve per triangle
    column of B^T.  Raises NumericalError if M is not positive definite or
    the result is not symmetric to within tolerance.
    """
    solve = sys.solve_flux_mass
    bt = sys.B.T.tocsc()
    s = np.empty((sys.num_triangles, sys.num_triangles))
    # densify and solve one column chunk of B^T at a time to bound peak
    # memory on fine meshes
    chunk = max(1, min(sys.num_triangles, (1 << 22) // max(sys.num_edges, 1)))
    for lo in range(0, sys.num_triangles, chunk):
        hi = min(lo + chunk, sys.num_triangles)
        s[:, lo:hi] = sys.B @ solve(bt[:, lo:hi].toarray())
    s[np.diag_indices_from(s)] += sys.C
    scale = float(np.abs(s).max())
    asym = float(np.abs(s - s.T).max())
    if asym > SCHUR_SYM_RTOL * scale:
        raise NumericalError(
            f"Schur complement asymmetry {asym:g} exceeds "
            f"{SCHUR_SYM_RTOL:g} * {scale:g}")
    return 0.5 * (s + s.T)


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
    """
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


def _residuals(sv, dv, vals):
    return np.linalg.norm(sv - dv * vals[None, :], axis=0)


def _check_residuals(residuals, s_norm):
    bound = RESIDUAL_RTOL * s_norm
    worst = float(residuals.max())
    if worst > bound:
        bad = int(np.argmax(residuals))
        raise NumericalError(
            f"eigenpair {bad} residual {worst:g} exceeds bound {bound:g}")


def solve_gevp_iterative(sys, k: int, seed: int = 0):
    """Shift-invert ARPACK variant of solve_gevp acting on the assembled
    system without forming S or factorizing M.

    Returns (values, vectors, residuals) like solve_gevp.  One sparse LU of
    the saddle-point block K = [[M, B^T], [B, -C]] serves the whole solve.
    K's rows and columns are taken in the nested-dissection order of
    `sys.order`, and SuperLU keeps that column order, pivoting rows only.
    Through that factor:

    * ARPACK finds the largest eigenvalues 1/lambda of D^1/2 S^-1 D^1/2,
      applying S^-1 v as the triangle block of K^-1 [0; -v], from a start
      vector drawn from `seed`;
    * two solves K [sigma; w] = [0; -lambda D u] for all pairs, each
      refined once, are two inverse-iteration steps; the pairs are
      reported as u = w / ||w||_D with sigma scaled alike, so sigma is
      their flux;
    * the flux row ||M sigma + B^T u|| is checked against FLUX_RTOL, and
      the residual ||C u - B sigma - lambda D u|| against RESIDUAL_RTOL
      times max_j lambda_j / (u_j . u_j) (see _check_eigentriples).

    The iteration budget is 500 per requested eigenvalue; exhausting it is
    an error, never a silent partial result.
    """
    vals, vecs, _, residuals = _iterative_eigentriples(sys, k, seed)
    return vals, vecs, residuals


def _iterative_eigentriples(sys, k, seed):
    """(values, vectors, fluxes, residuals) of solve_gevp_iterative."""
    t = sys.num_triangles
    if not (1 <= k <= t - 1):
        raise NumericalError(
            f"iterative path needs 1 <= k <= {t - 1}, got {k}")
    d = sys.D
    ne = sys.num_edges
    # K with its unknowns in nested-dissection order; unknown i (edges,
    # then triangles) sits at row and column at[i]
    k_block = sp.bmat([[sys.M, sys.B.T], [sys.B, -sp.diags(sys.C)]],
                      format="csc")[sys.order][:, sys.order]
    at = np.empty_like(sys.order)
    at[sys.order] = np.arange(ne + t)
    try:
        k_lu = spla.splu(k_block, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise NumericalError(
            f"saddle-point factorization failed: {exc}") from exc

    edge_at, tri_at = at[:ne], at[ne:]
    sqd = np.sqrt(d)

    def shift_invert(y):
        # D^1/2 S^-1 D^1/2 y; S^-1 v is the triangle block of K^-1 [0; -v]
        rhs = np.zeros(ne + t)
        rhs[tri_at] = -sqd * np.ravel(y)
        return sqd * k_lu.solve(rhs)[tri_at]

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
    # inverse-iteration steps K [sigma; w] = [0; -lambda D u] for all
    # pairs, whose flux block is the flux of w.  One step of iterative
    # refinement of each solve makes the flux row hold to roundoff; what is
    # left of it reaches S w - lambda D w amplified by M^-1.  The second
    # step takes out what the first leaves of the error that ARPACK's
    # unrefined solves put into its vectors: on laplace at n = 256, over
    # eight start vectors, the largest scalar-row residual is 1.2e-14 to
    # 3.1e-14 after one step and 1.8e-15 to 6.4e-15 after two, against a
    # bound of 6.0e-14.
    rhs = np.zeros((ne + t, k))
    for _ in range(2):
        rhs[tri_at] = -(d[:, None] * vecs) * vals[None, :]
        sol = k_lu.solve(rhs)
        sol += k_lu.solve(rhs - k_block @ sol)
        w = sol[tri_at]
        scale = (np.sqrt(np.sum(d[:, None] * w**2, axis=0))
                 * _column_signs(w))
        vecs, sigmas = w / scale[None, :], sol[edge_at] / scale[None, :]
    residuals = _check_eigentriples(sys, vals, vecs, sigmas)
    return vals, vecs, sigmas, residuals


def _check_eigentriples(sys, vals, vecs, sigmas):
    """Residuals of eigentriples (lambda_j, u_j, sigma_j), columns of vecs
    and sigmas; raises NumericalError naming the first pair that fails.

    The flux row ||M sigma + B^T u|| must stay below FLUX_RTOL * ||B^T u||,
    as in recover_flux.  C u - B sigma is then S u up to B M^-1 times the
    flux row, and the residual ||C u - B sigma - lambda D u|| must stay
    below RESIDUAL_RTOL times max_j lambda_j / (u_j . u_j), a Rayleigh
    quotient of S and so a lower bound on its norm.
    """
    bt_u = sys.B.T @ vecs
    flux = np.linalg.norm(sys.M @ sigmas + bt_u, axis=0)
    rhs_norm = np.linalg.norm(bt_u, axis=0)
    bad = np.flatnonzero(flux > FLUX_RTOL * rhs_norm)
    if bad.size:
        j = int(bad[0])
        raise NumericalError(
            f"eigenpair {j} flux residual {flux[j]:g} exceeds "
            f"{FLUX_RTOL:g} * {rhs_norm[j]:g}")
    residuals = _residuals(sys.C[:, None] * vecs - sys.B @ sigmas,
                           sys.D[:, None] * vecs, vals)
    s_norm = max(float(vals[j] / (vecs[:, j] @ vecs[:, j]))
                 for j in range(len(vals)))
    _check_residuals(residuals, s_norm)
    return residuals


def recover_flux(u: np.ndarray, sys) -> np.ndarray:
    """Back-substitute sigma = -M^-1 B^T u, reusing the mass factorization.

    The defining residual ||M sigma + B^T u|| must stay below FLUX_RTOL
    times ||B^T u||.
    """
    rhs = sys.B.T @ u
    sigma = -sys.solve_flux_mass(rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm > 0:
        res = float(np.linalg.norm(sys.M @ sigma + rhs))
        if res > FLUX_RTOL * rhs_norm:
            raise NumericalError(
                f"flux recovery residual {res:g} exceeds "
                f"{FLUX_RTOL:g} * {rhs_norm:g}")
    return sigma


def solve_mixed_eigenproblem(mesh, sys, k: int, method: str = "dense",
                             seed: int = 0) -> EigenResult:
    """Solve for the k smallest eigenpairs and recover fluxes.

    `method` is "dense" (Schur complement plus a dense symmetric solver) or
    "iterative" (shift-invert ARPACK).
    """
    if method == "dense":
        s = schur_complement(sys)
        vals, vecs, residuals = solve_gevp(s, sys.D, k)
        sigmas = [recover_flux(vecs[:, j], sys) for j in range(k)]
    elif method == "iterative":
        vals, vecs, fluxes, residuals = _iterative_eigentriples(
            sys, k, seed)
        sigmas = list(fluxes.T)
    else:
        raise NumericalError(f"unknown solver method {method!r}")
    pairs = [
        EigenPair(lambda_h=float(vals[j]), u=vecs[:, j], sigma=sigmas[j],
                  residual=float(residuals[j]))
        for j in range(k)
    ]
    return EigenResult(n=mesh.n, h=mesh.h, num_edges=sys.num_edges,
                       num_triangles=sys.num_triangles, pairs=pairs)

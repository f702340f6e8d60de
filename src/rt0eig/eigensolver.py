"""Eigenvalue solver for the discrete mixed problem.

The saddle-point system

    M sigma + B^T u = 0
    B sigma - C u   = -lambda D u

is reduced by eliminating the flux: S = B M^-1 B^T + C is symmetric positive
definite and S u = lambda D u has exactly the finite eigenvalues of the full
block pencil.  The dense path, for levels of at most DENSE_MAX_TRIANGLES
triangles, factorizes M = U^T U once per level within its band: M is
banded in the mesh's edge order, and a Cholesky factor keeps the band of
its matrix, so U is block-bidiagonal and is kept as the dense blocks its
block Cholesky computes; neither M nor U is ever a full E x E array.  S
is formed a block of columns at a time: a forward and a backward block
sweep overwrite those columns of B^T by M^-1 B^T in place, B times them
gives S's columns on and below the diagonal, and S is mirrored, so it is
exactly symmetric; M^-1 B^T is never held whole.  The dense path
diagonalizes the similarity transform D^-1/2 S D^-1/2 in S's own storage
from one triangle and forms the residuals from the other, so an
asymmetric S fails the residual check rather than being averaged, and a
non-finite S is rejected by name.  The same sweeps with k right-hand
sides recover the fluxes of all pairs.  The iterative path,
solve_gevp_iterative, never forms S nor factorizes M or the block matrix
K = [[M, B^T], [B, -C]].  It hybridizes K (Arnold and Brezzi, M2AN 19,
1985): the flux space is broken triangle by triangle, one multiplier per
interior edge makes the normal flux continuous, and the flux and the
scalar are eliminated element by element through the block diagonal
inverse A^-1 of the element blocks.  With G the jump map from the element
slots to the multipliers, K^-1 = Z - W H^-1 W^T, where Z and W are A^-1
and A^-1 G^T restricted to K's unknowns and H = G A^-1 G^T is a symmetric
positive definite system on the interior edges with at most 5 entries per
row.  The owner of each edge's unknown and the two sides G joins come from
the mesh's `edge_sides`, so no edge numbering is assumed.  The three are
gathered row by row from the (T, 4, 4) local inverses, without forming
A^-1, G or any product: bit for bit the entries of the sparse products,
less any exact zeros.  One sparse LU of H per level, in the
nested-dissection order of the mesh that the iterative path takes with
its system, and without pivoting, applies S^-1 for shift-invert ARPACK
and then gives the fluxes of the eigentriples; their refinement applies
K through its blocks M, B^T, B and C, so K is never assembled either.  H
is released once factorized, and the triangle block of K^-1 that ARPACK
applies once ARPACK returns.  Up to a sign and the edge length, the
multipliers approximate the scalar's trace on the interior edges, from
which Arnold and Brezzi post-process it.
"""

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import as_integer, nested_dissection_order

# Residual and orthonormality contracts.
RESIDUAL_RTOL = 1e-10
FLUX_RTOL = 1e-11

# The dense path holds the blocks of M's Cholesky factor, S (T x T) as a full
# array, which it diagonalizes in its own storage (see solve_gevp), and one
# block of b columns of M^-1 B^T (E x b) and of S (T x b) at a time.  At 2048
# triangles (n = 32, b = 127) S takes 32 MiB, the 49 blocks of the factor
# 6 MiB and the two column blocks 5 MiB; at n = 64 S alone would take
# 512 MiB.
DENSE_MAX_TRIANGLES = 2048

ITER_BUDGET_PER_EIGENVALUE = 500


class NumericalError(Exception):
    """Factorization failure, non-convergence or violated residual
    bound."""


def check_request(method: str, num_triangles: int, k: int, seed: int = 0):
    """Raise NumericalError unless solver `method` takes k eigenpairs of a
    level of num_triangles triangles from start vector `seed`: the one home
    of the solver limits.  k and seed must be integers (see as_integer)."""
    if method not in ("dense", "iterative"):
        raise NumericalError(
            f"solver must be 'dense' or 'iterative', got {method!r}")
    for name, v in (("k", k), ("seed", seed)):
        try:
            as_integer(v)
        except TypeError:
            raise NumericalError(
                f"{name} must be an integer, got {v!r}") from None
    if method == "dense" and num_triangles > DENSE_MAX_TRIANGLES:
        raise NumericalError(f"{num_triangles} triangles are more than the "
                             f"{DENSE_MAX_TRIANGLES} the dense solver can "
                             "hold; use solver = iterative")
    max_k = num_triangles if method == "dense" else num_triangles - 1
    if not 1 <= k <= max_k:
        dense_takes_it = (k == num_triangles
                          and num_triangles <= DENSE_MAX_TRIANGLES)
        raise NumericalError(
            f"k must be between 1 and {max_k} for the {method} solver on "
            f"{num_triangles} triangles, got {k}"
            + (f"; solver = dense takes k = {k}" if dense_takes_it else ""))
    if seed < 0:
        raise NumericalError(f"seed must be >= 0, got {seed}")


@dataclass
class EigenResult:
    """The k smallest eigentriples of one mesh level, ascending by
    eigenvalue, as the arrays solve_gevp and recover_flux return on the
    dense path, or solve_gevp_iterative on the iterative one.

    Column j of `vectors` (T, k) is u_j, normalized to u^T D u = 1 with its
    first entry within a relative 1e-8 of its largest magnitude positive
    (see _column_signs); column j of `fluxes` (E, k) is sigma_j, which
    solves M sigma = -B^T u.  `residuals` (k,) holds the 2-norms of
    S u - lambda D u on the dense path, formed from the triangle of
    W = D^-1/2 S D^-1/2 that is left in S's storage after the eigensolver
    overwrote it (see solve_gevp).  The iterative path does not
    apply S and reports the 2-norms of C u - B sigma - lambda D u instead,
    the scalar row of the saddle-point system; they differ from
    S u - lambda D u by B M^-1 (M sigma + B^T u), the image of the flux
    row's residual, which is checked against FLUX_RTOL.  Its `eigenvalues`
    are the Rayleigh quotients u^T (C u - B sigma) / u^T D u of the
    reported u and sigma, not ARPACK's Ritz values.
    """

    n: int
    h: float
    num_edges: int
    num_triangles: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    fluxes: np.ndarray
    residuals: np.ndarray


def flux_mass_factor(M: sp.csr_matrix) -> list:
    """Cholesky factor U (M = U^T U) of the SPD flux mass matrix: the list
    [(U_11, U_12), ..., (U_LL, None)] of its blocks of b rows (the last may
    have fewer), which _solve_in_place reads.  Below its diagonal each U_II
    still holds entries of M, which no sweep reads.

    M is banded in the mesh's edge order, with bandwidth w (127 at n = 32),
    and a Cholesky factor keeps the band of its matrix (George and Liu,
    1981).  With b = max(w, 16) (at least 16, so that a narrow band does not
    take many tiny calls), U is block-bidiagonal:

        U_II = chol(M_II - U_(I-1)I^T U_(I-1)I),  U_I(I+1) = U_II^-T M_I(I+1),

    by cho_factor, which also certifies positive definiteness, dtrsm and
    dsyrk on dense b x b slices of M: M is never an E x E array.  Raises
    NumericalError naming the row of M whose pivot is not positive.
    """
    coo = M.tocoo()
    block = max(int((coo.col - coo.row).max(initial=0)), 16)
    e, factor = M.shape[0], []
    # the diagonal block of the next rows, updated by the coupling block
    diag = M[:block, :block].toarray(order="F")
    for lo in range(0, e, block):
        hi, nxt = min(lo + block, e), min(lo + 2 * block, e)
        try:
            u, _ = la.cho_factor(diag, overwrite_a=True)
        except la.LinAlgError as exc:
            minor = re.match(r"\d+", str(exc))
            where = (f"row {lo + int(minor[0]) - 1}" if minor
                     else f"rows {lo} to {hi - 1}")
            raise NumericalError(
                f"flux mass matrix is not positive definite at {where}"
            ) from exc
        if hi == e:
            factor.append((u, None))
            break
        coupling = la.blas.dtrsm(1.0, u, M[lo:hi, hi:nxt].toarray(order="F"),
                                 trans_a=1, overwrite_b=True)
        factor.append((u, coupling))
        diag = la.blas.dsyrk(-1.0, coupling, beta=1.0,
                             c=M[hi:nxt, hi:nxt].toarray(order="F"), trans=1,
                             overwrite_c=True)
    return factor


def flux_mass_solver(factor: list):
    """The solve with M through the blocks of its Cholesky factor, as
    flux_mass_factor returns them.

    The solve takes one right-hand side or a column block of them and
    leaves them unchanged: a C-ordered copy goes through _solve_in_place.
    It checks only the right-hand side for infs and NaNs, raising
    ValueError: cho_factor checked M.
    """
    def solve(rhs):
        x = np.array(np.asarray_chkfinite(rhs), dtype=float, order="C")
        _solve_in_place(factor, x.reshape(x.shape[0], -1))
        return x

    return solve


def schur_complement(sys, factor: list) -> np.ndarray:
    """Dense Schur complement S = B M^-1 B^T + C of the mixed system.

    `factor` holds the blocks of M's Cholesky factor (see
    flux_mass_factor).  S is filled b columns at a time, b the factor's
    block size: those columns of B^T are densified and overwritten by
    Y = M^-1 B^T (_solve_in_place), and B Y plus C gives S's rows on and
    below the diagonal.  Those columns of B^T, and the rows of B from the
    block's first triangle on, have no entry above the first edge of those
    triangles, the least column in their rows of B, so the sweeps start at
    its block.  Each block is checked, and S is then mirrored, so it is
    exactly symmetric, in C order.  Raises NumericalError naming the first
    column of S that is not finite.
    """
    t, block = sys.num_triangles, factor[0][0].shape[0]
    # first[c]: the block of the first edge of triangles c, c + 1, ...
    first = np.minimum.accumulate(np.minimum.reduceat(
        sys.B.indices, sys.B.indptr[:-1])[::-1])[::-1] // block
    s = np.empty((t, t))
    for lo in range(0, t, block):
        hi, start = min(lo + block, t), first[lo]
        y = sys.B[lo:hi].T.toarray(order="C")
        _solve_in_place(factor[start:], y[start * block:])
        cols, diag = s[lo:, lo:hi], np.arange(lo, hi)
        cols[...] = sys.B[lo:] @ y
        s[diag, diag] += sys.C[lo:hi]
        bad = np.flatnonzero(~np.isfinite(cols).all(axis=0))
        if bad.size:
            raise NumericalError(
                f"Schur complement column {lo + bad[0]} is not finite")
    _mirror_lower(s)
    return s


def _solve_in_place(factor, x):
    """Overwrite x, C-ordered with a row per edge, by M^-1 x, with `factor`
    the blocks of U (see flux_mass_factor) or a trailing part of them, and
    x the rows they cover.

    From the first block down, X_I = U_II^-T (X_I - U_(I-1)I^T X_(I-1)),
    and then from the last block up, X_I = U_II^-1 (X_I - U_I(I+1) X_(I+1)).
    A block of rows of x is contiguous, and its transpose is the
    Fortran-ordered array that dgemm and dtrsm update in place, in scipy's
    BLAS alone: numpy loads an OpenBLAS of its own, and alternating between
    the two is slow.
    """
    block = factor[0][0].shape[0]
    xt = [x[lo:lo + block].T for lo in range(0, x.shape[0], block)]
    for i, (u, _) in enumerate(factor):
        if i:
            la.blas.dgemm(-1.0, xt[i - 1], factor[i - 1][1], beta=1.0,
                          c=xt[i], overwrite_c=True)
        la.blas.dtrsm(1.0, u, xt[i], side=1, overwrite_b=True)
    for i, (u, coupling) in reversed(list(enumerate(factor))):
        if coupling is not None:
            la.blas.dgemm(-1.0, xt[i + 1], coupling, beta=1.0, c=xt[i],
                          trans_b=1, overwrite_c=True)
        la.blas.dtrsm(1.0, u, xt[i], side=1, trans_a=1, overwrite_b=True)


def _mirror_lower(a):
    """Copy the lower triangle of the square array a onto its upper one,
    a block row at a time, so that the temporaries are a few blocks."""
    n, block = a.shape[0], 256
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diag = a[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        diag[upper] = diag.T[upper]
        a[lo:hi, hi:] = a[hi:, lo:hi].T


def _column_signs(vecs: np.ndarray) -> np.ndarray:
    """+1 or -1 per column, the sign of its first entry within a relative
    1e-8 of its largest magnitude: a mode with entries +-a at mirrored
    triangles must not leave the sign to rounding."""
    mags = np.abs(vecs)
    idx = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=0), axis=0)
    return np.where(vecs[idx, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)


def solve_gevp(S: np.ndarray, D: np.ndarray, k: int):
    """k smallest eigenpairs of S u = lambda D u, D diagonal positive.

    Returns (values, vectors, residuals) with values ascending, vectors
    D-orthonormal columns with the sign convention applied, and residuals
    the 2-norms of S u - lambda D u.  The residual bound is checked against
    RESIDUAL_RTOL times the Frobenius norm of S.  S must be finite and
    symmetric, as schur_complement builds it: a NaN or inf raises
    NumericalError naming the first non-finite column, and an asymmetric
    S fails the residual bound.  k and the size of S must be within the
    dense path's limits (see check_request).

    S is overwritten: it is scaled in place to W = D^-1/2 S D^-1/2 and
    handed to the eigensolver in Fortran order, which reads one triangle
    of it and destroys that triangle and the diagonal.  The diagonal is
    saved and written back, so the other triangle still holds W, and the
    residuals are formed from it as ||D^1/2 (W y - lambda y)|| for the
    eigenvectors y of W; that is S u - lambda D u up to rounding.
    """
    check_request("dense", S.shape[0], k)
    d = np.asarray(D, dtype=float)
    if not np.all(d > 0):
        raise NumericalError("weight mass diagonal must be positive")
    # the one finiteness check of S: its norm is NaN or inf if an entry is
    with np.errstate(over="ignore"):
        s_norm = np.linalg.norm(S)
    if not np.isfinite(s_norm):
        bad = np.flatnonzero(~np.isfinite(S).all(axis=0))
        raise NumericalError(f"S column {bad[0]} is not finite" if bad.size
                             else "the norm of S overflows")
    sqd = np.sqrt(d)
    rsq = 1.0 / sqd
    S *= rsq[:, None]
    S *= rsq[None, :]
    # S.T holds W in Fortran order.  eigh reads and overwrites its lower
    # triangle and diagonal; with the diagonal written back, dsymm reads W
    # from the diagonal and the upper triangle, so the residuals see any
    # asymmetry of S that eigh did not
    w, diag = S.T, S.diagonal().copy()
    vals, y = la.eigh(w, overwrite_a=True, check_finite=False,
                      subset_by_index=(0, k - 1))
    np.fill_diagonal(w, diag)
    wy = la.blas.dsymm(1.0, w, y, lower=0)
    residuals = _residuals(sqd[:, None] * wy, sqd[:, None] * y, vals)
    _check_residuals(residuals, s_norm)
    u = rsq[:, None] * y
    return vals, u * _column_signs(u), residuals


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


def _hybridize(mesh, sys):
    """Sparse (Z, W, H) such that K^-1 r = Z r - W H^-1 W^T r.

    The flux space is broken triangle by triangle, and the normal flux of
    each interior edge is made continuous by one multiplier.  Triangle t
    has four local slots 4t..4t+3: the fluxes of its local edges and its
    scalar.  A^-1 is the block diagonal inverse of the local blocks
    [[M_T, L_T^T], [L_T, -c_T]] (M_T from m_vals, L_T from div_vals).  Each
    unknown of K has one slot: a triangle's scalar its own, and an edge's
    flux that of its owner, the first of its `edge_sides` in the mesh,
    which also gives its sigma back.  The jump map G takes the owner's slot
    minus the other side's to the multipliers, numbered in the mesh's
    nested_dissection_order of its interior edges.  Then

        Z = A^-1 restricted to the slots of K,
        W = A^-1 G^T restricted to the slots of K,   H = G A^-1 G^T.

    None of A^-1, G or their products is formed: each matrix is gathered
    row by row from the (T, 4, 4) local inverses.  The row of an unknown in
    Z is its slot's row of its triangle's inverse, at the unknowns of that
    triangle, and in W the same row at the multipliers of the triangle's
    interior edges, each times that edge's sign in G.  The row of a
    multiplier in H is the sum of such rows of its two slots, each times
    its own sign.  The entries are the ones the sparse products give, bit
    for bit, and all three leave out exact zeros, as a product does.

    H couples the interior edges of one triangle, so it has at most 5
    entries per row, and it is symmetric positive definite.
    """
    t, ne = sys.num_triangles, sys.num_edges
    inv = _local_inverses(sys)
    # every index and entry count is below 16 T
    index = np.int32 if 16 * t < np.iinfo(np.int32).max else np.int64
    # local edge p = 3t + i has slot 4t + i = p + t, and its sign in G is
    # +1 if it is its edge's owner, -1 if the neighbour
    owner = mesh.edge_sides[:, 0]
    sign = np.full(3 * t, -1, dtype=np.int8)
    sign[owner] = 1
    # per triangle: the unknowns of its slots (-1 where another triangle
    # owns the edge), and the multipliers of its edges (-1 on the boundary)
    unknown = np.full((t, 4), -1, dtype=index)
    unknown[:, 3] = np.arange(ne, ne + t)
    unknown.ravel()[owner + owner // 3] = np.arange(ne)
    order = nested_dissection_order(mesh)
    multiplier = np.full(ne, -1, dtype=index)
    multiplier[order] = np.arange(order.size)
    mult = multiplier.take(mesh.triangle_edges)
    sign3 = sign.reshape(t, 3)
    rows = inv.reshape(4 * t, 4)

    # Temporaries go as soon as they are spent, and H, whose are the
    # largest, is built while only the inverses are alive: at n = 512 this
    # holds the traced peak to 257 MiB, against 464 MiB for the products.
    # H: the two slots of each multiplier, its owner's and its neighbour's
    pos = mesh.edge_sides.take(order, axis=0)
    tri = pos // 3
    vals = rows.take(pos + tri, axis=0)[:, :, :3] * sign3.take(tri, axis=0)
    vals *= sign.take(pos)[:, :, None]
    cols = mult.take(tri, axis=0)
    del pos, tri
    h = _csr_from_rows(vals.reshape(-1, 6), cols.reshape(-1, 6),
                       (order.size, order.size))
    del vals, cols

    # Z and W: the rows of the unknowns of K, the edges' then the scalars'
    slot = np.concatenate([owner + owner // 3, 4 * np.arange(t) + 3])
    tri = slot // 4
    vals = rows.take(slot, axis=0)
    del inv, rows, slot
    w = _csr_from_rows(vals[:, :3] * sign3.take(tri, axis=0),
                       mult.take(tri, axis=0), (ne + t, order.size))
    z = _csr_from_rows(vals, unknown.take(tri, axis=0), (ne + t, ne + t))
    return z, w, h


def _local_inverses(sys):
    """(T, 4, 4) inverses of the local blocks [[M_T, L_T^T], [L_T, -c_T]],
    symmetrized; raises NumericalError naming a singular block."""
    t = sys.num_triangles
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
    # symmetrized into `blocks`, which is dead once inverted
    np.add(inv, inv.transpose(0, 2, 1), out=blocks)
    blocks *= 0.5
    return blocks


def _csr_from_rows(vals, cols, shape):
    """CSR matrix whose row r holds vals[r, j] at column cols[r, j] for
    every j with cols[r, j] >= 0, duplicates summed, indices sorted and
    exact zeros left out."""
    keep = (cols >= 0) & (vals != 0)
    indptr = np.zeros(shape[0] + 1, dtype=cols.dtype)
    for column in keep.T:
        indptr[1:] += column
    np.cumsum(indptr, out=indptr)
    m = sp.csr_matrix((vals[keep], cols[keep], indptr), shape=shape)
    # SpMV and SuperLU sum in stored order: sorted indices fix the rounding
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def _factor_multipliers(h):
    """Sparse LU of the SPD multiplier system H in its own order, no
    pivoting.

    H is symmetric, so h.T, which shares h's arrays, is H in CSC: SuperLU
    gets the same arrays as from h.tocsc() without a copy of them.

    The panels are 4 columns wide, not SuperLU's default: its panel work
    arrays grow with the panel width times the rows of H (Demmel et al.,
    SIAM J. Matrix Anal. Appl. 20, 1999).  In a laplace study, after the
    level at n = 128, the default width raised VmHWM 31 MiB above what the
    factor keeps at n = 256, the peak of the whole level; at 4 it rises by
    what the factor keeps.  The fill is the same, and the factor at
    n = 512 takes 1.30-1.44 s instead of 1.66-1.74 s.  `relax=4` alone
    left the 31 MiB.

    A singular H is a RuntimeError; SuperLU reports running out of memory as
    a SystemError ("gstrf was called with invalid arguments") or a
    MemoryError.  All three are a NumericalError of the level.
    """
    try:
        return spla.splu(h.T, permc_spec="NATURAL",
                         diag_pivot_thresh=0.0, panel_size=4,
                         options=dict(SymmetricMode=True))
    except (RuntimeError, SystemError, MemoryError) as exc:
        raise NumericalError(f"multiplier factorization failed: "
                             f"{type(exc).__name__}: {exc}") from exc


def _k_solve(z, w, h_lu, rhs):
    """K^-1 rhs from the hybridization (Z, W, LU of H)."""
    return z @ rhs - w @ h_lu.solve(w.T @ rhs)


def solve_gevp_iterative(mesh, sys, k: int, seed: int = 0):
    """Shift-invert ARPACK variant of solve_gevp acting on the assembled
    system of `mesh` without forming S or factorizing M.

    Returns (values, vectors, fluxes, residuals): values and vectors like
    solve_gevp, the flux sigma_j of each vector as the columns of fluxes,
    and residuals of the scalar row (see EigenResult).  The saddle-point
    block K = [[M, B^T], [B, -C]] is solved through its hybridization (see
    _hybridize): K^-1 r = Z r - W H^-1 W^T r, with H the symmetric positive
    definite system of the interface multipliers, factorized once per level
    by a sparse LU without pivoting in the mesh's nested-dissection order
    of its interior edges.  Through that factor:

    * ARPACK finds the largest eigenvalues 1/lambda of D^1/2 S^-1 D^1/2,
      applying S^-1 v as the triangle block of K^-1 [0; -v], from a start
      vector drawn from `seed`;
    * one solve K [sigma; v] = [0; -lambda D u] for all pairs, refined
      once with K applied through its blocks M, B^T, B and C, which are
      never assembled into K, is an inverse-iteration step; the
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
    check_request("iterative", t, k, seed)
    d = sys.D
    ne = sys.num_edges
    z, w, h = _hybridize(mesh, sys)
    h_lu = _factor_multipliers(h)
    # the factor holds what the solves need of H
    del h
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
    # the triangle block of K^-1 served ARPACK alone
    del op, shift_invert, z_tri, w_tri, w_tri_t
    vals, vecs = 1.0 / mu, y / sqd[:, None]
    # one inverse-iteration step K [sigma; v] = [0; -lambda D u] for all
    # pairs, whose flux block is the flux of v.  One step of iterative
    # refinement, with K applied through its blocks, makes the flux row
    # hold to roundoff; what is left of it reaches S v - lambda D v
    # amplified by M^-1.  ARPACK's eigenvalues carry the error of its
    # unrefined solves, so lambda is then taken as the Rayleigh quotient of
    # the refined pair.  On laplace with k = 6 over seeds 0-7, the bound
    # over the largest scalar-row residual is 1.73-1.75 at n = 128 and 0.22
    # at n = 256 without it, which fails the check, and 34-87 and 12.9-21.0
    # with it.
    rhs = np.zeros((ne + t, k))
    rhs[ne:] = -(d[:, None] * vecs) * vals[None, :]
    sol = _k_solve(z, w, h_lu, rhs)
    # rhs - K sol, in rhs's storage
    rhs[:ne] -= sys.M @ sol[:ne] + sys.B.T @ sol[ne:]
    rhs[ne:] -= sys.B @ sol[:ne] - sys.C[:, None] * sol[ne:]
    sol += _k_solve(z, w, h_lu, rhs)
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


def solve_mixed_eigenproblem(mesh, sys, k: int, method: str = "iterative",
                             seed: int = 0) -> EigenResult:
    """Solve for the k smallest eigenpairs and recover fluxes.

    `method` is "iterative" (shift-invert ARPACK) or "dense" (Schur
    complement plus a dense symmetric solver, for at most
    DENSE_MAX_TRIANGLES triangles).  A system whose edge and triangle
    counts are not the mesh's raises ValueError, and a request outside the
    solver limits (see check_request) NumericalError, both before any work.
    """
    if ((sys.num_edges, sys.num_triangles)
            != (mesh.num_edges, mesh.num_triangles)):
        raise ValueError(
            f"system of {sys.num_edges} edges and {sys.num_triangles} "
            f"triangles does not match the mesh of {mesh.num_edges} edges "
            f"and {mesh.num_triangles} triangles")
    check_request(method, sys.num_triangles, k, seed)
    if method == "dense":
        factor = flux_mass_factor(sys.M)
        vals, vecs, residuals = solve_gevp(schur_complement(sys, factor),
                                           sys.D, k)
        fluxes = recover_flux(vecs, sys, flux_mass_solver(factor))
    else:
        vals, vecs, fluxes, residuals = solve_gevp_iterative(mesh, sys, k,
                                                             seed)
    return EigenResult(n=mesh.n, h=mesh.h, num_edges=sys.num_edges,
                       num_triangles=sys.num_triangles, eigenvalues=vals,
                       vectors=vecs, fluxes=fluxes, residuals=residuals)

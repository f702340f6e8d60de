"""The iterative path: its hybridized solve with the saddle-point block
(one LU of the interface multiplier system per level, in the
nested-dissection order of their edges) against a sparse direct solve, the
loud failure on a singular element block, its eigenpairs and their
Rayleigh-quotient eigenvalues, the checks it makes on them, and the dense
Schur complement formed from the blocks of M's Cholesky factor against a
sparse LU of M."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import rt0eig.eigensolver
from rt0eig import (AssembledSystem, NumericalError, ProblemSpec, Rectangle,
                    UNIT_SQUARE, assemble, build_structured_mesh, get_preset,
                    solve_mixed_eigenproblem)
from rt0eig.eigensolver import (RESIDUAL_RTOL, _check_eigentriples,
                                _factor_multipliers, _hybridize, _k_solve,
                                flux_mass_factor, schur_complement,
                                solve_gevp_iterative)
from oracles import (colamd_eigenvalues, dense_schur_eigentriples,
                     flux_row_image, mass_solve, product_hybridization,
                     saddle_point_solve, schur_rayleigh_quotients,
                     schur_residuals, sign_entries)


def _system(preset, n):
    mesh = build_structured_mesh(UNIT_SQUARE, n)
    return mesh, assemble(mesh, get_preset(preset))


def _anisotropic_tensor(x, y):
    a = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)) + (2, 2))
    a[..., 0, 0] = 10.0 + x
    a[..., 0, 1] = a[..., 1, 0] = 0.5 * y
    a[..., 1, 1] = 0.1 + 0.05 * x
    return a


ANISOTROPIC = ProblemSpec(name="anisotropic",
                          domain=Rectangle(0.0, 0.0, 2.0, 1.0),
                          A=_anisotropic_tensor, c=lambda x, y: x * y,
                          b=lambda x, y: 1.0 + 0.5 * np.cos(x * y))


def _case_system(case, n):
    if case == "anisotropic":
        mesh = build_structured_mesh(ANISOTROPIC.domain, n)
        return mesh, assemble(mesh, ANISOTROPIC)
    return _system(case, n)


@pytest.mark.parametrize("case",
                         ["laplace", "shifted", "variable", "anisotropic"])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_hybrid_solve_matches_sparse_direct_solve(case, n):
    """K^-1 r = Z r - W H^-1 W^T r for right-hand sides with flux and
    scalar parts, and H is a symmetric positive definite system with at
    most 5 entries per row, one row per interior edge."""
    mesh, sys_ = _case_system(case, n)
    rhs = np.random.default_rng(n).standard_normal(
        (sys_.num_edges + sys_.num_triangles, 3))
    z, w, h = _hybridize(mesh, sys_)
    got = _k_solve(z, w, _factor_multipliers(h), rhs)
    want = saddle_point_solve(sys_, rhs)
    assert np.all(np.linalg.norm(got - want, axis=0)
                  <= 1e-12 * np.linalg.norm(want, axis=0))
    assert (h != h.T).nnz == 0
    assert np.diff(h.tocsr().indptr).max() <= 5
    la.cholesky(h.toarray())
    interior = np.bincount(mesh.triangle_edges.ravel()) == 2
    assert h.shape == (interior.sum(),) * 2
    if n == 1:
        assert h.shape == (1, 1)


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def _assert_products_bit_for_bit(mesh, sys_):
    """Z, W and H equal the sparse products, exact zeros eliminated."""
    for got, want in zip(_hybridize(mesh, sys_),
                         product_hybridization(mesh, sys_), strict=True):
        want.eliminate_zeros()
        _assert_bitwise_equal(got, want)


@pytest.mark.parametrize("case",
                         ["laplace", "shifted", "variable", "anisotropic"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_hybridization_is_the_product_build_bit_for_bit(case, n):
    """Z, W and H gathered from the local inverses hold the entries of the
    sparse products A^-1[slot][:, slot], (A^-1 G^T)[slot] and G A^-1 G^T,
    bit for bit, in the same order."""
    _assert_products_bit_for_bit(*_case_system(case, n))


def test_hybridization_drops_exact_zeros():
    """Local inverses with exact zeros: the row and column selection that
    gives the product build's Z keeps them, and Z, W and H all drop them,
    as the products that give W and H do."""
    mesh, sys_ = _system("laplace", 4)
    t = sys_.num_triangles
    zeros = AssembledSystem(
        M=sys_.M, B=sys_.B, C=sys_.C, D=sys_.D, num_edges=sys_.num_edges,
        num_triangles=t, m_vals=np.tile(np.diag([2.0, 3.0, 4.0]), (t, 1, 1)),
        div_vals=np.tile([1.0, 0.0, 0.0], (t, 1)))
    assert np.count_nonzero(product_hybridization(mesh, zeros)[0].data == 0)
    for m in _hybridize(mesh, zeros):
        assert np.all(m.data != 0)
    _assert_products_bit_for_bit(mesh, zeros)


def _renumbered(mesh, seed):
    """The mesh with its edges numbered in a random order: every array
    indexed by edge permuted alike, and triangle_edges renamed."""
    new = np.random.default_rng(seed).permutation(mesh.num_edges)
    old = np.argsort(new)
    return dataclasses.replace(
        mesh, triangle_edges=new[mesh.triangle_edges],
        **{name: getattr(mesh, name)[old] for name in (
            "edges", "edge_sides", "boundary_edge_flags", "edge_lengths")})


@pytest.mark.parametrize("preset", ["laplace", "variable"])
def test_hybridization_takes_any_edge_numbering(preset):
    """On the n = 16 mesh with its edges renumbered at random, Z, W and H
    are the product build's bit for bit, and the eigenvalues are the
    unpermuted mesh's to 1e-12 relative: the hybridization reads the
    owners and the sides from the mesh, not from its edge numbering."""
    mesh = build_structured_mesh(UNIT_SQUARE, 16)
    renumbered = _renumbered(mesh, 16)
    assert not np.array_equal(renumbered.triangle_edges, mesh.triangle_edges)
    prob = get_preset(preset)
    sys_ = assemble(renumbered, prob)
    _assert_products_bit_for_bit(renumbered, sys_)
    got = solve_mixed_eigenproblem(renumbered, sys_, 4).eigenvalues
    want = solve_mixed_eigenproblem(mesh, assemble(mesh, prob), 4).eigenvalues
    assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("domain, n", [(UNIT_SQUARE, n) for n in range(1, 10)]
                         + [(ANISOTROPIC.domain, 1), (ANISOTROPIC.domain, 6)])
def test_edge_owners_are_the_first_occurrences(domain, n):
    """The mesh's edge_sides: the owners are the first local edges of
    their edges, as np.unique finds them, every local edge is one side of
    one edge, the edge its triangle_edges entry names, and -1 marks the
    second side of exactly the boundary edges."""
    mesh = build_structured_mesh(domain, n)
    te = mesh.triangle_edges.ravel()
    sides = mesh.edge_sides
    assert sides.shape == (mesh.num_edges, 2)
    assert np.array_equal(sides[:, 0], np.unique(te, return_index=True)[1])
    inner = sides >= 0
    assert np.array_equal(np.sort(sides[inner]), np.arange(te.size))
    edge = np.broadcast_to(np.arange(mesh.num_edges)[:, None], sides.shape)
    assert np.array_equal(te[sides[inner]], edge[inner])
    assert np.all(inner[:, 0])
    assert np.array_equal(~inner[:, 1], mesh.boundary_edge_flags)
    assert np.array_equal(mesh.boundary_edge_flags, np.bincount(te) == 1)


def test_singular_element_block_names_its_triangle():
    """A zeroed element block leaves [[0, L^T], [L, -c]], of rank 2."""
    mesh, sys_ = _system("laplace", 4)
    m_vals = sys_.m_vals.copy()
    m_vals[[9, 5]] = 0.0
    bad = AssembledSystem(M=sys_.M, B=sys_.B, C=sys_.C, D=sys_.D,
                          num_edges=sys_.num_edges,
                          num_triangles=sys_.num_triangles,
                          m_vals=m_vals, div_vals=sys_.div_vals)
    with pytest.raises(NumericalError,
                       match=r"local block of triangle 5 is singular"):
        solve_mixed_eigenproblem(mesh, bad, 2, method="iterative")


@pytest.mark.parametrize("case",
                         ["laplace", "shifted", "variable", "anisotropic"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32])
def test_schur_from_the_band_matches_sparse_lu(case, n):
    """S, formed through the solves with the blocks of M's Cholesky factor
    U, equals C + B M^-1 B^T through a sparse LU of M to 1e-14 of max |S|,
    and is exactly symmetric.  U, rebuilt from its blocks, agrees with
    LAPACK's band Cholesky of M to 4 ulp of max |U|, and U^T U reproduces
    M to 4 ulp of max |M|.  The blocks have max(w, 16) rows: one at n = 1
    and 2, 25 at n = 32 (w = 127), where the Schur complement takes S's
    2048 columns in 17 blocks."""
    _, sys_ = _case_system(case, n)
    factor = flux_mass_factor(sys_.M)
    s = schur_complement(sys_, factor)
    want = (sys_.B @ mass_solve(sys_, sys_.B.T.toarray())
            + np.diag(sys_.C))
    assert np.abs(s - want).max() <= 1e-14 * np.abs(s).max()
    assert np.array_equal(s, s.T)
    assert s.flags.c_contiguous

    m = sys_.M.tocoo()
    width, e = int(np.abs(m.row - m.col).max()), sys_.num_edges
    block = max(width, 16)
    assert len(factor) == -(-e // block)
    assert factor[-1][1] is None
    # cho_factor leaves M's old entries below the diagonal of U_II
    u = sp.block_diag([np.triu(u_ii) for u_ii, _ in factor], format="lil")
    for i, (_, coupling) in enumerate(factor[:-1]):
        u[i * block:(i + 1) * block, (i + 1) * block:(i + 2) * block] = (
            coupling)
    u = u.tocsr()
    m_band = np.zeros((width + 1, e))
    for d in range(width + 1):
        m_band[width - d, d:] = sys_.M.diagonal(d)
    lapack = la.cholesky_banded(m_band)
    u_band = np.array([np.pad(u.diagonal(d), (d, 0))
                       for d in range(width, -1, -1)])
    assert abs(sp.triu(u, width + 1)).max() == 0.0
    assert (np.abs(u_band - lapack).max()
            <= 4 * np.spacing(np.abs(lapack).max()))
    m_max = np.abs(sys_.M).max()
    assert abs(u.T @ u - sys_.M).max() <= 4 * np.spacing(m_max)


def test_band_factor_names_the_row_of_a_bad_pivot():
    """An M that is positive definite except for a pivot in the last block
    of the factorization is rejected, naming the row of M, not the row
    within its block."""
    _, sys_ = _system("laplace", 8)
    m = sys_.M.tolil()
    row = sys_.num_edges - 2
    m[row, row] = -1.0
    with pytest.raises(NumericalError) as info:
        flux_mass_factor(m.tocsr())
    assert str(info.value) == (
        f"flux mass matrix is not positive definite at row {row}")


def test_iterative_n64_passes_residual_bound():
    """Unrefined ARPACK vectors exceeded the bound here (pair 3: S-residual
    1.06e-12 against 9.64e-13).  The refined pairs meet it with S applied
    through M^-1, and the reported residual, taken through the flux,
    differs from that S-residual only by the flux row's image."""
    mesh, sys_ = _system("laplace", 64)
    res = solve_mixed_eigenproblem(mesh, sys_, 4, method="iterative", seed=0)
    vals, vecs, sigmas = res.eigenvalues, res.vectors, res.fluxes
    bound = RESIDUAL_RTOL * max(vals[j] / (vecs[:, j] @ vecs[:, j])
                                for j in range(len(vals)))
    s_res = schur_residuals(sys_, vals, vecs)
    assert np.all(s_res <= bound)
    assert np.all(np.abs(s_res - res.residuals)
                  <= flux_row_image(sys_, vecs, sigmas) + 1e-3 * bound)
    for u in vecs.T:
        assert abs(u @ (sys_.D * u) - 1.0) <= 1e-12
    assert np.all(sign_entries(vecs) > 0)


def test_nested_dissection_halves_the_fill_n64(monkeypatch):
    """The one factor the solver makes, that of the multiplier system in
    nested-dissection order, against SuperLU's default COLAMD ordering of K
    in its own numbering."""
    mesh, sys_ = _system("laplace", 64)
    splu, factors = spla.splu, []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", recording_splu)
    solve_gevp_iterative(mesh, sys_, 1, 0)
    monkeypatch.undo()
    (lu,) = factors
    colamd = splu(sp.bmat([[sys_.M, sys_.B.T], [sys_.B, -sp.diags(sys_.C)]],
                          format="csc"))
    fill = lu.L.nnz + lu.U.nnz
    assert fill < 0.7 * (colamd.L.nnz + colamd.U.nnz)


@pytest.fixture(scope="module")
def laplace128():
    mesh, sys_ = _system("laplace", 128)
    return sys_, solve_gevp_iterative(mesh, sys_, 4, 0)


def test_nested_dissection_n128_matches_colamd(laplace128):
    sys_, (vals, vecs, sigmas, residuals) = laplace128
    assert np.array_equal(_check_eigentriples(sys_, vals, vecs, sigmas),
                          residuals)
    reference = colamd_eigenvalues(sys_, 4, 0)
    assert np.all(np.abs(vals - reference) <= 1e-12 * reference)


def test_reported_eigenvalues_are_rayleigh_quotients_n64():
    mesh, sys_ = _system("laplace", 64)
    res = solve_mixed_eigenproblem(mesh, sys_, 4, method="iterative", seed=0)
    want = schur_rayleigh_quotients(sys_, res.vectors)
    assert np.all(np.abs(res.eigenvalues - want) <= 1e-13 * want)


def test_residual_margin_n128(laplace128):
    """With lambda the Rayleigh quotient of the refined pair, the largest
    residual sits 60 times below the bound; with ARPACK's lambda, 6.8."""
    sys_, (vals, vecs, _, residuals) = laplace128
    bound = RESIDUAL_RTOL * max(vals[j] / (vecs[:, j] @ vecs[:, j])
                                for j in range(len(vals)))
    assert residuals.max() * 20 <= bound


def test_iterative_matches_dense_n16():
    """The iterative path agrees with the dense one, and both agree with
    the reference S = C + B M^-1 B^T through a sparse LU of M, eigh'd
    whole, to the same tolerances."""
    mesh, sys_ = _system("laplace", 16)
    dense = solve_mixed_eigenproblem(mesh, sys_, 4, method="dense")
    it = solve_mixed_eigenproblem(mesh, sys_, 4, method="iterative", seed=0)
    dense, it = ((r.eigenvalues, r.vectors, r.fluxes) for r in (dense, it))
    ref = dense_schur_eigentriples(sys_, 4)
    for (want_vals, want_vecs, want_fluxes), (vals, vecs, fluxes) in (
            (dense, it), (ref, dense), (ref, it)):
        rel = np.abs(vals - want_vals) / want_vals
        assert rel.max() <= 1e-12
        # the first eigenvalue is simple
        for want_col, col in ((want_vecs[:, 0], vecs[:, 0]),
                              (want_fluxes[:, 0], fluxes[:, 0])):
            assert (np.abs(col - want_col).max()
                    <= 1e-10 * np.abs(want_col).max())


# Run in a fresh interpreter: VmHWM and VmRSS (bytes) around the factor of
# laplace H at n = 256, after a level at n = 128 as in a study, from the
# point where _hybridize has returned.
_FACTOR_PEAK = """
from pathlib import Path
from rt0eig import UNIT_SQUARE, assemble, build_structured_mesh, get_preset
from rt0eig.eigensolver import (_factor_multipliers, _hybridize,
                                solve_gevp_iterative)

def status():
    text = Path("/proc/self/status").read_text(encoding="utf-8")
    fields = dict(line.split(":", 1) for line in text.splitlines())
    return [int(fields[key].split()[0]) * 1024 for key in ("VmHWM", "VmRSS")]

def laplace(n):
    mesh = build_structured_mesh(UNIT_SQUARE, n)
    return mesh, assemble(mesh, get_preset("laplace"))

solve_gevp_iterative(*laplace(128), 4)
_, _, h = _hybridize(*laplace(256))
before = status()
lu = _factor_multipliers(h)
print(*before, *status())
"""


def _has_vmhwm():
    try:
        status = Path("/proc/self/status").read_text(encoding="utf-8")
        return "VmHWM:" in status
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_multiplier_factor_peaks_at_what_it_keeps_n256():
    """SuperLU's panel work arrays grow with the panel width times the rows
    of H; at SuperLU's default panel width they raised VmHWM 31 MiB above
    what stays resident here.  With panels of 4 columns the high-water
    mark rises by what stays resident, within 4 MiB."""
    src = str(Path(rt0eig.eigensolver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _FACTOR_PEAK], check=True,
                         capture_output=True, encoding="utf-8", timeout=300,
                         env=env)
    hwm0, rss0, hwm1, rss1 = map(int, out.stdout.split())
    assert hwm1 - hwm0 <= rss1 - rss0 + 4 * 2**20


def test_iterative_level_traced_peak_n128():
    """The traced peak of an iterative level at n = 128 (k = 4) stays
    within 6 times the (T, 4, 4) local inverses, 24 MiB: 21.6 MiB measured.
    It was 29.0 MiB while Z, W and H were sparse products of a global A^-1
    and the jump map, and H and ARPACK's operator lived to the end of the
    level, and 35.5 MiB while K was assembled for the refinement."""
    mesh, sys_ = _system("laplace", 128)
    inverses = sys_.num_triangles * 16 * 8
    tracemalloc.start()
    try:
        solve_gevp_iterative(mesh, sys_, 4, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * inverses


@pytest.mark.parametrize("n", [4, 8])
def test_refinement_applies_k_through_its_blocks(monkeypatch, n):
    """The refinement's residual takes M, B^T, B and C one at a time: K is
    never assembled."""
    def no_bmat(*args, **kwargs):
        raise AssertionError("sp.bmat called")

    monkeypatch.setattr(rt0eig.eigensolver.sp, "bmat", no_bmat)
    mesh, sys_ = _system("laplace", n)
    res = solve_mixed_eigenproblem(mesh, sys_, 4, method="iterative", seed=0)
    assert np.all(np.isfinite(res.eigenvalues))


@pytest.fixture(scope="module")
def triples():
    mesh, sys_ = _system("laplace", 16)
    vals, vecs, sigmas, residuals = solve_gevp_iterative(mesh, sys_, 4, 0)
    return sys_, vals, vecs, sigmas, residuals


def test_check_accepts_solver_output(triples):
    sys_, vals, vecs, sigmas, residuals = triples
    assert np.array_equal(_check_eigentriples(sys_, vals, vecs, sigmas),
                          residuals)


def _direction(rng, shape):
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x)


def test_check_rejects_perturbed_vector(triples):
    sys_, vals, vecs, sigmas, _ = triples
    rng = np.random.default_rng(5)
    bad = vecs.copy()
    bad[:, 2] += 1e-6 * np.linalg.norm(vecs[:, 2]) * _direction(
        rng, len(bad))
    with pytest.raises(NumericalError, match="eigenpair 2 flux residual"):
        _check_eigentriples(sys_, vals, bad, sigmas)
    # with the flux row satisfied, the eigen-residual still catches it
    consistent = sigmas.copy()
    consistent[:, 2] = -mass_solve(sys_, sys_.B.T @ bad[:, 2])
    with pytest.raises(NumericalError, match=r"eigenpair 2 residual"):
        _check_eigentriples(sys_, vals, bad, consistent)


def test_check_rejects_perturbed_eigenvalue(triples):
    sys_, vals, vecs, sigmas, _ = triples
    bad = vals.copy()
    bad[1] *= 1.0 + 1e-9
    with pytest.raises(NumericalError, match=r"eigenpair 1 residual"):
        _check_eigentriples(sys_, bad, vecs, sigmas)


def test_check_rejects_flux_off_its_row(triples):
    sys_, vals, vecs, sigmas, _ = triples
    rng = np.random.default_rng(6)
    bad = sigmas.copy()
    bad[:, 3] += 1e-9 * np.linalg.norm(sigmas[:, 3]) * _direction(
        rng, len(bad))
    with pytest.raises(NumericalError, match="eigenpair 3 flux residual"):
        _check_eigentriples(sys_, vals, vecs, bad)


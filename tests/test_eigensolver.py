import tracemalloc

import numpy as np
import pytest

import rt0eig.eigensolver as eigensolver
from rt0eig import (NumericalError, assemble, build_structured_mesh,
                    flux_mass_solver, get_preset, recover_flux,
                    schur_complement, solve_gevp, solve_gevp_iterative,
                    solve_mixed_eigenproblem, UNIT_SQUARE)
from oracles import copying_solve_gevp, saddle_point_eigenvalues


def _schur(sys_):
    return schur_complement(sys_, flux_mass_solver(sys_.M))


@pytest.fixture(scope="module")
def laplace_systems():
    out = {}
    for n in (1, 2, 4, 8):
        mesh = build_structured_mesh(UNIT_SQUARE, n)
        out[n] = (mesh, assemble(mesh, get_preset("laplace")))
    return out


def test_schur_positive_diagonal(laplace_systems):
    _, sys_ = laplace_systems[2]
    s = _schur(sys_)
    assert np.all(np.diag(s) > 0)
    assert np.linalg.eigvalsh(s).min() > 0  # SPD


def test_schur_shift_identity(laplace_systems):
    mesh, sys_laplace = laplace_systems[2]
    sys_shifted = assemble(mesh, get_preset("shifted"))
    s0 = _schur(sys_laplace)
    s5 = _schur(sys_shifted)
    want = s0 + 5.0 * np.diag(sys_laplace.D)
    assert np.abs(s5 - want).max() <= 1e-12 * np.abs(want).max()


def test_schur_n1_against_dense_elimination(laplace_systems):
    """2x2 Schur matrix equals brute-force elimination of the 7x7 block."""
    _, sys_ = laplace_systems[1]
    s = _schur(sys_)
    m_inv = np.linalg.inv(sys_.M.toarray())
    want = sys_.B.toarray() @ m_inv @ sys_.B.toarray().T + np.diag(sys_.C)
    assert s.shape == (2, 2)
    assert np.abs(s - want).max() <= 1e-12 * np.abs(want).max()


def test_schur_rejects_asymmetric_solve(laplace_systems):
    """A solve that scales one column of its result by 1 + 1e-9 makes S
    asymmetric far beyond SCHUR_SYM_RTOL."""
    _, sys_ = laplace_systems[8]
    solve = flux_mass_solver(sys_.M)

    def skewed(rhs):
        x = solve(rhs)
        x[:, 0] *= 1.0 + 1e-9
        return x

    with pytest.raises(NumericalError, match="Schur complement asymmetry"):
        schur_complement(sys_, skewed)


@pytest.mark.parametrize("order", ["C", "F"])
def test_flux_mass_solve_leaves_rhs_unchanged(laplace_systems, order):
    _, sys_ = laplace_systems[4]
    rhs = np.asarray(sys_.B.T[:, :5].toarray(), order=order)
    before = rhs.copy()
    x = flux_mass_solver(sys_.M)(rhs)
    assert np.array_equal(rhs, before)
    assert np.abs(sys_.M @ x - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_flux_mass_solve_rejects_nan_rhs(laplace_systems):
    """The solve checks its right-hand side, though not the factor."""
    _, sys_ = laplace_systems[4]
    rhs = sys_.B.T[:, :5].toarray()
    rhs[2, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        flux_mass_solver(sys_.M)(rhs)


@pytest.mark.parametrize("preset", ["laplace", "shifted", "variable"])
@pytest.mark.parametrize("n", [4, 16, 32])
def test_gevp_in_place_equals_copying_oracle(preset, n):
    """Diagonalizing S in its own storage gives the copying oracle's values
    and vectors bit for bit; the residuals, formed from the triangle of S
    that eigh leaves, agree to rounding."""
    prob = get_preset(preset)
    sys_ = assemble(build_structured_mesh(prob.domain, n), prob)
    s = _schur(sys_)
    s_norm = np.linalg.norm(s)
    want_vals, want_vecs, want_res = copying_solve_gevp(s.copy(), sys_.D, 6)
    vals, vecs, res = solve_gevp(s, sys_.D, 6)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(vecs, want_vecs)
    assert np.abs(res - want_res).max() <= 1e-15 * s_norm


def test_dense_level_peak_memory():
    """A dense n = 32 level holds the Cholesky factor of M (E x E) and S
    (T x T), which is diagonalized in its own storage; the traced peak may
    exceed them by three chunks of 2^20 doubles and then by a twentieth."""
    mesh = build_structured_mesh(UNIT_SQUARE, 32)
    sys_ = assemble(mesh, get_preset("laplace"))
    e, t = sys_.num_edges, sys_.num_triangles
    tracemalloc.start()
    try:
        solve_mixed_eigenproblem(mesh, sys_, 6, method="dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (8 * (e * e + t * t) + 3 * 8 * 2**20)


def test_gevp_identity_operator():
    d = np.array([0.5, 1.0, 2.0, 0.25])
    vals, vecs, _ = solve_gevp(np.diag(d), d, 4)
    assert vals == pytest.approx(np.ones(4), abs=1e-13)


def test_gevp_rejects_k_too_large():
    with pytest.raises(NumericalError):
        solve_gevp(np.eye(3), np.ones(3), 4)


def test_gevp_rejects_nonpositive_weight():
    with pytest.raises(NumericalError):
        solve_gevp(np.eye(3), np.array([1.0, 0.0, 1.0]), 2)


def test_gevp_rejects_perturbed_eigenvector(laplace_systems, monkeypatch):
    """A vector of eigh's moved by 1e-9 of its norm fails the residual
    check, 10 times over its bound, and the check names its pair."""
    _, sys_ = laplace_systems[8]
    s = _schur(sys_)
    solve_gevp(s.copy(), sys_.D, 4)
    eigh = eigensolver.la.eigh

    def perturbed_eigh(*args, **kwargs):
        vals, y = eigh(*args, **kwargs)
        y = y.copy()
        x = np.random.default_rng(3).standard_normal(len(y))
        y[:, 2] += 1e-9 * x / np.linalg.norm(x)
        return vals, y

    monkeypatch.setattr(eigensolver.la, "eigh", perturbed_eigh)
    with pytest.raises(NumericalError, match=r"eigenpair 2 residual"):
        solve_gevp(s.copy(), sys_.D, 4)


def test_residual_check_rejects_nan():
    with pytest.raises(NumericalError, match=r"eigenpair 1 residual nan"):
        eigensolver._check_residuals(np.array([1e-16, np.nan]), 1.0)


def test_schur_rejects_nan_solve(laplace_systems):
    """A solve that returns a NaN column gives S a NaN column, which the
    symmetry check alone would let through."""
    _, sys_ = laplace_systems[4]
    solve = flux_mass_solver(sys_.M)

    def nan_column(rhs):
        x = solve(rhs)
        x[:, 3] = np.nan
        return x

    with pytest.raises(NumericalError, match="column 3 is not finite"):
        schur_complement(sys_, nan_column)


def test_flux_rows_reject_nan_sigma(laplace_systems):
    _, sys_ = laplace_systems[4]
    solve = flux_mass_solver(sys_.M)
    _, vecs, _ = solve_gevp(_schur(sys_), sys_.D, 3)

    def nan_sigma(rhs):
        x = solve(rhs)
        x[0, 1] = np.nan
        return x

    with pytest.raises(NumericalError, match=r"eigenpair 1 flux residual nan"):
        recover_flux(vecs, sys_, nan_sigma)


def test_gevp_rejects_nan_weight():
    with pytest.raises(NumericalError, match="positive"):
        solve_gevp(np.eye(3), np.array([1.0, np.nan, 1.0]), 2)


def test_not_spd_mass_rejected(laplace_systems):
    import scipy.sparse as sp
    _, sys_ = laplace_systems[1]
    bad = type(sys_)(M=-sp.identity(sys_.num_edges, format="csr"),
                     B=sys_.B, C=sys_.C, D=sys_.D,
                     num_edges=sys_.num_edges,
                     num_triangles=sys_.num_triangles, order=sys_.order,
                     m_vals=sys_.m_vals, div_vals=sys_.div_vals,
                     triangle_edges=sys_.triangle_edges)
    with pytest.raises(NumericalError, match="positive definite"):
        schur_complement(bad, flux_mass_solver(bad.M))


def test_spectral_shift_of_eigenvalues(laplace_systems):
    mesh, sys_laplace = laplace_systems[8]
    sys_shifted = assemble(mesh, get_preset("shifted"))
    v0, _, _ = solve_gevp(_schur(sys_laplace), sys_laplace.D, 4)
    v5, _, _ = solve_gevp(_schur(sys_shifted), sys_shifted.D, 4)
    assert np.abs(v5 - (v0 + 5.0)).max() <= 1e-8 * np.abs(v0 + 5.0).max()


def test_d_orthonormality_and_positivity(laplace_systems):
    _, sys_ = laplace_systems[4]
    vals, vecs, _ = solve_gevp(_schur(sys_), sys_.D, 6)
    assert np.all(vals > 0)
    gram = vecs.T @ (sys_.D[:, None] * vecs)
    assert np.abs(gram - np.eye(6)).max() <= 1e-10


def test_sign_convention(laplace_systems):
    _, sys_ = laplace_systems[4]
    _, vecs, _ = solve_gevp(_schur(sys_), sys_.D, 4)
    for j in range(4):
        assert vecs[np.argmax(np.abs(vecs[:, j])), j] > 0


def test_first_eigenvalue_converges_to_reference(laplace_systems):
    errs = []
    for n in (4, 8):
        mesh, sys_ = laplace_systems[n]
        vals, _, _ = solve_gevp(_schur(sys_), sys_.D, 1)
        errs.append(abs(vals[0] - 2.0 * np.pi**2))
    assert 3.0 < errs[0] / errs[1] < 5.0  # about 4x per refinement


@pytest.mark.parametrize("n", [1, 2, 4])
def test_schur_matches_saddle_point_pencil(laplace_systems, n):
    """All reduced eigenvalues equal the finite pencil eigenvalues."""
    _, sys_ = laplace_systems[n]
    t = sys_.num_triangles
    vals, _, _ = solve_gevp(_schur(sys_), sys_.D, t)
    oracle = saddle_point_eigenvalues(sys_)
    assert np.abs(vals - oracle).max() <= 1e-9 * np.abs(oracle).max()


def test_recover_flux_zero(laplace_systems):
    _, sys_ = laplace_systems[2]
    sigma = recover_flux(np.zeros((sys_.num_triangles, 1)), sys_,
                         flux_mass_solver(sys_.M))
    assert np.all(sigma == 0.0)


def test_recover_flux_residual_bound(laplace_systems):
    _, sys_ = laplace_systems[4]
    rng = np.random.default_rng(23)
    solve = flux_mass_solver(sys_.M)
    for _ in range(5):
        u = rng.standard_normal(sys_.num_triangles)
        sigma = recover_flux(u[:, None], sys_, solve)[:, 0]
        rhs = sys_.B.T @ u
        res = np.linalg.norm(sys_.M @ sigma + rhs)
        assert res <= 1e-11 * np.linalg.norm(rhs)


def test_recover_flux_rejects_inexact_solve(laplace_systems):
    """A solve off by 1e-9 relative in one column leaves that pair's flux
    row 100 times above FLUX_RTOL, and the check names the pair."""
    _, sys_ = laplace_systems[4]
    _, vecs, _ = solve_gevp(_schur(sys_), sys_.D, 4)
    solve = flux_mass_solver(sys_.M)
    recover_flux(vecs, sys_, solve)

    def inexact_solve(rhs):
        x = solve(rhs)
        x[:, 2] *= 1.0 + 1e-9
        return x

    with pytest.raises(NumericalError, match="eigenpair 2 flux residual"):
        recover_flux(vecs, sys_, inexact_solve)


def test_dense_size_guard_fires_before_factorizing(monkeypatch):
    mesh = build_structured_mesh(UNIT_SQUARE, 64)
    sys_ = assemble(mesh, get_preset("laplace"))

    def cho_factor(*args, **kwargs):
        raise AssertionError("the dense path factorized M")

    monkeypatch.setattr(eigensolver.la, "cho_factor", cho_factor)
    with pytest.raises(NumericalError, match=r"8192 triangles .*iterative"):
        solve_mixed_eigenproblem(mesh, sys_, 1, method="dense")


def test_flux_norm_approaches_gradient_norm(laplace_systems):
    """||sigma_h||_L2 (squared via the flux mass) tends to sqrt(lambda_1)."""
    target = np.sqrt(2.0 * np.pi**2)
    diffs = []
    for n in (4, 8):
        mesh, sys_ = laplace_systems[n]
        res = solve_mixed_eigenproblem(mesh, sys_, 1)
        sigma = res.pairs[0].sigma
        diffs.append(abs(np.sqrt(sigma @ (sys_.M @ sigma)) - target))
    assert diffs[1] < diffs[0]
    assert diffs[1] < 0.05


def test_eigen_result_metadata(laplace_systems):
    mesh, sys_ = laplace_systems[2]
    res = solve_mixed_eigenproblem(mesh, sys_, 3)
    assert (res.n, res.num_edges, res.num_triangles) == (2, 16, 8)
    assert res.h == mesh.h
    assert len(res.pairs) == 3
    assert np.all(np.diff(res.eigenvalues) >= 0)
    for p in res.pairs:
        assert abs(p.u @ (sys_.D * p.u) - 1.0) <= 1e-12


def test_iterative_path_matches_dense(laplace_systems):
    mesh, sys_ = laplace_systems[8]
    dense_vals, _, _ = solve_gevp(_schur(sys_), sys_.D, 4)
    it_vals, it_vecs, _, _ = solve_gevp_iterative(sys_, 4, seed=0)
    assert np.abs(it_vals - dense_vals).max() <= 1e-8 * dense_vals.max()
    gram = it_vecs.T @ (sys_.D[:, None] * it_vecs)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_iterative_path_deterministic(laplace_systems):
    mesh, sys_ = laplace_systems[4]
    a = solve_mixed_eigenproblem(mesh, sys_, 3, method="iterative", seed=42)
    b = solve_mixed_eigenproblem(mesh, sys_, 3, method="iterative", seed=42)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.array_equal(pa.u, pb.u)


def test_unknown_method_rejected(laplace_systems):
    mesh, sys_ = laplace_systems[2]
    with pytest.raises(NumericalError):
        solve_mixed_eigenproblem(mesh, sys_, 2, method="magic")

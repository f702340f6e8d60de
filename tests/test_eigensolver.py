import dataclasses
import tracemalloc

import numpy as np
import pytest

import rt0eig.eigensolver as eigensolver
from rt0eig import (NumericalError, assemble, build_structured_mesh,
                    get_preset, solve_mixed_eigenproblem, UNIT_SQUARE)
from rt0eig.eigensolver import (flux_mass_factor, flux_mass_solver,
                                recover_flux, schur_complement, solve_gevp,
                                solve_gevp_iterative)
from oracles import (copying_solve_gevp, mass_solve, saddle_point_eigenvalues,
                     sign_entries)


def _schur(sys_):
    return schur_complement(sys_, flux_mass_factor(sys_.M))


def _solver(sys_):
    return flux_mass_solver(flux_mass_factor(sys_.M))


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


@pytest.mark.parametrize("rhs_form", ["1d", "C", "F"])
@pytest.mark.parametrize("n", [1, 4, 32])
def test_flux_mass_solve_leaves_rhs_unchanged(n, rhs_form):
    """The two block sweeps match a sparse LU of M to 1e-13 relative, on
    one block at n = 1 and on 25 at n = 32 (b = 127, E = 3136, so the last
    block has 88 rows), for one right-hand side and for a C- or
    Fortran-ordered column block of them, which they leave unchanged."""
    sys_ = assemble(build_structured_mesh(UNIT_SQUARE, n),
                    get_preset("laplace"))
    rhs = sys_.B.T[:, :5].toarray()
    rhs = rhs[:, 1] if rhs_form == "1d" else np.asarray(rhs, order=rhs_form)
    before = rhs.copy()
    x = _solver(sys_)(rhs)
    assert np.array_equal(rhs, before)
    assert x.shape == rhs.shape
    want = mass_solve(sys_, rhs)
    assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(sys_.M @ x - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_flux_mass_solve_rejects_nan_rhs(laplace_systems):
    """The solve checks its right-hand side, though not the factor."""
    _, sys_ = laplace_systems[4]
    rhs = sys_.B.T[:, :5].toarray()
    rhs[2, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _solver(sys_)(rhs)


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
    """A dense n = 32 level holds S (T x T, 32 MiB), which is diagonalized
    in its own storage, the 49 blocks of M's Cholesky factor (6 MiB), and
    one E x b block of M^-1 B^T (3 MiB) and one T x b block of S's columns
    (2 MiB) at a time, b = 127; it holds neither M nor M^-1 B^T as a full
    array.  The traced peak stays at 48 MiB or below (44 MiB measured)."""
    mesh = build_structured_mesh(UNIT_SQUARE, 32)
    sys_ = assemble(mesh, get_preset("laplace"))
    tracemalloc.start()
    try:
        solve_mixed_eigenproblem(mesh, sys_, 6, method="dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


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


def test_schur_rejects_nan_solve(laplace_systems, monkeypatch):
    """A NaN or an inf in C at triangle 3, a NaN column 3 of Y = M^-1 B^T
    in the second block of S's columns, or a NaN in Y at an edge that
    triangle 3 does not have, makes a column of S non-finite, and the
    finiteness check names it by its global index."""
    mesh, sys_ = laplace_systems[4]
    factor = flux_mass_factor(sys_.M)
    for bad in (np.nan, np.inf):
        bad_c = dataclasses.replace(
            sys_, C=np.where(np.arange(sys_.C.size) == 3, bad, sys_.C))
        with pytest.raises(NumericalError, match="column 3 is not finite"):
            schur_complement(bad_c, factor)
    solve, calls = eigensolver._solve_in_place, []

    def nan_after(call, row, col):
        def hooked(factor, x):
            solve(factor, x)
            calls.append(x.shape[0])
            if len(calls) == call:
                x[row, col] = np.nan
        return hooked

    # s_33 reads Y only at the edges of triangle 3, so the NaN at an edge
    # of the last triangle leaves it finite; s_(T-1)3 is not
    edge = mesh.triangle_edges[-1, 0]
    assert edge not in mesh.triangle_edges[3]
    monkeypatch.setattr(eigensolver, "_solve_in_place", nan_after(1, edge, 3))
    with pytest.raises(NumericalError, match="column 3 is not finite"):
        schur_complement(sys_, factor)
    assert calls == [sys_.num_edges]
    # n = 16 takes S's columns in blocks of b; the NaN goes into the second
    mesh = build_structured_mesh(UNIT_SQUARE, 16)
    sys_ = assemble(mesh, get_preset("laplace"))
    factor = flux_mass_factor(sys_.M)
    block, calls[:] = factor[0][0].shape[0], []
    monkeypatch.setattr(eigensolver, "_solve_in_place",
                        nan_after(2, slice(None), 3))
    with pytest.raises(NumericalError,
                       match=f"column {block + 3} is not finite"):
        schur_complement(sys_, factor)
    assert len(calls) == 2 and block + 3 < sys_.num_triangles


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gevp_rejects_non_finite_input(laplace_systems, bad):
    """One non-finite entry of S fails the finiteness check of its norm,
    which names the entry's column, not scipy's check inside eigh."""
    _, sys_ = laplace_systems[8]
    s = _schur(sys_)
    s[2, 7] = bad
    with pytest.raises(NumericalError, match="S column 7 is not finite"):
        solve_gevp(s, sys_.D, 4)


def test_gevp_rejects_overflowing_norm():
    big = np.full((3, 3), 1e300)
    np.fill_diagonal(big, 2e300)
    with pytest.raises(NumericalError, match="the norm of S overflows"):
        solve_gevp(big, np.ones(3), 2)


def test_gevp_rejects_asymmetric_input(laplace_systems):
    """S is not symmetrized: eigh reads one triangle and the residuals the
    other, so an asymmetry of 1e-9 max|S| at one entry fails the residual
    check, while one of 1e-12 max|S| stays within it."""
    _, sys_ = laplace_systems[8]
    s = _schur(sys_)
    scale = np.abs(s).max()
    a = s.copy()
    a[3, 5] += 1e-12 * scale
    solve_gevp(a, sys_.D, 4)
    s[3, 5] += 1e-9 * scale
    with pytest.raises(NumericalError, match=r"eigenpair \d+ residual"):
        solve_gevp(s, sys_.D, 4)


def test_flux_rows_reject_nan_sigma(laplace_systems):
    _, sys_ = laplace_systems[4]
    solve = _solver(sys_)
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
                     num_triangles=sys_.num_triangles,
                     m_vals=sys_.m_vals, div_vals=sys_.div_vals)
    with pytest.raises(NumericalError, match="positive definite"):
        flux_mass_factor(bad.M)


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
    assert np.all(sign_entries(vecs) > 0)


def test_sign_of_tied_entries_ignores_rounding():
    """Entries -0.5 and 0.5, one of them nudged by one ulp up or down, give
    one sign: that of the first of them, whichever rounding makes larger."""
    signs = []
    for nudged in (1, 2):
        for toward in (0.0, 1.0):
            col = np.array([0.1, -0.5, 0.5, 0.3])
            col[nudged] = np.copysign(np.nextafter(0.5, toward), col[nudged])
            signs.append(float(eigensolver._column_signs(col[:, None])[0]))
    assert signs == [-1.0] * 4


def test_dense_and_iterative_vectors_agree_in_sign():
    """Every eigenvalue here is simple, so each discrete mode is one vector
    up to sign, and both paths must give it the same sign."""
    for preset in ("laplace", "shifted", "variable"):
        for n in (4, 8, 16):
            mesh = build_structured_mesh(UNIT_SQUARE, n)
            sys_ = assemble(mesh, get_preset(preset))
            dense, it = (solve_mixed_eigenproblem(mesh, sys_, 6, method=m)
                         for m in ("dense", "iterative"))
            cosines = np.sum(dense.vectors * (sys_.D[:, None] * it.vectors),
                             axis=0)
            assert np.all(cosines > 0.99), (preset, n, cosines)


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
                         _solver(sys_))
    assert np.all(sigma == 0.0)


def test_recover_flux_residual_bound(laplace_systems):
    _, sys_ = laplace_systems[4]
    rng = np.random.default_rng(23)
    solve = _solver(sys_)
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
    solve = _solver(sys_)
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


@pytest.mark.parametrize("method, t, k, seed, message", [
    ("dense", 8, 0, 0, "k must be between 1 and 8 for the dense solver"),
    ("iterative", 8, 0, 0, "k must be between 1 and 7 "),
    ("iterative", 8, 8, 0, "k must be between 1 and 7 for the iterative"),
    ("dense", 2 * 33 * 33, 1, 0,
     "2178 triangles are more than the 2048 .*use solver = iterative"),
    ("quantum", 8, 1, 0, "solver must be 'dense' or 'iterative'"),
    ("dense", 8, 1, -1, "seed must be >= 0, got -1"),
    ("iterative", 8, 1, -1, "seed must be >= 0, got -1"),
], ids=["dense_k0", "iterative_k0", "iterative_kT", "dense_n33", "quantum",
        "dense_seed-1", "iterative_seed-1"])
def test_check_request_rejects_just_past_each_limit(method, t, k, seed,
                                                    message):
    with pytest.raises(NumericalError, match=message):
        eigensolver.check_request(method, t, k, seed)


@pytest.mark.parametrize("method", ["dense", "iterative"])
@pytest.mark.parametrize("k, seed, message", [
    (1.5, 0, r"k must be an integer, got 1\.5$"),
    (2.0, 0, r"k must be an integer, got 2\.0$"),
    (True, 0, "k must be an integer, got True$"),
    (2, True, "seed must be an integer, got True$"),
    (2, 1.5, r"seed must be an integer, got 1\.5$"),
], ids=["k1.5", "k2.0", "kTrue", "seedTrue", "seed1.5"])
def test_solver_rejects_a_k_or_seed_that_is_not_an_integer(method, k, seed,
                                                           message):
    """By name and before any work: ARPACK died on a float k, eigsh on
    k = True, and the dense path solved for them; seed = True ran as
    seed 1."""
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    sys_ = assemble(mesh, get_preset("laplace"))
    with pytest.raises(NumericalError, match=message):
        solve_mixed_eigenproblem(mesh, sys_, k, method=method, seed=seed)


def test_check_request_takes_numpy_integers():
    for method in ("dense", "iterative"):
        eigensolver.check_request(method, 8, np.int64(2), np.uint8(3))


def test_iterative_k_equal_t_points_to_the_dense_solver():
    """Only the dense path takes k = T, and the iterative path's message
    says so, but only where the dense path would take it."""
    with pytest.raises(NumericalError,
                       match=r"got 8; solver = dense takes k = 8$"):
        eigensolver.check_request("iterative", 8, 8)
    for t, k in ((8, 9), (8, 0), (2 * 33 * 33, 2 * 33 * 33)):
        with pytest.raises(NumericalError) as exc:
            eigensolver.check_request("iterative", t, k)
        assert "dense" not in str(exc.value)


@pytest.mark.parametrize("method, t, k", [
    ("dense", 8, 8), ("iterative", 8, 7), ("dense", 8, 1),
    ("iterative", 8, 1), ("dense", 2 * 32 * 32, 1),
    ("iterative", 2 * 33 * 33, 1)],
    ids=["dense_kT", "iterative_kT-1", "dense_k1", "iterative_k1",
         "dense_n32", "iterative_n33"])
def test_check_request_accepts_each_limit(method, t, k):
    eigensolver.check_request(method, t, k, 0)


@pytest.mark.parametrize("method, k, seed", [
    ("dense", 33, 0), ("iterative", 32, 0), ("iterative", 1, -1),
    ("quantum", 1, 0)], ids=["dense_kT+1", "iterative_kT", "seed-1",
                             "quantum"])
def test_request_is_checked_before_any_work(monkeypatch, laplace_systems,
                                            method, k, seed):
    """The dispatcher rejects a request past a limit before it factors M
    or hybridizes the system, and a negative seed is a NumericalError of
    the solver, not numpy's ValueError from after the factorization."""
    mesh, sys_ = laplace_systems[4]

    def no_work(*args, **kwargs):
        raise AssertionError("the solver started work")

    monkeypatch.setattr(eigensolver, "flux_mass_factor", no_work)
    monkeypatch.setattr(eigensolver, "_hybridize", no_work)
    with pytest.raises(NumericalError):
        solve_mixed_eigenproblem(mesh, sys_, k, method=method, seed=seed)
    if method == "iterative":
        with pytest.raises(NumericalError):
            solve_gevp_iterative(mesh, sys_, k, seed)


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_dispatcher_rejects_a_system_of_another_mesh(monkeypatch,
                                                     laplace_systems, method):
    """A system assembled on the n = 8 mesh, solved with the n = 4 mesh,
    is rejected before any work, naming both sets of counts."""
    mesh, _ = laplace_systems[4]
    _, sys_ = laplace_systems[8]

    def no_work(*args, **kwargs):
        raise AssertionError("the solver started work")

    monkeypatch.setattr(eigensolver, "flux_mass_factor", no_work)
    monkeypatch.setattr(eigensolver, "_hybridize", no_work)
    with pytest.raises(ValueError, match=(
            r"system of 208 edges and 128 triangles does not match the "
            r"mesh of 56 edges and 32 triangles")):
        solve_mixed_eigenproblem(mesh, sys_, 2, method=method)


def test_flux_norm_approaches_gradient_norm(laplace_systems):
    """||sigma_h||_L2 (squared via the flux mass) tends to sqrt(lambda_1)."""
    target = np.sqrt(2.0 * np.pi**2)
    diffs = []
    for n in (4, 8):
        mesh, sys_ = laplace_systems[n]
        res = solve_mixed_eigenproblem(mesh, sys_, 1)
        sigma = res.fluxes[:, 0]
        diffs.append(abs(np.sqrt(sigma @ (sys_.M @ sigma)) - target))
    assert diffs[1] < diffs[0]
    assert diffs[1] < 0.05


def test_eigen_result_metadata(laplace_systems):
    mesh, sys_ = laplace_systems[2]
    res = solve_mixed_eigenproblem(mesh, sys_, 3)
    assert (res.n, res.num_edges, res.num_triangles) == (2, 16, 8)
    assert res.h == mesh.h
    assert res.eigenvalues.shape == (3,)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    for u in res.vectors.T:
        assert abs(u @ (sys_.D * u) - 1.0) <= 1e-12


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_eigen_result_holds_the_solver_arrays(laplace_systems, method):
    """EigenResult's arrays are those the solver path returns, column j of
    each the j-th eigentriple: D-normalized, sign convention applied."""
    mesh, sys_ = laplace_systems[8]
    k, seed = 4, 3
    res = solve_mixed_eigenproblem(mesh, sys_, k, method=method, seed=seed)
    assert [f.name for f in dataclasses.fields(res)] == [
        "n", "h", "num_edges", "num_triangles", "eigenvalues", "vectors",
        "fluxes", "residuals"]
    t, e = sys_.num_triangles, sys_.num_edges
    assert res.eigenvalues.shape == res.residuals.shape == (k,)
    assert res.vectors.shape == (t, k)
    assert res.fluxes.shape == (e, k)
    if method == "dense":
        factor = flux_mass_factor(sys_.M)
        vals, vecs, residuals = solve_gevp(schur_complement(sys_, factor),
                                           sys_.D, k)
        fluxes = recover_flux(vecs, sys_, flux_mass_solver(factor))
    else:
        vals, vecs, fluxes, residuals = solve_gevp_iterative(mesh, sys_, k,
                                                             seed)
    assert np.array_equal(res.eigenvalues, vals)
    assert np.array_equal(res.vectors, vecs)
    assert np.array_equal(res.fluxes, fluxes)
    assert np.array_equal(res.residuals, residuals)
    norms = np.sum(sys_.D[:, None] * res.vectors**2, axis=0)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)
    assert np.all(sign_entries(res.vectors) > 0)


def test_iterative_path_matches_dense(laplace_systems):
    mesh, sys_ = laplace_systems[8]
    dense_vals, _, _ = solve_gevp(_schur(sys_), sys_.D, 4)
    it_vals, it_vecs, _, _ = solve_gevp_iterative(mesh, sys_, 4, seed=0)
    assert np.abs(it_vals - dense_vals).max() <= 1e-8 * dense_vals.max()
    gram = it_vecs.T @ (sys_.D[:, None] * it_vecs)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_iterative_path_deterministic(laplace_systems):
    mesh, sys_ = laplace_systems[4]
    a = solve_mixed_eigenproblem(mesh, sys_, 3, method="iterative", seed=42)
    b = solve_mixed_eigenproblem(mesh, sys_, 3, method="iterative", seed=42)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.vectors, b.vectors)


def test_dispatcher_runs_the_iterative_path_by_default(laplace_systems):
    mesh, sys_ = laplace_systems[4]
    default = solve_mixed_eigenproblem(mesh, sys_, 3)
    iterative = solve_mixed_eigenproblem(mesh, sys_, 3, method="iterative")
    for f in dataclasses.fields(default):
        assert np.array_equal(getattr(default, f.name),
                              getattr(iterative, f.name))


def test_unknown_method_rejected(laplace_systems):
    mesh, sys_ = laplace_systems[2]
    with pytest.raises(NumericalError):
        solve_mixed_eigenproblem(mesh, sys_, 2, method="magic")

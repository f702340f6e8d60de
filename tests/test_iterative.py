"""The iterative path's single saddle-point factorization: its
nested-dissection order, its eigenpairs, the checks it makes on them, and
the chunked dense Schur complement."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rt0eig import (NumericalError, UNIT_SQUARE, assemble,
                    build_structured_mesh, get_preset, schur_complement,
                    solve_mixed_eigenproblem)
from rt0eig.eigensolver import (RESIDUAL_RTOL, _check_eigentriples,
                                _iterative_eigentriples)
from oracles import (colamd_eigenvalues, flux_row_image,
                     full_densify_schur_complement, schur_residuals)


def _system(preset, n):
    mesh = build_structured_mesh(UNIT_SQUARE, n)
    return mesh, assemble(mesh, get_preset(preset))


@pytest.mark.parametrize("preset", ["laplace", "variable"])
@pytest.mark.parametrize("n", [4, 16])
def test_schur_chunked_densify_equals_full_densify(preset, n):
    _, sys_ = _system(preset, n)
    assert np.array_equal(schur_complement(sys_),
                          full_densify_schur_complement(sys_))


def test_iterative_n64_passes_residual_bound():
    """Unrefined ARPACK vectors exceeded the bound here (pair 3: S-residual
    1.06e-12 against 9.64e-13).  The refined pairs meet it with S applied
    through M^-1, and the reported residual, taken through the flux,
    differs from that S-residual only by the flux row's image."""
    mesh, sys_ = _system("laplace", 64)
    res = solve_mixed_eigenproblem(mesh, sys_, 4, method="iterative", seed=0)
    vals = res.eigenvalues
    vecs = np.column_stack([p.u for p in res.pairs])
    sigmas = np.column_stack([p.sigma for p in res.pairs])
    reported = np.array([p.residual for p in res.pairs])
    bound = RESIDUAL_RTOL * max(p.lambda_h / (p.u @ p.u) for p in res.pairs)
    s_res = schur_residuals(sys_, vals, vecs)
    assert np.all(s_res <= bound)
    assert np.all(np.abs(s_res - reported)
                  <= flux_row_image(sys_, vecs, sigmas) + 1e-3 * bound)
    for p in res.pairs:
        assert abs(p.u @ (sys_.D * p.u) - 1.0) <= 1e-12
        assert p.u[np.argmax(np.abs(p.u))] > 0


def test_nested_dissection_halves_the_fill_n64(monkeypatch):
    """The factor the solver makes, in nested-dissection order, against
    SuperLU's default COLAMD ordering of K in its own numbering."""
    _, sys_ = _system("laplace", 64)
    splu, factors = spla.splu, []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", recording_splu)
    _iterative_eigentriples(sys_, 1, 0)
    monkeypatch.undo()
    (lu,) = factors
    colamd = splu(sp.bmat([[sys_.M, sys_.B.T], [sys_.B, -sp.diags(sys_.C)]],
                          format="csc"))
    fill = lu.L.nnz + lu.U.nnz
    assert fill < 0.7 * (colamd.L.nnz + colamd.U.nnz)


def test_nested_dissection_n128_matches_colamd():
    _, sys_ = _system("laplace", 128)
    vals, vecs, sigmas, residuals = _iterative_eigentriples(sys_, 4, 0)
    assert np.array_equal(_check_eigentriples(sys_, vals, vecs, sigmas),
                          residuals)
    reference = colamd_eigenvalues(sys_, 4, 0)
    assert np.all(np.abs(vals - reference) <= 1e-12 * reference)


def test_iterative_matches_dense_n16():
    mesh, sys_ = _system("laplace", 16)
    dense = solve_mixed_eigenproblem(mesh, sys_, 4)
    it = solve_mixed_eigenproblem(mesh, sys_, 4, method="iterative", seed=0)
    rel = np.abs(it.eigenvalues - dense.eigenvalues) / dense.eigenvalues
    assert rel.max() <= 1e-12
    for pd, pi in zip(dense.pairs[:1], it.pairs[:1]):  # simple eigenvalue
        assert np.abs(pi.u - pd.u).max() <= 1e-10 * np.abs(pd.u).max()
        assert (np.abs(pi.sigma - pd.sigma).max()
                <= 1e-10 * np.abs(pd.sigma).max())


@pytest.fixture(scope="module")
def triples():
    _, sys_ = _system("laplace", 16)
    vals, vecs, sigmas, residuals = _iterative_eigentriples(sys_, 4, 0)
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
    consistent[:, 2] = -sys_.solve_flux_mass(sys_.B.T @ bad[:, 2])
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


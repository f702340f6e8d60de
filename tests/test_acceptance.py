"""Acceptance suite: end-to-end checks of the advertised convergence and
reporting behavior, printing one PASS/FAIL line per criterion (run with -s
to see them all)."""

import time

import numpy as np
import pytest

from rt0eig import (assemble, build_structured_mesh, get_preset,
                    laplace_eigenpair, solve_mixed_eigenproblem, UNIT_SQUARE)
from rt0eig.eigensolver import flux_mass_factor, schur_complement, solve_gevp
from rt0eig.cli import StudyConfig, run_study
from rt0eig.coefficients import MIDPOINT_RULE
from oracles import (duffy_triangle_integral, element_flux_mass,
                     fortin_interpolate, saddle_point_eigenvalues,
                     symbolic_flux_mass, triangle_coords)

PI2 = np.pi**2


def _criterion(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def laplace_study(tmp_path_factory):
    cfg = StudyConfig(preset="laplace", levels=[8, 16, 32], k=4,
                      compute_superclose=True,
                      output_dir=tmp_path_factory.mktemp("laplace"))
    start = time.perf_counter()
    table, runs = run_study(cfg)
    seconds = time.perf_counter() - start
    return table, runs, seconds


@pytest.fixture(scope="module")
def variable_study(tmp_path_factory):
    cfg = StudyConfig(preset="variable", levels=[8, 16, 32], k=4,
                      output_dir=tmp_path_factory.mktemp("variable"))
    table, _ = run_study(cfg)
    return table


def test_leading_coefficient_of_mode_1_1_is_pi2_over_18():
    """The leading term of the expansion of the first laplace eigenvalue
    on this mesh: lambda_h = 2 pi^2 + (pi^4 / 18) h^2 + O(h^4) with
    h = 1 / n, the grid spacing, not the mesh's diagonal h.  The scaled
    errors (lambda_h - 2 pi^2) n^2 / pi^2 at n = 32 and 64, extrapolated
    in h^2, give pi^2 / 18 to 1.1e-7."""
    prob = get_preset("laplace")
    scaled = []
    for n in (32, 64):
        mesh = build_structured_mesh(UNIT_SQUARE, n)
        lam = solve_mixed_eigenproblem(mesh, assemble(mesh, prob),
                                       1).eigenvalues[0]
        scaled.append((lam - 2.0 * PI2) * n**2 / PI2)
    coefficient = (4.0 * scaled[1] - scaled[0]) / 3.0
    assert abs(coefficient - PI2 / 18.0) <= 1e-6


def test_criterion_1_raw_eigenvalue_order(laplace_study):
    table, _, seconds = laplace_study
    row = table.rows[0]
    assert row.reference == pytest.approx(2.0 * PI2, rel=1e-14)
    orders_ok = bool(np.all((row.order_raw >= 1.8) & (row.order_raw <= 2.2)))
    runtime_ok = seconds < 60.0
    ok = _criterion(1, "raw eigenvalue order", orders_ok and runtime_ok)
    assert orders_ok, f"orders {row.order_raw} outside [1.8, 2.2]"
    assert runtime_ok, f"study took {seconds:.1f}s >= 60s"
    assert ok


def test_criterion_2_extrapolation_gain(laplace_study):
    table, _, _ = laplace_study
    row = table.rows[0]
    # extrapolated error strictly below the fine-level raw error, each pair
    gain_ok = bool(np.all(row.err_extrap < row.err_raw[1:]))
    order_ok = bool(row.order_extrap[0] >= 3.0)
    ok = _criterion(2, "extrapolation gain", gain_ok and order_ok)
    assert gain_ok, f"extrap errors {row.err_extrap} vs raw {row.err_raw[1:]}"
    assert order_ok, f"extrapolated order {row.order_extrap[0]} < 3.0"
    assert ok


def test_criterion_3_multiple_eigenvalue_cluster(laplace_study):
    table, _, _ = laplace_study
    clusters = {row.label: row for row in table.rows}
    detected = "2-3" in clusters
    if detected:
        row = clusters["2-3"]
        assert row.indices == [1, 2]
        assert row.reference == pytest.approx(5.0 * PI2, rel=1e-14)
        raw_ok = bool(np.all((row.order_raw >= 1.8) & (row.order_raw <= 2.2)))
        extrap_ok = bool(row.order_extrap[0] >= 2.5)
    else:
        raw_ok = extrap_ok = False
    ok = _criterion(3, "multiple eigenvalue cluster", detected and raw_ok and extrap_ok)
    assert detected, f"clusters found: {sorted(clusters)}"
    assert raw_ok, f"cluster raw orders {clusters['2-3'].order_raw}"
    assert extrap_ok, f"cluster extrap order {clusters['2-3'].order_extrap}"
    assert ok


def test_criterion_4_superclose_gap(laplace_study):
    table, _, _ = laplace_study
    sc = table.superclose
    gaps = sc.order_distance - sc.order_err_u
    ok = _criterion(4, "superclose gap", bool(np.all(gaps >= 0.7)))
    assert np.all(gaps >= 0.7), (
        f"superclose orders {sc.order_distance} vs err_u {sc.order_err_u}")
    assert ok


def test_criterion_5_spectral_shift(laplace_study):
    _, runs, _ = laplace_study
    lap16 = next(r for r in runs if r.result.n == 16).result.eigenvalues
    mesh = build_structured_mesh(UNIT_SQUARE, 16)
    sys_ = assemble(mesh, get_preset("shifted"))
    s = schur_complement(sys_, flux_mass_factor(sys_.M))
    vals, _, _ = solve_gevp(s, sys_.D, 4)
    rel = np.abs(vals - (lap16 + 5.0)) / np.abs(lap16 + 5.0)
    ok = _criterion(5, "spectral shift identity", bool(rel.max() <= 1e-8))
    assert rel.max() <= 1e-8, f"max relative shift mismatch {rel.max():g}"
    assert ok


def test_criterion_6_small_instance_oracles():
    prob = get_preset("laplace")
    pencil_ok = True
    for n in (1, 2):
        mesh = build_structured_mesh(UNIT_SQUARE, n)
        sys_ = assemble(mesh, prob)
        s = schur_complement(sys_, flux_mass_factor(sys_.M))
        vals, _, _ = solve_gevp(s, sys_.D, sys_.num_triangles)
        oracle = saddle_point_eigenvalues(sys_)
        pencil_ok &= bool(
            np.abs(vals - oracle).max() <= 1e-9 * np.abs(oracle).max())

    rule = MIDPOINT_RULE
    identity = lambda x, y: np.eye(2)
    tris = [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
    rng = np.random.default_rng(2718)
    while len(tris) < 4:
        tri = rng.uniform(-1.5, 1.5, (3, 2))
        if 0.5 * abs(np.linalg.det(np.vstack([tri[1] - tri[0],
                                              tri[2] - tri[0]]))) >= 0.05:
            tris.append(tri)
    element_ok = True
    for tri in tris:
        signs = rng.choice([-1, 1], 3)
        got = element_flux_mass(tri, signs, identity, rule)
        want = symbolic_flux_mass(tri, signs)
        element_ok &= bool(np.abs(got - want).max() <= 1e-12)

    ok = _criterion(6, "small-instance oracle equivalence",
                    pencil_ok and element_ok)
    assert pencil_ok, "Schur eigenvalues differ from saddle-point pencil"
    assert element_ok, "element flux mass differs from symbolic oracle"
    assert ok


def test_criterion_7_commuting_diagram():
    mesh = build_structured_mesh(UNIT_SQUARE, 8)
    sys_ = assemble(mesh, get_preset("laplace"))
    pair = laplace_eigenpair(1, 1, UNIT_SQUARE)
    coeffs = fortin_interpolate(pair.grad_u, mesh, npts=3)
    lhs = sys_.B @ coeffs
    rhs = np.array([
        duffy_triangle_integral(
            lambda x, y: -pair.lam * pair.u(x, y), triangle_coords(mesh, t))
        for t in range(mesh.num_triangles)
    ])
    gap = float(np.abs(lhs - rhs).max())
    ok = _criterion(7, "commuting diagram", gap <= 1e-8)
    assert gap <= 1e-8, f"commuting residual {gap:g} > 1e-8"
    assert ok


def test_criterion_8_determinism(tmp_path_factory):
    base = dict(preset="laplace", levels=[8, 16], k=4,
                compute_superclose=True)
    dir_a = tmp_path_factory.mktemp("det_a")
    dir_b = tmp_path_factory.mktemp("det_b")
    run_study(StudyConfig(output_dir=dir_a, **base))
    run_study(StudyConfig(output_dir=dir_b, **base))
    same_csv = ((dir_a / "report.csv").read_bytes()
                == (dir_b / "report.csv").read_bytes())
    same_json = ((dir_a / "report.json").read_bytes()
                 == (dir_b / "report.json").read_bytes())
    ok = _criterion(8, "deterministic reports", same_csv and same_json)
    assert same_csv and same_json
    assert ok


def test_criterion_9_variable_coefficients(variable_study):
    table = variable_study
    assert table.reference_kind == "self"
    row = table.rows[0]
    orders = row.order_raw[~np.isnan(row.order_raw)]
    in_range = bool(orders.size and
                    np.all((orders >= 1.6) & (orders <= 2.4)))
    ok = _criterion(9, "variable-coefficient sanity", in_range)
    assert in_range, f"self-referenced orders {row.order_raw}"
    assert ok

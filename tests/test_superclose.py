import re

import numpy as np
import pytest

from rt0eig import (assemble, build_structured_mesh, get_preset, l2_errors,
                    laplace_eigenpair, laplace_eigenvalues, p0_project,
                    solve_mixed_eigenproblem, superclose_distance,
                    UNIT_SQUARE)
from rt0eig.coefficients import MIDPOINT_RULE
from rt0eig.mesh import Rectangle
from oracles import (duffy_superclose_measures, duffy_triangle_integral,
                     edge_normals, fortin_interpolate, gauss_edge_integral,
                     loop_laplace_eigenvalues,
                     pointwise_fortin, pointwise_l2_errors,
                     pointwise_p0_project, triangle_coords)


def test_analytic_eigenpair_unit_square():
    pair = laplace_eigenpair(2, 3, UNIT_SQUARE)
    assert pair.lam == pytest.approx((4 + 9) * np.pi**2, rel=1e-15)
    assert pair.u(0.25, 0.5) == pytest.approx(
        2.0 * np.sin(2 * np.pi * 0.25) * np.sin(3 * np.pi * 0.5), rel=1e-14)


def test_analytic_eigenpair_is_l2_normalized(unit_mesh_n4):
    pair = laplace_eigenpair(1, 2, UNIT_SQUARE)
    total = sum(duffy_triangle_integral(lambda x, y: pair.u(x, y) ** 2,
                                        triangle_coords(unit_mesh_n4, t))
                for t in range(unit_mesh_n4.num_triangles))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mode", [(1.5, 1), (True, 1), (1, 2.0)],
                         ids=["1.5", "True", "2.0"])
def test_laplace_eigenpair_rejects_a_mode_that_is_not_a_mode_number(mode):
    """(1.5, 1) gave lam = 32.08, which is no eigenvalue, and (True, 1)
    ran as (1, 1)."""
    with pytest.raises(ValueError, match=re.escape(
            f"mode numbers must be integers >= 1, got {mode}")):
        laplace_eigenpair(*mode, UNIT_SQUARE)


def test_laplace_eigenpair_takes_numpy_mode_numbers():
    pair = laplace_eigenpair(np.int64(2), np.int32(3), UNIT_SQUARE)
    assert pair.mode == (2, 3)
    assert all(type(m) is int for m in pair.mode)
    assert pair.lam == laplace_eigenpair(2, 3, UNIT_SQUARE).lam


def test_gradient_matches_finite_differences():
    pair = laplace_eigenpair(2, 1, Rectangle(0.0, 0.0, 2.0, 1.5))
    rng = np.random.default_rng(9)
    eps = 1e-6
    for _ in range(20):
        x = rng.uniform(0.1, 1.9)
        y = rng.uniform(0.1, 1.4)
        g = pair.grad_u(x, y)
        fx = (pair.u(x + eps, y) - pair.u(x - eps, y)) / (2 * eps)
        fy = (pair.u(x, y + eps) - pair.u(x, y - eps)) / (2 * eps)
        assert g == pytest.approx([fx, fy], abs=1e-7)


def test_laplace_eigenvalues_sorted_with_multiplicity():
    vals = laplace_eigenvalues(4, UNIT_SQUARE)
    pi2 = np.pi**2
    assert vals == pytest.approx([2 * pi2, 5 * pi2, 5 * pi2, 8 * pi2], rel=1e-14)
    shifted = laplace_eigenvalues(4, UNIT_SQUARE, shift=5.0)
    assert shifted == pytest.approx(vals + 5.0, rel=1e-14)


def test_p0_project_constant(unit_mesh_n4):
    out = p0_project(lambda x, y: 3.25, unit_mesh_n4)
    assert out == pytest.approx(np.full(unit_mesh_n4.num_triangles, 3.25), rel=1e-15)


def test_p0_project_linear_hits_centroid(unit_mesh_n2):
    out = p0_project(lambda x, y: x, unit_mesh_n2)
    centroids = unit_mesh_n2.vertices[unit_mesh_n2.triangles].mean(axis=1)
    assert out == pytest.approx(centroids[:, 0], rel=1e-14)


def test_p0_project_scaling(unit_mesh_n2):
    base = p0_project(lambda x, y: np.sin(x + y), unit_mesh_n2)
    scaled = p0_project(lambda x, y: -2.5 * np.sin(x + y), unit_mesh_n2)
    assert scaled == pytest.approx(-2.5 * base, rel=1e-13)


def test_fortin_constant_field_gives_normal_components(unit_mesh_n2):
    coeffs = fortin_interpolate(lambda x, y: np.array([1.0, 0.0]),
                                unit_mesh_n2, npts=2)
    normals = edge_normals(unit_mesh_n2)
    assert coeffs == pytest.approx(normals[:, 0], abs=1e-14)


def test_fortin_boundary_edge_against_line_integral_oracle():
    """Vertical boundary edge at x=0: mean flux of grad(2 sin pi x sin pi y)."""
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    pair = laplace_eigenpair(1, 1, UNIT_SQUARE)
    coeffs = fortin_interpolate(pair.grad_u, mesh, npts=3)
    # locate the edge from (0, 0.25) to (0, 0.5)
    target = None
    for e, (a, b) in enumerate(mesh.edges):
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        if (abs(pa[0]) < 1e-14 and abs(pb[0]) < 1e-14
                and abs(pa[1] - 0.25) < 1e-14 and abs(pb[1] - 0.5) < 1e-14):
            target = e
    assert target is not None
    # closed form: -(1/len) * int_{1/4}^{1/2} 2 pi sin(pi y) dy = -4 sqrt(2);
    # the 3-point Gauss rule carries ~1e-6 error on an edge this long
    assert coeffs[target] == pytest.approx(-4.0 * np.sqrt(2.0), abs=2e-6)
    # independent high-order line-integral oracle, normal (-1, 0)
    oracle = -gauss_edge_integral(lambda x, y: pair.grad_u(x, y)[0],
                                  (0.0, 0.25), (0.0, 0.5)) / 0.25
    assert oracle == pytest.approx(-4.0 * np.sqrt(2.0), abs=1e-13)
    assert coeffs[target] == pytest.approx(oracle, abs=2e-6)


def test_commuting_diagram(unit_mesh_n8):
    """B applied to the interpolant reproduces elementwise div integrals."""
    mesh = unit_mesh_n8
    sys_ = assemble(mesh, get_preset("laplace"))
    pair = laplace_eigenpair(1, 1, UNIT_SQUARE)
    coeffs = fortin_interpolate(pair.grad_u, mesh, npts=3)
    lhs = sys_.B @ coeffs
    rhs = np.array([
        duffy_triangle_integral(
            lambda x, y: -pair.lam * pair.u(x, y), triangle_coords(mesh, t))
        for t in range(mesh.num_triangles)
    ])
    assert np.abs(lhs - rhs).max() <= 1e-8


def test_superclose_distance_identical_and_flipped(unit_mesh_n2):
    d = np.full(unit_mesh_n2.num_triangles, 0.125)
    rng = np.random.default_rng(13)
    u = rng.standard_normal(unit_mesh_n2.num_triangles)
    u /= np.sqrt(u @ (d * u))
    assert superclose_distance(u, u.copy(), d) == 0.0
    assert superclose_distance(u, -u, d) == pytest.approx(0.0, abs=1e-15)


def test_superclose_distance_rejects_zero_projection(unit_mesh_n2):
    """A zero projection, and a u_h of zero D-norm or with a NaN in it,
    raise ValueError naming the vector rather than returning NaN."""
    d = np.full(unit_mesh_n2.num_triangles, 0.125)
    u = np.ones(unit_mesh_n2.num_triangles)
    with pytest.raises(ValueError, match="projection vector"):
        superclose_distance(u, np.zeros_like(u), d)
    nan_u = u.copy()
    nan_u[3] = np.nan
    for bad in (np.zeros_like(u), nan_u):
        with pytest.raises(ValueError, match="u_h"):
            superclose_distance(bad, u, d)


def test_superclose_distance_scale_invariant(unit_mesh_n2):
    d = np.full(unit_mesh_n2.num_triangles, 0.125)
    rng = np.random.default_rng(14)
    u = rng.standard_normal(unit_mesh_n2.num_triangles)
    u /= np.sqrt(u @ (d * u))
    pu = rng.standard_normal(unit_mesh_n2.num_triangles)
    a = superclose_distance(u, pu, d)
    b = superclose_distance(u, 7.5 * pu, d)
    assert a == pytest.approx(b, rel=1e-13)


def _solved_level(n, k=1):
    mesh = build_structured_mesh(UNIT_SQUARE, n)
    sys_ = assemble(mesh, get_preset("laplace"))
    return mesh, sys_, solve_mixed_eigenproblem(mesh, sys_, k)


def test_l2_error_of_projection_equals_p0_error():
    """With u_h := P0(u), err_u is the pure piecewise-constant error.

    The two sides differ only by the midpoint rule's quadrature error on
    the projection and the squared difference, a few parts in a thousand
    at this resolution; the order-1 decay of the projection error itself
    is checked separately.
    """
    pair = laplace_eigenpair(1, 1, UNIT_SQUARE)
    errs = []
    for n in (4, 8):
        mesh, sys_, _ = _solved_level(n)
        pu = p0_project(pair.u, mesh)
        err_u, _ = l2_errors(pu, np.zeros(mesh.num_edges), mesh, pair)
        oracle = np.sqrt(sum(
            duffy_triangle_integral(
                lambda x, y, t=t: (pair.u(x, y) - pu[t]) ** 2,
                triangle_coords(mesh, t))
            for t in range(mesh.num_triangles)))
        assert err_u == pytest.approx(oracle, rel=8e-3)
        errs.append(oracle)
    assert 0.8 <= np.log2(errs[0] / errs[1]) <= 1.2  # order 1 in h


@pytest.mark.parametrize("n", [8, 16])
def test_measures_match_a_duffy_reference(n):
    """The superclose distance, err_u and err_sigma of laplace mode (1,1)
    differ from a Duffy-Gauss reference by the midpoint rule's quadrature
    error alone: at n = 8 relative errors of 1.2e-2, 8.0e-4 and 6.3e-4,
    falling as h^2, here with a margin of a quarter."""
    pair = laplace_eigenpair(1, 1, UNIT_SQUARE)
    mesh, sys_, res = _solved_level(n)
    u_h, sigma_h = res.vectors[:, 0], res.fluxes[:, 0]
    got = (superclose_distance(u_h, p0_project(pair.u, mesh), sys_.D),
           *l2_errors(u_h, sigma_h, mesh, pair))
    want = duffy_superclose_measures(u_h, sigma_h, mesh, pair, sys_.D)
    for name, g, w, rel in zip(("distance", "err_u", "err_sigma"), got,
                               want, (1.2e-2, 8.0e-4, 6.3e-4)):
        assert abs(g - w) <= 1.25 * rel * (8 / n) ** 2 * w, name


def test_l2_error_of_zero_function_is_one():
    mesh, sys_, _ = _solved_level(8)
    pair = laplace_eigenpair(1, 1, UNIT_SQUARE)
    err_u, err_sigma = l2_errors(np.zeros(mesh.num_triangles),
                                 np.zeros(mesh.num_edges), mesh, pair)
    assert err_u == pytest.approx(1.0, abs=1e-4)
    assert err_sigma == pytest.approx(np.sqrt(pair.lam), rel=1e-3)


def test_flux_error_first_order():
    pair = laplace_eigenpair(1, 1, UNIT_SQUARE)
    errs = []
    for n in (4, 8):
        mesh, sys_, res = _solved_level(n)
        _, err_sigma = l2_errors(res.vectors[:, 0], res.fluxes[:, 0], mesh,
                                 pair)
        errs.append(err_sigma)
    order = np.log2(errs[0] / errs[1])
    assert 0.8 <= order <= 1.2


def test_superclose_beats_plain_error():
    pair = laplace_eigenpair(1, 1, UNIT_SQUARE)
    dist, err = [], []
    for n in (4, 8):
        mesh, sys_, res = _solved_level(n)
        pu = p0_project(pair.u, mesh)
        dist.append(superclose_distance(res.vectors[:, 0], pu, sys_.D))
        err.append(l2_errors(res.vectors[:, 0], res.fluxes[:, 0], mesh,
                             pair)[0])
        assert dist[-1] < err[-1]
    assert np.log2(dist[0] / dist[1]) > np.log2(err[0] / err[1])


@pytest.mark.parametrize("rect", [Rectangle(0.0, 0.0, 10.0, 1.0),
                                  Rectangle(0.0, 0.0, 1.0, 2.0),
                                  Rectangle(0.0, 0.0, 4.0, 1.0),
                                  UNIT_SQUARE])
@pytest.mark.parametrize("count", [1, 7, 20, 45])
def test_laplace_eigenvalues_match_brute_force(rect, count):
    m, n = np.meshgrid(np.arange(1, 201), np.arange(1, 201))
    brute = np.sort(np.pi**2 * (m**2 / rect.width**2
                                + n**2 / rect.height**2), axis=None)
    got = laplace_eigenvalues(count, rect, shift=1.5)
    assert got == pytest.approx(brute[:count] + 1.5, rel=1e-14)


@pytest.mark.parametrize("count", [-1, 2.5, True],
                         ids=["-1", "2.5", "True"])
def test_laplace_eigenvalues_rejects_a_count_that_is_not_a_count(count):
    """-1 gave an empty array and 2.5 died in a slice."""
    with pytest.raises(ValueError,
                       match=f"count must be an integer >= 0, got {count}$"):
        laplace_eigenvalues(count, UNIT_SQUARE)


def test_laplace_eigenvalues_takes_numpy_and_zero_counts():
    assert laplace_eigenvalues(0, UNIT_SQUARE).shape == (0,)
    assert np.array_equal(laplace_eigenvalues(np.int64(3), UNIT_SQUARE),
                          laplace_eigenvalues(3, UNIT_SQUARE))


@pytest.mark.parametrize("rect", [UNIT_SQUARE,
                                  Rectangle(0.0, 0.0, 10.0, 1.0),
                                  Rectangle(0.0, 0.0, 1.0, 0.001),
                                  Rectangle(0.0, 0.0, 1.0, 2.0),
                                  Rectangle(0.0, 0.0, 4.0, 1.0),
                                  Rectangle(-1.0, 0.5, 2.0, 3.5),
                                  Rectangle(0.0, 0.0, 0.3, 0.7)])
def test_laplace_eigenvalues_bitwise_equal_to_axis_bound_loop(rect):
    for count in [*range(1, 60), 100, 257]:
        for shift in (0.0, 1.5, 5.0):
            got = laplace_eigenvalues(count, rect, shift=shift)
            want = loop_laplace_eigenvalues(count, rect, shift=shift)
            assert got.shape == want.shape == (count,)
            assert np.array_equal(got, want), (count, shift)


def test_eigenpair_broadcasts_over_point_arrays():
    pair = laplace_eigenpair(2, 1, Rectangle(0.0, 0.0, 2.0, 1.5))
    rng = np.random.default_rng(21)
    x, y = rng.uniform(0, 1.5, (2, 3, 4))
    u, g = pair.u(x, y), pair.grad_u(x, y)
    assert u.shape == (3, 4) and g.shape == (3, 4, 2)
    for i in range(3):
        for j in range(4):
            assert u[i, j] == pair.u(x[i, j], y[i, j])
            assert np.array_equal(g[i, j], pair.grad_u(x[i, j], y[i, j]))


def _tensor(x, y):
    a = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)) + (2, 2))
    a[..., 0, 0] = 2.0 + x
    a[..., 0, 1] = a[..., 1, 0] = 0.3 * y
    a[..., 1, 1] = 1.0 + x * y
    return a


@pytest.mark.parametrize("rect, n, mode", [
    (UNIT_SQUARE, 8, (1, 1)), (Rectangle(0.0, 0.0, 2.0, 1.0), 4, (1, 2))])
def test_projections_and_errors_match_pointwise_oracles(rect, n, mode):
    mesh = build_structured_mesh(rect, n)
    pair = laplace_eigenpair(*mode, rect)
    rng = np.random.default_rng(n)
    got = p0_project(pair.u, mesh)
    want = pointwise_p0_project(pair.u, mesh, MIDPOINT_RULE)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    for npts in (2, 3):
        got = fortin_interpolate(pair.grad_u, mesh, npts)
        want = pointwise_fortin(pair.grad_u, mesh, npts)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    u_h = -p0_project(pair.u, mesh) + 0.05 * rng.standard_normal(
        mesh.num_triangles)
    sigma_h = -fortin_interpolate(pair.grad_u, mesh) + 0.05 * (
        rng.standard_normal(mesh.num_edges))
    for A in (None, _tensor):
        got = l2_errors(u_h, sigma_h, mesh, pair, A=A)
        want = pointwise_l2_errors(u_h, sigma_h, mesh, pair, MIDPOINT_RULE,
                                   A=A)
        assert got == pytest.approx(want, rel=1e-13)

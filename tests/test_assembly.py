import warnings

import numpy as np
import pytest
import scipy.io

from rt0eig import (AssemblyError, Rectangle, assemble,
                    build_structured_mesh, get_preset, UNIT_SQUARE)
from rt0eig.cli import StudyConfig, run_level
from rt0eig.coefficients import MIDPOINT_RULE, ProblemSpec
from oracles import (dump_matrix, element_assembly, element_div,
                     element_flux_mass, symbolic_flux_mass, triangle_coords)

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
IDENTITY = lambda x, y: np.eye(2)

# exact flux mass of the reference triangle, A = I, all signs +1,
# frozen from the symbolic integration oracle
REF_FLUX_MASS = np.array([
    [1.0 / 3.0, 0.0, 0.0],
    [0.0, 1.0 / 3.0, -1.0 / 6.0],
    [0.0, -1.0 / 6.0, 1.0 / 3.0],
])


def _random_triangle(rng, min_area=0.05):
    tri = rng.uniform(-1.5, 1.5, (3, 2))
    while 0.5 * abs(np.linalg.det(np.vstack([tri[1] - tri[0], tri[2] - tri[0]]))) < min_area:
        tri = rng.uniform(-1.5, 1.5, (3, 2))
    return tri


def test_element_flux_mass_reference_triangle():
    m = element_flux_mass(REF_TRI, [1, 1, 1], IDENTITY, MIDPOINT_RULE)
    assert np.abs(m - REF_FLUX_MASS).max() <= 1e-12


def test_element_flux_mass_matches_symbolic_oracle_random():
    rng = np.random.default_rng(20240501)
    for _ in range(3):
        tri = _random_triangle(rng)
        signs = rng.choice([-1, 1], 3)
        got = element_flux_mass(tri, signs, IDENTITY, MIDPOINT_RULE)
        want = symbolic_flux_mass(tri, signs)
        assert np.abs(got - want).max() <= 1e-12


def test_element_flux_mass_spd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tri = _random_triangle(rng)
        m = element_flux_mass(tri, [1, -1, 1], IDENTITY, MIDPOINT_RULE)
        assert np.abs(m - m.T).max() == 0.0
        assert np.linalg.eigvalsh(m).min() > 0.0


def test_element_flux_mass_scaling_covariance():
    rng = np.random.default_rng(6)
    tri = _random_triangle(rng)
    m1 = element_flux_mass(tri, [1, 1, -1], IDENTITY, MIDPOINT_RULE)
    m2 = element_flux_mass(2.0 * tri, [1, 1, -1], IDENTITY, MIDPOINT_RULE)
    assert np.abs(m2 - 4.0 * m1).max() <= 1e-12 * np.abs(m2).max()


def test_element_flux_mass_rejects_degenerate():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(AssemblyError):
        element_flux_mass(flat, [1, 1, 1], IDENTITY, MIDPOINT_RULE)
    with pytest.raises(AssemblyError):
        element_div(flat, [1, 1, 1])


def test_element_div_reference_triangle():
    row = element_div(REF_TRI, [1, 1, 1])
    assert row == pytest.approx([np.sqrt(2.0), 1.0, 1.0], abs=1e-15)
    flipped = element_div(REF_TRI, [1, -1, 1])
    assert flipped == pytest.approx([np.sqrt(2.0), -1.0, 1.0], abs=1e-15)


def test_assemble_laplace_n2_shapes_and_masses(unit_mesh_n2):
    sys_ = assemble(unit_mesh_n2, get_preset("laplace"))
    assert sys_.M.shape == (16, 16)
    assert sys_.B.shape == (8, 16)
    assert np.all(sys_.C == 0.0)
    assert sys_.D == pytest.approx(np.full(8, 0.125), abs=1e-16)


def test_assemble_global_flux_mass_matches_element_oracle(unit_mesh_n2):
    m = unit_mesh_n2
    sys_ = assemble(m, get_preset("laplace"))
    want = np.zeros((m.num_edges, m.num_edges))
    for t in range(m.num_triangles):
        local = symbolic_flux_mass(triangle_coords(m, t),
                                   m.triangle_edge_signs[t])
        e = m.triangle_edges[t]
        want[np.ix_(e, e)] += local
    assert np.abs(sys_.M.toarray() - want).max() <= 1e-12


def test_assemble_b_rows_have_three_nonzeros(unit_mesh_n4):
    sys_ = assemble(unit_mesh_n4, get_preset("laplace"))
    nnz_per_row = np.diff(sys_.B.indptr)
    assert np.all(nnz_per_row == 3)


def test_shifted_reaction_is_five_times_weight(unit_mesh_n2):
    sys_ = assemble(unit_mesh_n2, get_preset("shifted"))
    assert np.array_equal(sys_.C, 5.0 * sys_.D)


def test_flux_mass_symmetry(unit_mesh_n8):
    sys_ = assemble(unit_mesh_n8, get_preset("variable"))
    m = sys_.M.toarray()
    assert np.abs(m - m.T).max() <= 1e-13 * np.abs(m).max()


def test_divergence_compatibility(unit_mesh_n4):
    """Interior-supported flux vectors have zero total discrete divergence."""
    sys_ = assemble(unit_mesh_n4, get_preset("laplace"))
    interior = ~unit_mesh_n4.boundary_edge_flags
    rng = np.random.default_rng(17)
    for _ in range(5):
        sigma = np.zeros(unit_mesh_n4.num_edges)
        sigma[interior] = rng.standard_normal(interior.sum())
        assert abs((sys_.B @ sigma).sum()) <= 1e-12 * np.abs(sigma).max()


def test_weight_mass_refinement_scaling():
    coarse = build_structured_mesh(UNIT_SQUARE, 2)
    fine = build_structured_mesh(coarse.rect, 2 * coarse.n)
    d_coarse = assemble(coarse, get_preset("laplace")).D
    d_fine = assemble(fine, get_preset("laplace")).D
    assert d_fine == pytest.approx(np.full(fine.num_triangles, d_coarse[0] / 4.0), rel=1e-14)


def test_assemble_rejects_domain_mismatch(unit_mesh_n2):
    prob = get_preset("laplace")
    other = ProblemSpec(name="off", domain=type(prob.domain)(0, 0, 2, 1),
                        A=prob.A, c=prob.c, b=prob.b)
    with pytest.raises(AssemblyError):
        assemble(unit_mesh_n2, other)


@pytest.mark.parametrize("bad, message", [
    (dict(A=lambda x, y: np.array([[1.0, 0.5], [0.0, 1.0]])), "symmetric"),
    (dict(A=lambda x, y: -np.eye(2)), "positive definite"),
    (dict(c=lambda x, y: -1.0), "coefficient c"),
    (dict(b=lambda x, y: 0.0), "coefficient b"),
])
def test_assemble_rejects_bad_coefficients(unit_mesh_n2, bad, message):
    base = get_preset("laplace")
    prob = ProblemSpec(
        name="bad", domain=base.domain,
        A=bad.get("A", base.A), c=bad.get("c", base.c), b=bad.get("b", base.b))
    with pytest.raises(AssemblyError, match=message):
        assemble(unit_mesh_n2, prob)


def test_assembly_error_names_location(unit_mesh_n2):
    base = get_preset("laplace")
    prob = ProblemSpec(name="bad", domain=base.domain, A=base.A,
                       c=lambda x, y: -2.0, b=base.b)
    with pytest.raises(AssemblyError, match="triangle 0"):
        assemble(unit_mesh_n2, prob)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _assert_dumps_round_trip(out, name, n):
    prob = get_preset(name)
    out.mkdir()
    cfg = StudyConfig(preset=name, levels=[n, 2 * n], k=1,
                      dump_matrices=True, output_dir=out)
    run_level(cfg, prob, n)
    sys_ = assemble(build_structured_mesh(prob.domain, n), prob)
    diag = np.arange(sys_.num_triangles)
    for block in "MBCD":
        path = out / f"matrix_n{n}_{block}.mtx"
        assert path.read_text(encoding="utf-8").startswith(
            "%%MatrixMarket matrix coordinate real general\n")
        got = scipy.io.mmread(path)
        want = getattr(sys_, block)
        if block in "MB":
            assert got.shape == want.shape
            want = want.tocoo()
            rows, cols, vals = want.row, want.col, want.data
        else:
            assert got.shape == (diag.size, diag.size)
            rows, cols, vals = diag, diag, want
        np.testing.assert_array_equal(got.row, rows)
        np.testing.assert_array_equal(got.col, cols)
        np.testing.assert_array_equal(_bits(got.data), _bits(vals))
    if name == "laplace":
        assert not sys_.C.any()


def test_dump_matrix_coordinate_format(tmp_path):
    """A level's dumps are Matrix Market coordinate files from which
    scipy.io.mmread returns every block exactly: M and B with their stored
    entries in storage order, C and D as diagonals that keep their zeros
    (all of laplace's C)."""
    for name, n in (("laplace", 1), ("laplace", 16), ("shifted", 2),
                    ("variable", 3)):
        _assert_dumps_round_trip(tmp_path / f"{name}{n}", name, n)


def _custom_tensor(x, y):
    a = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)) + (2, 2))
    a[..., 0, 0] = 2.0 + np.sin(x)
    a[..., 0, 1] = a[..., 1, 0] = 0.25 * x * y
    a[..., 1, 1] = 1.0 + y * y
    return a


CUSTOM = ProblemSpec(name="custom", domain=Rectangle(0.0, 0.0, 2.0, 1.0),
                     A=_custom_tensor, c=lambda x, y: x * y**2,
                     b=lambda x, y: 1.0 + 0.5 * np.cos(x * y))


def _assert_dumps_identical(mesh, prob):
    sys_ = assemble(mesh, prob)
    want = element_assembly(mesh, prob, MIDPOINT_RULE)
    for name, block in zip("MBCD", want):
        assert dump_matrix(getattr(sys_, name)) == dump_matrix(block), name


@pytest.mark.parametrize("n", [1, 3, 8, 16])
@pytest.mark.parametrize("name", ["laplace", "shifted", "variable"])
def test_array_assembly_byte_identical_to_element_loop(name, n):
    prob = get_preset(name)
    _assert_dumps_identical(build_structured_mesh(prob.domain, n), prob)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_array_assembly_byte_identical_custom_rectangle(n):
    _assert_dumps_identical(build_structured_mesh(CUSTOM.domain, n), CUSTOM)


def _with(**coeffs):
    base = get_preset("laplace")
    return ProblemSpec(name="bad", domain=base.domain,
                       A=coeffs.get("A", base.A), c=coeffs.get("c", base.c),
                       b=coeffs.get("b", base.b))


def _first_triangle_with_point(mesh, inside):
    """Scan triangles in mesh order for a quadrature point where `inside`."""
    for t in range(mesh.num_triangles):
        if any(inside(x, y)
               for x, y in MIDPOINT_RULE.points @ triangle_coords(mesh, t)):
            return t
    raise AssertionError("no quadrature point inside the region")


def test_assembly_error_names_first_bad_interior_triangle(unit_mesh_n4):
    corner = lambda x, y: (x > 0.6) & (y > 0.6)
    t = _first_triangle_with_point(unit_mesh_n4, corner)
    assert t > 0
    prob = _with(c=lambda x, y: np.where(corner(x, y), -1.0, 0.0))
    with pytest.raises(AssemblyError,
                       match=rf"coefficient c = -1 .* in triangle {t}$"):
        assemble(unit_mesh_n4, prob)


def test_assembly_error_earliest_triangle_over_all_checks(unit_mesh_n4):
    """b is checked after c at each triangle, but its violation sits in an
    earlier triangle, so it is the one reported."""
    corner = lambda x, y: (x > 0.6) & (y > 0.6)
    left = lambda x, y: (x < 0.3) & (y > 0.6)
    t_c = _first_triangle_with_point(unit_mesh_n4, corner)
    t_b = _first_triangle_with_point(unit_mesh_n4, left)
    assert 0 < t_b < t_c
    prob = _with(c=lambda x, y: np.where(corner(x, y), -1.0, 0.0),
                 b=lambda x, y: np.where(left(x, y), 0.0, 1.0))
    with pytest.raises(AssemblyError,
                       match=rf"coefficient b = 0 .* in triangle {t_b}$"):
        assemble(unit_mesh_n4, prob)


@pytest.mark.parametrize("coeff, message", [
    ("c", "coefficient c = nan is not at least 0"),
    ("b", "coefficient b = nan is not at least 1e-12"),
    ("A", "A is not finite"),
], ids=["c", "b", "A"])
def test_nan_coefficient_names_its_first_triangle(unit_mesh_n4, coeff,
                                                  message):
    """Each check fails on NaN, which every ordered comparison rejects."""
    right = lambda x, y: x > 0.5
    t = _first_triangle_with_point(unit_mesh_n4, right)
    assert t > 0
    if coeff == "A":
        bad = lambda x, y: np.where(right(x, y)[..., None, None], np.nan,
                                    np.eye(2))
    else:
        bad = lambda x, y: np.where(right(x, y), np.nan, 1.0)
    with pytest.raises(AssemblyError,
                       match=rf"{message} at \(.*\) in triangle {t}$"):
        assemble(unit_mesh_n4, _with(**{coeff: bad}))


def _interior_edge_midpoint(mesh, e):
    """Midpoint of edge e and the first triangle in mesh order using it."""
    mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
    owners = np.flatnonzero((mesh.triangle_edges == e).any(axis=1))
    assert len(owners) == 2
    return mid, int(owners.min())


@pytest.mark.parametrize("bad, message", [
    (-np.eye(2), "not positive definite"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "not symmetric"),
])
def test_tensor_error_names_triangle_of_single_bad_point(unit_mesh_n4, bad,
                                                         message):
    mesh = unit_mesh_n4
    e = mesh.num_edges // 2
    (mx, my), t = _interior_edge_midpoint(mesh, e)
    assert t > 0

    def A(x, y):
        at = (np.abs(x - mx) < 1e-12) & (np.abs(y - my) < 1e-12)
        return np.where(at[..., None, None], bad, np.eye(2))

    with pytest.raises(AssemblyError, match=(
            rf"{message} at \({mx:g}, {my:g}\) in triangle {t}\b")):
        assemble(mesh, _with(A=A))


def test_non_broadcastable_coefficient_names_shape(unit_mesh_n2):
    # built for a single point: the (2, 2) axes come first, not last
    pointwise = lambda x, y: np.array([[1.0 + x, 0.0 * x], [0.0 * x, 1.0 + y]])
    with pytest.raises(AssemblyError,
                       match=r"coefficient A: returned shape \(2, 2, 8, 3\)"):
        assemble(unit_mesh_n2, _with(A=pointwise))
    with pytest.raises(AssemblyError,
                       match=r"coefficient c: returned shape \(5,\)"):
        assemble(unit_mesh_n2, _with(c=lambda x, y: np.ones(5)))


def _laplace_on(domain):
    base = get_preset("laplace")
    return ProblemSpec(name="laplace", domain=domain, A=base.A, c=base.c,
                       b=base.b)


def test_assemble_rejects_degenerate_triangle():
    """A sliver: its area is 5e-16 of its squared longest edge."""
    sliver = Rectangle(0.0, 0.0, 1.0, 1e-15)
    with pytest.raises(AssemblyError, match="degenerate triangle 0"):
        assemble(build_structured_mesh(sliver, 1), _laplace_on(sliver))


def test_assemble_takes_a_small_square():
    """The degenerate test is a shape test: the right isosceles triangles
    of a square of side L = 1e-6, of area 7.8e-15 at n = 8, assemble, and
    M / L^2, B / L and D / L^2 are the unit square's blocks to 1e-13."""
    side = 1e-6
    small = Rectangle(0.0, 0.0, side, side)
    got = assemble(build_structured_mesh(small, 8), _laplace_on(small))
    want = assemble(build_structured_mesh(UNIT_SQUARE, 8),
                    get_preset("laplace"))
    for block, power in (("M", 2), ("B", 1), ("D", 2)):
        scaled = getattr(got, block) / side**power
        unit = getattr(want, block)
        assert np.abs(scaled - unit).max() <= 1e-13 * np.abs(unit).max()


def test_assemble_rejects_overflowing_element_blocks():
    """The areas are finite, but the squared edge lengths overflow, so B
    and M would not be finite.  The named error comes without a numpy
    warning before it."""
    huge = Rectangle(0.0, 0.0, 1e154, 1e154)
    base = get_preset("laplace")
    prob = ProblemSpec(name="huge", domain=huge, A=base.A, c=base.c, b=base.b)
    with warnings.catch_warnings(), pytest.raises(
            AssemblyError, match="element blocks of triangle 0 are not finite"):
        warnings.simplefilter("error")
        assemble(build_structured_mesh(huge, 1), prob)

import re
import warnings

import numpy as np
import pytest

from rt0eig import (MeshError, Rectangle, UNIT_SQUARE, assemble,
                    build_structured_mesh, get_preset)
from rt0eig.eigensolver import _hybridize
from rt0eig.mesh import index_dtype, nested_dissection_order
from oracles import (brute_force_edges, dict_walk_topology, dump_mesh,
                     edge_normals, num_vertices, recursive_nested_dissection,
                     triangle_coords)


def test_rectangle_rejects_nonpositive_extent():
    with pytest.raises(MeshError):
        Rectangle(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(MeshError):
        Rectangle(0.0, 2.0, 1.0, 1.0)


@pytest.mark.parametrize("bounds", [
    (0.0, 0.0, np.inf, 1.0),
    (-1e308, 0.0, 1e308, 1.0),     # the width overflows to inf
    (0.0, -1e308, 1.0, 1e308),     # the height overflows to inf
])
def test_rectangle_rejects_non_finite_bounds_and_extent(bounds):
    with pytest.raises(MeshError, match="finite"):
        Rectangle(*bounds)


def test_overflowing_triangle_areas_rejected():
    """The rectangle is finite, but its n = 2 triangle areas are inf.  The
    named error comes without a numpy warning before it."""
    with warnings.catch_warnings(), pytest.raises(MeshError,
                                                  match="non-finite"):
        warnings.simplefilter("error")
        build_structured_mesh(Rectangle(0.0, 0.0, 1e200, 1e200), 2)


def test_invalid_subdivision_rejected():
    with pytest.raises(MeshError):
        build_structured_mesh(UNIT_SQUARE, 0)


@pytest.mark.parametrize("n", [True, 2.5, np.float64(4.0), "4"],
                         ids=["True", "2.5", "float64", "str"])
def test_subdivision_count_must_be_an_integer(n):
    """n = True gave a two-triangle mesh whose n was True; a float or a
    string died inside numpy or in a comparison."""
    with pytest.raises(MeshError, match=f"count n must be an integer >= 1, "
                                        f"got {re.escape(repr(n))}$"):
        build_structured_mesh(UNIT_SQUARE, n)


def test_numpy_subdivision_count_is_stored_as_int():
    m = build_structured_mesh(UNIT_SQUARE, np.int64(2))
    assert type(m.n) is int and m.n == 2
    assert m.num_triangles == 8


def test_unit_square_n1_counts():
    m = build_structured_mesh(UNIT_SQUARE, 1)
    assert num_vertices(m) == 4
    assert m.num_triangles == 2
    assert m.num_edges == 5


def test_unit_square_n2_counts_against_enumeration():
    m = build_structured_mesh(UNIT_SQUARE, 2)
    assert (num_vertices(m), m.num_triangles) == (9, 8)
    # cross-check the 3n^2 + 2n count by brute-force enumeration
    assert m.num_edges == len(brute_force_edges(m.triangles)) == 16


def test_unit_square_n4_mesh_size():
    m = build_structured_mesh(UNIT_SQUARE, 4)
    assert m.h == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-15)


def test_refine_halves_h_and_quadruples_triangles():
    m1 = build_structured_mesh(UNIT_SQUARE, 1)
    m2 = build_structured_mesh(m1.rect, 2 * m1.n)
    assert m2.n == 2
    assert m2.h == pytest.approx(m1.h / 2.0, abs=1e-15)
    m2 = build_structured_mesh(UNIT_SQUARE, 2)
    m4 = build_structured_mesh(m2.rect, 2 * m2.n)
    assert m4.num_triangles == 32


def test_refine_twice_edge_count_from_enumeration():
    m = build_structured_mesh(UNIT_SQUARE, 2)
    for _ in range(2):
        m = build_structured_mesh(m.rect, 2 * m.n)
    assert m.n == 8
    # frozen from the edge-enumeration oracle (= 3*8^2 + 2*8)
    assert m.num_edges == len(brute_force_edges(m.triangles)) == 208


def test_triangles_positively_oriented(unit_mesh_n4):
    assert np.all(unit_mesh_n4.areas > 0)


def test_edge_reference_counts_and_sign_cancellation(unit_mesh_n4):
    m = unit_mesh_n4
    counts = np.zeros(m.num_edges, dtype=int)
    signed_lengths = np.zeros(m.num_edges)
    for t in range(m.num_triangles):
        for e, s in zip(m.triangle_edges[t], m.triangle_edge_signs[t]):
            counts[e] += 1
            signed_lengths[e] += s * m.edge_lengths[e]
    interior = ~m.boundary_edge_flags
    assert np.all(counts[interior] == 2)
    assert np.all(counts[m.boundary_edge_flags] == 1)
    # interior normal fluxes cancel pairwise
    assert np.abs(signed_lengths[interior]).max() == 0.0


def test_h_is_max_edge_length(unit_mesh_n4):
    assert unit_mesh_n4.h == unit_mesh_n4.edge_lengths.max()


def test_deterministic_reproducibility():
    rect = Rectangle(-1.0, 2.0, 3.5, 4.0)
    a = build_structured_mesh(rect, 3)
    b = build_structured_mesh(rect, 3)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.triangle_edge_signs, b.triangle_edge_signs)
    assert a.h == b.h


def test_nested_refinement_vertices():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x0, y0 = rng.uniform(-2, 2, 2)
        rect = Rectangle(x0, y0, x0 + rng.uniform(0.5, 3), y0 + rng.uniform(0.5, 3))
        n = int(rng.integers(1, 6))
        coarse = build_structured_mesh(rect, n)
        fine = build_structured_mesh(coarse.rect, 2 * coarse.n)
        for v in coarse.vertices:
            dist = np.abs(fine.vertices - v).max(axis=1).min()
            assert dist <= 1e-14


def test_mesh_invariant_counts_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(1, 9))
        m = build_structured_mesh(UNIT_SQUARE, n)
        assert num_vertices(m) == (n + 1) ** 2
        assert m.num_triangles == 2 * n * n
        assert m.num_edges == 3 * n * n + 2 * n
        assert m.h == pytest.approx(np.sqrt(2.0) / n, rel=1e-14)


def test_global_normals_match_orientation(unit_mesh_n2):
    m = unit_mesh_n2
    normals = edge_normals(m)
    # global normal is perpendicular to the edge and unit length
    vec = m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]]
    assert np.abs(np.sum(normals * vec, axis=1)).max() < 1e-14
    assert np.abs(np.hypot(normals[:, 0], normals[:, 1]) - 1).max() < 1e-14
    # sign definition: outward normal of triangle on edge = sign * global
    for t in range(m.num_triangles):
        tri = triangle_coords(m, t)
        centroid = tri.mean(axis=0)
        for i in range(3):
            e = m.triangle_edges[t, i]
            s = m.triangle_edge_signs[t, i]
            midpoint = 0.5 * (m.vertices[m.edges[e, 0]] + m.vertices[m.edges[e, 1]])
            outward = midpoint - centroid
            assert s * np.dot(normals[e], outward) > 0


def test_mesh_arrays_read_only(unit_mesh_n2):
    with pytest.raises(ValueError):
        unit_mesh_n2.vertices[0, 0] = 99.0


def test_dump_mesh_n1_golden():
    m = build_structured_mesh(UNIT_SQUARE, 1)
    expected = (
        "VERTICES\n"
        "0 0 0\n"
        "1 1 0\n"
        "2 0 1\n"
        "3 1 1\n"
        "TRIANGLES\n"
        "0 0 1 3\n"
        "1 0 3 2\n"
        "EDGES\n"
        "0 1 3 1\n"
        "1 0 3 0\n"
        "2 0 1 1\n"
        "3 2 3 1\n"
        "4 0 2 1\n"
    )
    assert dump_mesh(m) == expected


@pytest.mark.parametrize("rect, n", [(UNIT_SQUARE, n) for n in range(1, 6)]
                         + [(Rectangle(0.0, 0.0, 2.0, 1.0), 3)])
def test_edge_numbering_matches_dict_walk(rect, n):
    m = build_structured_mesh(rect, n)
    edges, tri_edges, signs, boundary = dict_walk_topology(m.triangles)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.triangle_edges, tri_edges)
    assert np.array_equal(m.triangle_edge_signs, signs)
    assert np.array_equal(m.boundary_edge_flags, boundary)


def test_index_dtype_widens_past_int32():
    """int32 while the bound stays below 2^31 - 1, int64 from there on;
    the mesh passes 3 T, the hybridization 16 T."""
    assert index_dtype(0) == index_dtype(2**31 - 2) == np.int32
    assert index_dtype(2**31 - 1) == index_dtype(2**40) == np.int64
    assert index_dtype(np.int64(2**31)) == np.int64


NESTED_DISSECTION_MESHES = [(UNIT_SQUARE, n) for n in range(1, 10)] + [
    (Rectangle(0.0, 0.0, 2.0, 1.0), 1), (Rectangle(0.0, 0.0, 2.0, 1.0), 6)]


@pytest.mark.parametrize("rect,n", NESTED_DISSECTION_MESHES)
def test_mesh_indices_are_int32_and_signs_int8(rect, n):
    m = build_structured_mesh(rect, n)
    for name in ("triangles", "edges", "triangle_edges", "edge_sides"):
        assert getattr(m, name).dtype == np.int32, name
    assert m.triangle_edge_signs.dtype == np.int8


@pytest.mark.parametrize("rect,n", NESTED_DISSECTION_MESHES)
def test_nested_dissection_order_is_a_permutation(rect, n):
    """The order lists each interior edge once, and no other unknown."""
    m = build_structured_mesh(rect, n)
    order = nested_dissection_order(m)
    assert np.array_equal(np.sort(order),
                          np.flatnonzero(~m.boundary_edge_flags))


@pytest.mark.parametrize("rect,n", NESTED_DISSECTION_MESHES)
def test_nested_dissection_order_matches_recursion(rect, n):
    """The recursion orders all mixed unknowns; its interior edges come in
    the same order."""
    m = build_structured_mesh(rect, n)
    full = recursive_nested_dissection(m)
    interior = np.flatnonzero(~m.boundary_edge_flags)
    assert np.array_equal(nested_dissection_order(m),
                          full[np.isin(full, interior)])


def test_nested_dissection_separator_splits_the_coupling():
    """Cutting the n=4 grid at x = 2 leaves no entry of the multiplier
    system H between a multiplier of the left half and one of the right
    half."""
    m = build_structured_mesh(UNIT_SQUARE, 4)
    sys_ = assemble(m, get_preset("laplace"))
    order = nested_dissection_order(m)
    # each 2x4 half: the diagonals of its 8 cells and its 10 interior
    # grid-line edges; then the 4 cut edges
    half = 8 + 10
    assert len(order) == 2 * half + 4
    mid_x = m.vertices[m.edges[order]][:, :, 0].mean(axis=1)
    assert np.all(mid_x[:half] < 0.5)
    assert np.all(mid_x[half:2 * half] > 0.5)
    assert np.all(mid_x[2 * half:] == 0.5)
    # H's rows and columns are the multipliers in `order`
    side = np.repeat([1, 2, 0], [half, half, 4])
    coo = _hybridize(m, sys_)[2].tocoo()
    assert coo.shape == (len(order),) * 2
    assert not np.any(side[coo.row] * side[coo.col] == 2)

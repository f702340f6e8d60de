import numpy as np
import pytest

from rt0eig import (UNIT_SQUARE, SupercloseBlock, assemble, build_table,
                    build_structured_mesh, get_preset, laplace_eigenvalues,
                    match_and_cluster, observed_order, richardson,
                    solve_mixed_eigenproblem)
from rt0eig.extrapolation import SATURATION
from oracles import (loop_build_table, loop_match_and_cluster,
                     loop_observed_order)


def test_richardson_cancels_quadratic_term():
    # lambda = 1, C = 1, h = 1: coarse = 2, fine = 1.25
    assert richardson(2.0, 1.25, 2.0) == 1.0


def test_richardson_equal_inputs():
    assert richardson(3.7, 3.7, 2.0) == pytest.approx(3.7, abs=1e-15)


def test_richardson_quartic_residual():
    # lambda = 0, C = 1, D = 1, h = 1: coarse = 2, fine = 0.3125,
    # closed form gives -D h^4 / 4 = -0.25
    assert richardson(2.0, 0.3125, 2.0) == -0.25


def test_richardson_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        richardson(1.0, 2.0, 0.0)


@pytest.mark.parametrize("p", [np.nan, np.inf], ids=["nan", "inf"])
def test_richardson_rejects_a_non_finite_order(p):
    """Both gave NaN without a word."""
    with pytest.raises(ValueError, match="positive and finite"):
        richardson(1.0, 2.0, p)


def test_richardson_exact_on_model_sequences():
    rng = np.random.default_rng(31)
    for _ in range(20):
        lam = rng.uniform(-10, 10)
        c = rng.uniform(-5, 5)
        h = rng.uniform(0.1, 2.0)
        p = rng.uniform(0.5, 4.0)
        coarse = lam + c * h**p
        fine = lam + c * (h / 2) ** p
        assert richardson(coarse, fine, p) == pytest.approx(lam, abs=1e-10)


def test_richardson_affine_equivariance():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a, b, s = rng.uniform(-5, 5, 3)
        p = rng.uniform(0.5, 4)
        assert richardson(a + s, b + s, p) == pytest.approx(
            richardson(a, b, p) + s, abs=1e-12)


def test_observed_order_examples():
    assert observed_order([1e-2, 2.5e-3]) == pytest.approx([2.0], abs=1e-12)
    assert observed_order([8e-4, 5e-5]) == pytest.approx([4.0], abs=1e-12)
    assert observed_order([3e-3, 3e-3]) == pytest.approx([0.0], abs=1e-12)


def test_observed_order_saturation_and_nonpositive():
    orders = observed_order([1e-2, 0.0, 1e-3])
    assert np.isnan(orders).all()
    orders = observed_order([1e-2, 1e-14])  # below the saturation floor
    assert np.isnan(orders[0])
    with pytest.raises(ValueError):
        observed_order([1e-2])


def _synthetic_levels(limits, constants, ns=(8, 16, 32)):
    levels = []
    for n in ns:
        h2 = 1.0 / n**2
        vals = np.sort([lam + c * h2 for lam, c in zip(limits, constants)])
        levels.append((n, np.sqrt(2.0) / n, vals))
    return levels


def test_cluster_detection_for_split_double_eigenvalue():
    """Two sequences with one limit but different h^2 constants cluster."""
    seq = match_and_cluster(_synthetic_levels(
        [2.0, 5.0, 5.0, 8.0], [1.0, 3.0, 7.0, 2.0]))
    assert seq.clusters == [[0], [1, 2], [3]]
    means = seq.cluster_means()
    assert means.shape == (3, 3)
    assert means[1] == pytest.approx(
        [(5 + 3 / 64 + 5 + 7 / 64) / 2,
         (5 + 3 / 256 + 5 + 7 / 256) / 2,
         (5 + 3 / 1024 + 5 + 7 / 1024) / 2], rel=1e-14)


def test_all_gaps_large_gives_singletons():
    seq = match_and_cluster(_synthetic_levels(
        [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))
    assert seq.clusters == [[0], [1], [2]]


def test_exactly_equal_discrete_values_cluster():
    levels = [(4, 0.35, np.array([1.0, 2.5, 2.5])),
              (8, 0.17, np.array([1.0, 2.5, 2.5]))]
    seq = match_and_cluster(levels)
    assert seq.clusters == [[0], [1, 2]]


def test_match_rejects_inconsistent_k():
    levels = [(4, 0.35, np.array([1.0, 2.0])),
              (8, 0.17, np.array([1.0]))]
    with pytest.raises(ValueError, match="inconsistent"):
        match_and_cluster(levels)


def test_match_rejects_levels_without_eigenvalues():
    levels = [(4, 0.35, np.array([])), (8, 0.17, np.array([]))]
    with pytest.raises(ValueError, match="at least one eigenvalue"):
        match_and_cluster(levels)


def test_match_rejects_non_doubling():
    levels = [(4, 0.35, np.array([1.0])), (12, 0.1, np.array([1.0]))]
    with pytest.raises(ValueError, match="double"):
        match_and_cluster(levels)


def test_match_rejects_unsorted_values():
    levels = [(4, 0.35, np.array([2.0, 1.0])),
              (8, 0.17, np.array([1.0, 2.0]))]
    with pytest.raises(ValueError, match="ascending"):
        match_and_cluster(levels)


@pytest.mark.parametrize("level, index, value", [
    (0, 2, np.nan), (2, 1, np.nan), (1, 3, np.inf), (1, 0, -np.inf),
], ids=["NaN on a coarse level", "NaN on the finest level", "+inf", "-inf"])
def test_match_rejects_non_finite_eigenvalues(level, index, value):
    levels = _synthetic_levels([1.0, 2.0, 2.0, 3.0], [1.0, 1.0, 2.0, 1.0])
    levels[level][2][index] = value
    n = levels[level][0]
    with pytest.raises(ValueError,
                       match=f"eigenvalue {index} on level n={n} is "
                             f"not finite"):
        match_and_cluster(levels)


@pytest.mark.parametrize("reference", [[2.0, 5.0], [2.0, np.nan, 5.0]],
                         ids=["short", "NaN"])
def test_build_table_rejects_a_reference_of_not_k_finite_values(reference):
    seq = match_and_cluster(_synthetic_levels([2.0, 5.0, 5.0],
                                              [1.0, 3.0, 7.0]))
    with pytest.raises(ValueError, match="reference must be 3 finite"):
        build_table(seq, reference=np.array(reference))


def test_build_table_analytic_reference():
    seq = match_and_cluster(_synthetic_levels([2.0, 5.0, 5.0], [1.0, 3.0, 7.0]))
    table = build_table(seq, reference=np.array([2.0, 5.0, 5.0]))
    assert table.reference_kind == "analytic"
    assert [row.label for row in table.rows] == ["1", "2-3"]
    row = table.rows[0]
    # model error is exactly C h^2, so observed orders are exactly 2
    assert row.order_raw == pytest.approx([2.0, 2.0], abs=1e-9)
    # extrapolation of an exact h^2 model hits the limit: saturated orders
    assert np.abs(row.err_extrap).max() <= 1e-12
    assert np.isnan(row.order_extrap).all()


def test_build_table_self_reference():
    seq = match_and_cluster(_synthetic_levels([3.0], [2.0]))
    table = build_table(seq)
    assert table.reference_kind == "self"
    row = table.rows[0]
    # the self reference IS the finest-pair extrapolation
    assert row.reference == pytest.approx(row.extrapolated[-1], abs=1e-15)
    assert row.err_extrap[-1] <= 1e-15
    # raw errors against that reference still show the h^2 decay
    assert row.order_raw == pytest.approx([2.0, 2.0], abs=1e-9)


def test_superclose_orders_are_derived_not_passed():
    errors = np.array([0.4, 0.1, 0.025])
    block = SupercloseBlock(mode=(1, 1), distance=errors, err_u=errors,
                            err_sigma=errors)
    assert np.array_equal(block.order_distance, [2.0, 2.0])
    with pytest.raises(TypeError, match="order_distance"):
        SupercloseBlock(mode=(1, 1), distance=errors, err_u=errors,
                        err_sigma=errors, order_distance=np.zeros(2))


# ---------------------------------------------------------------------------
# the array expressions against the loops they replace


SYNTHETIC = {
    "split double": _synthetic_levels([2.0, 5.0, 5.0, 8.0],
                                      [1.0, 3.0, 7.0, 2.0]),
    "triple": _synthetic_levels([1.0, 4.0, 4.0, 4.0, 9.0],
                                [1.0, 2.0, 5.0, 9.0, 1.0], (8, 16, 32, 64)),
    "equal values": [(4, 0.35, np.array([1.0, 2.5, 2.5])),
                     (8, 0.17, np.array([1.0, 2.5, 2.5])),
                     (16, 0.09, np.array([1.0, 2.5, 2.5]))],
    "saturated errors": _synthetic_levels([1.0, 1.0 + 1e-14, 7.0],
                                          [0.0, 0.0, 1e-12]),
    "two levels": _synthetic_levels([2.0, 5.0, 5.0], [1.0, 3.0, 7.0],
                                    (8, 16)),
    "k = 1": _synthetic_levels([3.0], [2.0], (4, 8, 16, 32)),
}


@pytest.fixture(scope="module")
def solved_levels():
    """Iterative eigenvalues per study: laplace with a split (1,3)/(3,1)
    pair, then with that pair cut at k = 5, and the variable preset."""
    studies = {}
    for preset, ns, k in (("laplace", (8, 16, 32), 6),
                          ("laplace", (8, 16, 32), 5),
                          ("variable", (8, 16, 32, 64), 6)):
        levels = []
        for n in ns:
            mesh = build_structured_mesh(UNIT_SQUARE, n)
            res = solve_mixed_eigenproblem(
                mesh, assemble(mesh, get_preset(preset)), k)
            levels.append((res.n, res.h, res.eigenvalues))
        studies[f"{preset} k={k}"] = levels
    return studies


def _assert_same_tables(got, want):
    assert (got.level_ns, got.level_hs, got.reference_kind) == (
        want.level_ns, want.level_hs, want.reference_kind)
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert (g.indices, g.label) == (w.indices, w.label)
        assert type(g.reference) is type(w.reference)
        for name in ("reference", "raw", "extrapolated", "err_raw",
                     "err_extrap", "order_raw", "order_extrap"):
            a, b = getattr(g, name), getattr(w, name)
            assert np.shape(a) == np.shape(b), name
            assert np.array_equal(a, b, equal_nan=True), name


def _assert_matches_loops(levels, reference):
    seq, want = match_and_cluster(levels), loop_match_and_cluster(levels)
    assert seq.clusters == want.clusters
    assert all(type(i) is int for c in seq.clusters for i in c)
    assert np.array_equal(seq.matched, want.matched, equal_nan=True)
    for ref in (None, reference):
        _assert_same_tables(build_table(seq, reference=ref),
                            loop_build_table(want, reference=ref))


@pytest.mark.parametrize("case", SYNTHETIC)
def test_table_matches_loops_on_synthetic_sequences(case):
    levels = SYNTHETIC[case]
    # one reference value per index: the finest values
    reference = levels[-1][2]
    _assert_matches_loops(levels, reference)


@pytest.mark.parametrize("study", ["laplace k=6", "laplace k=5",
                                   "variable k=6"])
def test_table_matches_loops_on_solved_levels(solved_levels, study):
    levels = solved_levels[study]
    k = levels[0][2].size
    _assert_matches_loops(levels, laplace_eigenvalues(k, UNIT_SQUARE))


def test_observed_order_matches_loop():
    rng = np.random.default_rng(7)
    e = 10.0 ** rng.uniform(-16, 0, 200)
    e[rng.integers(0, 200, 20)] = 0.0
    e[rng.integers(0, 200, 5)] = -1e-3
    e[rng.integers(0, 200, 5)] = np.nan
    for errors in (e, e[:2], [SATURATION, 1e-3]):
        assert np.array_equal(observed_order(errors),
                              loop_observed_order(errors), equal_nan=True)

import numpy as np
import pytest

from rt0eig import coefficients, get_preset, preset_names
from rt0eig.coefficients import COEFF_EPS, MIDPOINT_RULE
from oracles import duffy_triangle_integral, edge_rule, integrate_triangle

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# the package's one fixed rule by its degree of exactness
RULES = {2: MIDPOINT_RULE}


@pytest.mark.parametrize("degree", [2])
def test_weights_sum_to_one(degree):
    rule = RULES[degree]
    assert abs(rule.weights.sum() - 1.0) <= 1e-14


def test_the_package_has_one_rule_with_positive_weights():
    """Assembly and the superclose measures share the midpoint rule, whose
    quadrature of a square cannot come out negative."""
    rules = [v for v in vars(coefficients).values()
             if isinstance(v, coefficients.QuadratureRule)]
    assert len(rules) == 1 and rules[0] is MIDPOINT_RULE
    assert (MIDPOINT_RULE.weights > 0).all()


def test_edge_rule_rejects_unsupported_size():
    with pytest.raises(ValueError):
        edge_rule(5)


def test_degree2_integrates_constant_to_area():
    rule = MIDPOINT_RULE
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.5]])  # area 0.5
    assert integrate_triangle(lambda x, y: 1.0, tri, rule) == pytest.approx(0.5, abs=1e-15)


def test_degree2_integrates_x_on_reference():
    # oracle: integral of x over the reference triangle is 1/6
    rule = MIDPOINT_RULE
    assert integrate_triangle(lambda x, y: x, REF_TRI, rule) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_degree2_integrates_x_plus_y():
    rule = MIDPOINT_RULE
    assert integrate_triangle(lambda x, y: x + y, REF_TRI, rule) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_constant_scales_with_area():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tri = rng.uniform(-2, 2, (3, 2))
        area = 0.5 * abs(np.linalg.det(np.vstack([tri[1] - tri[0], tri[2] - tri[0]])))
        k = rng.uniform(-5, 5)
        for rule in RULES.values():
            assert integrate_triangle(lambda x, y, k=k: k, tri, rule) == pytest.approx(k * area, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("degree", [2])
def test_polynomial_exactness_matches_oracle(degree):
    """Quadrature equals exact integration for all monomials up to degree."""
    rng = np.random.default_rng(degree)
    rule = RULES[degree]
    for _ in range(4):
        tri = rng.uniform(-1.5, 1.5, (3, 2))
        while 0.5 * abs(np.linalg.det(np.vstack([tri[1] - tri[0], tri[2] - tri[0]]))) < 0.05:
            tri = rng.uniform(-1.5, 1.5, (3, 2))
        for px in range(degree + 1):
            for py in range(degree + 1 - px):
                f = lambda x, y, px=px, py=py: x**px * y**py
                got = integrate_triangle(f, tri, rule)
                want = duffy_triangle_integral(f, tri)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-14)


def test_edge_rule_two_point_nodes():
    nodes, weights = edge_rule(2)
    r = 1.0 / np.sqrt(3.0)
    assert nodes == pytest.approx([(1 - r) / 2, (1 + r) / 2], abs=1e-15)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-16)


def test_edge_rule_exactness():
    nodes2, w2 = edge_rule(2)
    assert np.sum(w2 * nodes2**2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert np.sum(w2 * nodes2**3) == pytest.approx(1.0 / 4.0, abs=1e-15)
    nodes3, w3 = edge_rule(3)
    assert np.sum(w3 * nodes3**4) == pytest.approx(1.0 / 5.0, abs=1e-15)
    assert np.sum(w3 * nodes3**5) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_preset_names():
    assert preset_names() == ["laplace", "shifted", "variable"]
    with pytest.raises(KeyError):
        get_preset("nope")


@pytest.mark.parametrize("name", ["laplace", "shifted", "variable"])
def test_preset_invariants_at_random_points(name):
    """A SPD, c >= 0, b > 0 at 10,000 sample points in the domain."""
    prob = get_preset(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    xs = rng.uniform(prob.domain.x0, prob.domain.x1, 10_000)
    ys = rng.uniform(prob.domain.y0, prob.domain.y1, 10_000)
    for x, y in zip(xs, ys):
        a = prob.A(x, y)
        assert abs(a[0, 1] - a[1, 0]) <= 1e-14
        evals = np.linalg.eigvalsh(a)
        assert evals.min() >= COEFF_EPS
        assert prob.c(x, y) >= 0.0
        assert prob.b(x, y) >= COEFF_EPS


def test_shift_constants():
    assert get_preset("laplace").analytic_shift == 0.0
    assert get_preset("shifted").analytic_shift == 5.0
    assert get_preset("variable").analytic_shift is None

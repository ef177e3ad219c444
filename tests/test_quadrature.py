"""Gauss rules, Gram matrices, and univariate projections."""

import numpy as np
import pytest
import scipy.linalg

from sgsplines import functions as fn
from sgsplines.bspline import eval_spline, make_space
from sgsplines.quadrature import (
    element_grid,
    gauss_rule,
    gram_matrix,
    l2_error_1d,
    project_1d,
    projection_matrices,
)


def test_gauss_rule_examples():
    r1 = gauss_rule(1)
    np.testing.assert_allclose(r1.nodes, [0.5])
    np.testing.assert_allclose(r1.weights, [1.0])
    r2 = gauss_rule(2)
    np.testing.assert_allclose(sorted(r2.nodes),
                               [0.5 - 1 / (2 * np.sqrt(3)), 0.5 + 1 / (2 * np.sqrt(3))])
    np.testing.assert_allclose(r2.weights, [0.5, 0.5])
    # exactness degree 3: integral of x^3 over (0, 1)
    assert abs(np.sum(r2.weights * r2.nodes ** 3) - 0.25) < 1e-15


def test_gauss_rule_monomial_exactness():
    for pts in range(1, 17):
        r = gauss_rule(pts)
        assert abs(r.weights.sum() - 1.0) < 1e-14
        assert r.weights.min() > 0
        for k in range(2 * pts):
            exact = 1.0 / (k + 1)
            assert abs(np.sum(r.weights * r.nodes ** k) - exact) < 1e-13


def test_gauss_rule_rejects_out_of_range():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(17)


def test_gram_indicator_masses():
    np.testing.assert_allclose(gram_matrix(make_space(0, 1), 0),
                               [[0.5, 0.0], [0.0, 0.5]])


def test_gram_hat_stiffness():
    # two cells of width 1/2; hat derivatives are +-2
    np.testing.assert_allclose(gram_matrix(make_space(1, 1), 1),
                               [[2, -2, 0], [-2, 4, -2], [0, -2, 2]], atol=1e-13)


def test_gram_symmetry_and_definiteness():
    for p in range(5):
        for level in range(1, 6):
            G = gram_matrix(make_space(p, level), 0)
            assert np.abs(G - G.T).max() < 1e-13 * np.abs(G).max()
            assert scipy.linalg.eigh(G, eigvals_only=True)[0] > 0


def test_gram_derivative_nullspace_dimension():
    # kernel of the order-r seminorm Gram: polynomials of degree < r
    for p, r in [(2, 1), (3, 2), (4, 3)]:
        G = gram_matrix(make_space(p, 3), r)
        w = scipy.linalg.eigh(G, eigvals_only=True)
        assert np.sum(np.abs(w) < 1e-8 * np.abs(w).max()) == r


def test_gram_rejects_order_above_degree():
    with pytest.raises(ValueError):
        gram_matrix(make_space(2, 2), 3)


def _spline_callable(space, coeffs):
    return lambda x, m=0: eval_spline(space, coeffs, np.atleast_1d(x), m)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_projection_idempotent_on_members(r):
    rng = np.random.default_rng(11)
    space = make_space(3, 3)
    coeffs = rng.standard_normal(space.dim)
    out = project_1d(space, _spline_callable(space, coeffs), r)
    assert np.abs(out - coeffs).max() < 1e-12


@pytest.mark.parametrize("p, level, r", [(2, 6, 2), (3, 5, 2), (4, 5, 2), (3, 4, 3)])
def test_seminorm_projection_reproduces_members_at_finer_levels(p, level, r):
    # finer levels and higher r: normal equations square a conditioning ~ h^-r
    rng = np.random.default_rng(11)
    space = make_space(p, level)
    coeffs = rng.standard_normal(space.dim)
    out = project_1d(space, _spline_callable(space, coeffs), r)
    assert np.abs(out - coeffs).max() < 1e-12


def test_seminorm_projection_rule_size():
    # p - r + 1 points integrate the degree-2(p - r) derivative products exactly
    rng = np.random.default_rng(3)
    space = make_space(4, 2)
    coeffs = rng.standard_normal(space.dim)
    member = _spline_callable(space, coeffs)
    with pytest.raises(ValueError, match="need at least 3"):
        project_1d(space, member, 2, qpts=2)
    out = project_1d(space, member, 2, qpts=3)
    assert np.abs(out - coeffs).max() < 1e-12


def test_projection_of_one_is_partition_coefficients():
    space = make_space(2, 4)
    out = project_1d(space, fn.constant(1), 0)
    np.testing.assert_allclose(out, 1.0, atol=1e-12)


def test_projection_error_within_univariate_bound():
    # sin(2 pi x) at p=2, level 4: bound (sqrt(2) h)^3 |f|_{H^3}
    f = fn.sin_2pi()
    space = make_space(2, 4)
    err = l2_error_1d(space, project_1d(space, f, 0), f)
    bound = (np.sqrt(2) * 2.0 ** -4) ** 3 * (2 * np.pi) ** 3 / np.sqrt(2)
    assert err <= bound
    assert err == pytest.approx(2.4364600165e-4, rel=1e-4)


def test_best_approximation_bound_grid():
    f = fn.sin_2pi()
    for p in (1, 2, 3):
        seminorm = (2 * np.pi) ** (p + 1) / np.sqrt(2)
        for level in range(3, 8):
            space = make_space(p, level)
            err = l2_error_1d(space, project_1d(space, f, 0), f)
            assert err <= (np.sqrt(2) * space.h) ** (p + 1) * seminorm


def test_seminorm_projection_minimizes_seminorm():
    # the r = 1 projection cannot be beaten in |.|_{H^1} by the L2 projection
    f = fn.sin_2pi()
    space = make_space(3, 3)
    nodes, weights = element_grid(space, gauss_rule(8))

    def h1_err(coeffs):
        diff = f(nodes, 1) - eval_spline(space, coeffs, nodes, 1)
        return np.sqrt(np.sum(weights * diff ** 2))

    assert h1_err(project_1d(space, f, 1)) <= h1_err(project_1d(space, f, 0)) + 1e-14


@pytest.mark.parametrize("r", [0, 2])
def test_cached_matrices_are_read_only(r):
    # shared by every caller and every study thread
    s = make_space(3, 3)
    arrays = [gram_matrix(s, r)]
    arrays += [a for a in projection_matrices(s, r) if a is not None]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0

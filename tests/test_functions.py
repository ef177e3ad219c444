"""Built-in analytic targets: derivative correctness and registry."""

import numpy as np
import pytest

from sgsplines import functions as fn


@pytest.mark.parametrize("name,d", [
    ("sin-2pi", 1), ("sinpi-prod", 2), ("poly-bump", 2), ("exp-sum", 2),
    ("sinpi-exp", 2), ("xyz-sin-sum", 3),
])
def test_first_derivatives_match_finite_differences(name, d):
    f = fn.target_function(name, d)
    rng = np.random.default_rng(0)
    pts = rng.random((40, d)) * 0.9 + 0.05
    eps = 1e-6
    for i in range(d):
        alpha = tuple(int(j == i) for j in range(d))
        dp = np.zeros(d)
        dp[i] = eps
        fd = (f.eval_points(pts + dp) - f.eval_points(pts - dp)) / (2 * eps)
        ana = f.eval_points(pts, alpha)
        assert np.abs(fd - ana).max() < 1e-7 * max(1.0, np.abs(ana).max())


def test_grid_and_point_evaluation_agree():
    f = fn.sinpi_exp()
    x = np.linspace(0, 1, 5)
    y = np.linspace(0, 1, 4)
    grid = f.eval_grid([x, y], (1, 2))
    pts = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1)
    np.testing.assert_allclose(grid, f.eval_points(pts, (1, 2)), atol=1e-14)


def test_high_order_mixed_derivatives_available():
    f = fn.target_function("poly-bump", 2)
    x = np.linspace(0, 1, 9)
    assert np.isfinite(f.eval_grid([x, x], (6, 6))).all()
    g = fn.target_function("sinpi-prod", 2)
    assert np.isfinite(g.eval_grid([x, x], (6, 6))).all()


def test_product_factor_leibniz():
    pf = fn.ProductFactor(fn.PolyFactor([0.0, 1.0]), fn.TrigFactor(1.0))
    x = np.linspace(0.1, 0.9, 11)
    # (x sin x)'' = 2 cos x - x sin x
    np.testing.assert_allclose(pf(x, 2), 2 * np.cos(x) - x * np.sin(x), atol=1e-13)


def test_registry_errors():
    with pytest.raises(ValueError, match="unknown target"):
        fn.target_function("nope", 2)
    with pytest.raises(ValueError, match="not defined for d=3"):
        fn.target_function("sinpi-exp", 3)
    with pytest.raises(ValueError, match="sinpi-prod"):
        fn.target_function("nope", 2)

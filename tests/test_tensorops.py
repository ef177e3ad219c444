"""Tensor projections, partial projections, and Sobolev-norm quadrature."""

import numpy as np
import pytest

from sgsplines import functions as fn
from sgsplines.bspline import make_space
from sgsplines.quadrature import element_grid, gauss_rule
from sgsplines.tensorops import (
    CoefficientTensor,
    error_norm,
    function_norm,
    multi_indices,
    project_direction,
    project_tensor,
    sample,
    to_coefficients,
)
from oracles import (
    complement_direction,
    eval_points,
    l2_norm,
    random_trig,
    spline_factor,
)


def test_coefficient_tensor_validates_extents():
    with pytest.raises(ValueError):
        CoefficientTensor((2, 3), 1, np.zeros((5, 5)))


def test_deriv_grid_matches_scattered_oracle():
    rng = np.random.default_rng(5)
    ct = CoefficientTensor((3, 2), 3, rng.standard_normal((11, 7)))
    axes = [np.r_[0.0, np.sort(rng.random(6)), 1.0], np.sort(rng.random(5))]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid = ct.deriv_grid(axes, (1, 2))
    assert np.abs(grid - eval_points(ct, pts, (1, 2))).max() < 1e-12


def test_project_constant_gives_ones():
    ct = project_tensor(fn.constant(2), (2, 3), 2)
    np.testing.assert_allclose(ct.coeffs, 1.0, atol=1e-12)


def test_partial_projection_identity_on_separable_member():
    # f = g (x) h with g already in the x-space: projecting x changes nothing
    rng = np.random.default_rng(3)
    sx = make_space(2, 3)
    g = spline_factor(sx, rng.standard_normal(sx.dim))
    f = fn.SumOfSeparable(2, [(1.0, [g, fn.ExpFactor(1.0)])])
    gs = sample(f, (3, 2), 2)
    out = project_direction(gs, 0)
    assert np.abs(out.values - gs.values).max() < 1e-12


def test_directional_projections_commute():
    gs = sample(fn.sinpi_exp(), (3, 2), 2)
    a = project_direction(project_direction(gs, 0), 1)
    b = project_direction(project_direction(gs, 1), 0)
    ca, cb = to_coefficients(a), to_coefficients(b)
    assert np.abs(ca.coeffs - cb.coeffs).max() < 1e-12
    full = project_tensor(fn.sinpi_exp(), (3, 2), 2)
    assert np.abs(ca.coeffs - full.coeffs).max() < 1e-12


def test_error_norm_zero():
    ct = CoefficientTensor((2, 2), 1, np.zeros((5, 5)))
    assert error_norm(None, ct, "semi", 0) == 0.0
    assert error_norm(fn.constant(2, 0.0), ct, "full", 1) == 0.0


def test_error_norm_rejects_large_order():
    ct = CoefficientTensor((2, 2), 1, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        error_norm(None, ct, "semi", 2)
    with pytest.raises(ValueError):
        multi_indices(2, 1, "bogus")


def test_mixed_seminorm_factorizes_for_separable_function():
    # univariate quadrature oracle: per-factor integrals of derivatives
    f = fn.sinpi_exp()
    space = make_space(1, 6)
    nodes, weights = element_grid(space, gauss_rule(6))

    def uni(g, m):
        return np.sum(weights * g(nodes, m) ** 2)

    gx, gy = fn.TrigFactor(np.pi), fn.ExpFactor(1.0)
    expected = 0.0
    for ax, ay in [(0, 1), (1, 0), (1, 1)]:
        expected += uni(gx, ax) * uni(gy, ay)
    got = function_norm(f, 2, "mix-semi", 1)
    assert got == pytest.approx(np.sqrt(expected), abs=1e-10)


def test_norm_ordering_on_random_smooth_functions():
    for seed in range(3):
        f = random_trig(2, seed)
        for q in (1, 2):
            full = function_norm(f, 2, "full", q)
            mix = function_norm(f, 2, "mix", q)
            big = function_norm(f, 2, "full", 2 * q)
            assert full <= mix * (1 + 1e-12)
            assert mix <= big * (1 + 1e-12)


def test_anisotropic_projection_bound():
    # L2 error of the full anisotropic projection against the sum of
    # per-direction mesh powers times the full Sobolev norm
    f = fn.sinpi_product(2)
    for p in (1, 2):
        q = p + 1
        norm_q = function_norm(f, 2, "full", q)
        c3 = np.sqrt(2.0) ** q
        for level in [(3, 3), (3, 5), (4, 3)]:
            ct = project_tensor(f, level, p)
            err = error_norm(f, ct, "semi", 0)
            bound = c3 * sum(2.0 ** (-l * q) for l in level) * norm_q
            assert err <= bound


def test_partial_projection_error_decays_per_direction():
    # product-type decay of the double complement, one direction at a time
    f = fn.sinpi_product(2)
    for p in (1, 2):
        q = p + 1
        for axis in (0, 1):
            errs = []
            for lev in (3, 4, 5, 6):
                level = (lev, 2) if axis == 0 else (2, lev)
                gs = sample(f, level, p)
                out = complement_direction(complement_direction(gs, 0), 1)
                errs.append(l2_norm(out))
            rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert rates.min() >= q - 0.1


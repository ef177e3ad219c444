"""Sparse-grid constructions: combination form, increments, identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sgsplines import functions as fn
from sgsplines.bspline import collocation_matrix, eval_spline, greville, make_space
from sgsplines.indices import LevelRule, build_hier_set, lambda_eff, sparse_dimension
from sgsplines.spaces import (
    HierFunction,
    _lemma8_sides,
    combination_project,
    dimension_rank,
    equivalence_report,
    hier_basis,
    increment_indices,
    lemma8_residual,
    sparse_rayleigh,
    stacked_sparse_basis,
    telescopic_residual,
)
from sgsplines.tensorops import error_norm, project_tensor


def _spline_factor(space, coeffs):
    return lambda x, m=0: eval_spline(space, coeffs, np.atleast_1d(x), m)


def test_combination_project_constant():
    rule = LevelRule(2, 3, 1)
    sg = combination_project(fn.constant(2), rule)
    for _, _, ct in sg.terms:
        np.testing.assert_allclose(ct.coeffs, 1.0, atol=1e-12)
    pts = np.random.default_rng(0).random((30, 2))
    np.testing.assert_allclose(sg.eval_points(pts), 1.0, atol=1e-12)


def test_combination_reproduces_coarse_member():
    # members of the coarsest common space are reproduced exactly:
    # every level reproduces them and the coefficients sum to one
    rng = np.random.default_rng(1)
    rule = LevelRule(2, 4, 2)
    base = make_space(2, rule.lam)
    cx, cy = rng.standard_normal(base.dim), rng.standard_normal(base.dim)
    f = fn.SumOfSeparable(2, [(1.0, [_spline_factor(base, cx),
                                     _spline_factor(base, cy)])])
    sg = combination_project(f, rule)
    pts = rng.random((100, 2))
    assert np.abs(sg.eval_points(pts) - f.eval_points(pts)).max() < 1e-12


def test_sparse_error_between_full_error_and_ten_times():
    f = fn.sinpi_product(2)
    rule = LevelRule(2, 4, 1)
    sg = combination_project(f, rule)
    full = project_tensor(f, (4, 4), 1)
    e_sparse = error_norm(f, sg, "semi", 0)
    e_full = error_norm(f, full, "semi", 0)
    assert e_full < e_sparse < 10 * e_full


def test_eval_zero_and_single_level():
    rule = LevelRule(1, 3, 1)
    sg = combination_project(fn.constant(1, 0.0), rule)
    pts = np.linspace(0, 1, 7)[:, None]
    np.testing.assert_allclose(sg.eval_points(pts), 0.0, atol=1e-15)

    f = fn.sin_2pi()
    sg = combination_project(f, rule)
    # d = 1 combination has the single level (n,) with coefficient one
    assert len(sg.terms) == 1 and sg.terms[0][1] == 1
    space = make_space(1, 3)
    direct = eval_spline(space, sg.terms[0][2].coeffs, pts[:, 0])
    np.testing.assert_allclose(sg.eval_points(pts), direct, atol=1e-14)


def test_eval_matches_per_level_sum():
    rng = np.random.default_rng(4)
    rule = LevelRule(2, 3, 1)
    sg = combination_project(fn.random_trig(2, 8), rule)
    pts = rng.random((50, 2))
    by_level = sum(c * ct.eval_points(pts) for _, c, ct in sg.terms)
    assert np.abs(sg.eval_points(pts) - by_level).max() < 1e-14


def test_eval_rejects_points_outside_domain():
    rule = LevelRule(2, 3, 1)
    sg = combination_project(fn.constant(2), rule)
    with pytest.raises(ValueError):
        sg.eval_points(np.array([[0.5, 1.5]]))


def test_increment_indices_select_new_odd_knots():
    # reference definition: anchor knot (middle knot of the support) is a
    # dyadic of the current level with odd numerator
    for p in range(5):
        lam = lambda_eff(p)
        for level in range(lam + 1, 9):
            ncells = 2 ** level
            knots = ([Fraction(0)] * (p + 1)
                     + [Fraction(j, ncells) for j in range(1, ncells)]
                     + [Fraction(1)] * (p + 1))
            mid = (p + 2) // 2
            expected = tuple(i for i in range(ncells + p)
                             if knots[i + mid].denominator == ncells
                             and knots[i + mid].numerator % 2 == 1)
            assert increment_indices(p, level, lam) == expected


def test_increment_counts_and_chain():
    # base level keeps the whole space, higher levels add 2^(l-1) functions
    assert len(increment_indices(1, 1, 1)) == 3
    assert len(increment_indices(1, 2, 1)) == 2
    assert len(increment_indices(1, 3, 1)) == 4
    basis = hier_basis(LevelRule(1, 2, 1))
    total = sum(math.prod(len(s) for s in sels) for _, sels in basis)
    assert total == 2 ** 2 + 1 == 5
    at_22 = [sels for lvl, sels in hier_basis(LevelRule(2, 3, 1)) if lvl == (2, 2)]
    assert math.prod(len(s) for s in at_22[0]) == 4


def test_increment_union_has_full_collocation_rank():
    for p in (1, 2, 3):
        rule = LevelRule(1, 4, p)
        pts = greville(make_space(p, 5))
        cols = []
        for lvl, sels in hier_basis(rule):
            cols.append(collocation_matrix(make_space(p, lvl[0]), pts, 0)[:, list(sels[0])])
        M = np.hstack(cols)
        assert M.shape[1] == 2 ** 4 + p
        assert np.linalg.matrix_rank(M) == M.shape[1]


@pytest.mark.parametrize("p,n", [(1, 3), (1, 4), (2, 4)])
def test_equivalence_of_constructions(p, n):
    rule = LevelRule(2, n, p)
    rep = equivalence_report(rule)
    formula = sparse_dimension(2, n, p)[0]
    assert rep["dim_L"] == rep["dim_H"] == rep["rank"] == formula
    assert rep["cross_residual_max"] < 1e-9


def test_equivalence_one_dimensional_chain():
    rep = equivalence_report(LevelRule(1, 3, 1))
    assert rep["dim_L"] == rep["dim_H"] == 2 ** 3 + 1
    assert rep["cross_residual_max"] < 1e-12


def test_dimension_rank_matches_formula():
    assert dimension_rank(LevelRule(2, 3, 1)) == 49


def test_telescopic_identity_on_member():
    rng = np.random.default_rng(2)
    sx, sy = make_space(2, 3), make_space(2, 2)
    f = fn.SumOfSeparable(2, [(1.0, [_spline_factor(sx, rng.standard_normal(sx.dim)),
                                     _spline_factor(sy, rng.standard_normal(sy.dim))])])
    assert telescopic_residual(f, (3, 2), 2) < 1e-12


def test_telescopic_identity_examples():
    assert telescopic_residual(fn.sinpi_exp(), (3, 2), 2) < 1e-10
    assert telescopic_residual(fn.xyz_sin_sum(), (2, 2, 2), 1) < 1e-9


def test_telescopic_identity_random_functions():
    for seed in range(5):
        assert telescopic_residual(fn.random_trig(2, seed), (3, 2), 2) < 1e-9
        assert telescopic_residual(fn.random_trig(3, seed), (2, 3, 2), 1) < 1e-9


def test_cancellation_constants():
    from sgsplines.spaces import cancellation_constant
    # layer-0 partial terms survive with unit weight; deeper layers cancel
    assert cancellation_constant(2, 1, 0) == 1
    assert cancellation_constant(3, 1, 0) == 1
    assert cancellation_constant(3, 1, 1) == 0
    assert cancellation_constant(3, 2, 0) == 1
    assert cancellation_constant(3, 2, 1) == -1
    assert cancellation_constant(4, 1, 2) == 0
    assert cancellation_constant(4, 3, 2) == 1


def test_lemma8_trivial_values():
    rule = LevelRule(3, 5, 1)
    assert lemma8_residual(rule, values=lambda J, s: 0.0) == 0.0
    assert lemma8_residual(rule, values=lambda J, s: 1.0) == 0.0


def test_lemma8_random_draws_relative():
    for d in (2, 3):
        for n in (4, 6):
            rule = LevelRule(d, n, 1)
            for seed in range(17):
                rng = np.random.default_rng(seed)
                cache = {}

                def values(J, sub):
                    key = (J, sub)
                    if key not in cache:
                        cache[key] = rng.uniform(-1.0, 1.0)
                    return cache[key]

                lhs, rhs = _lemma8_sides(rule, values)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_lemma8_holds_for_higher_degree():
    # the minimum-level offset must not enter the cancellation constants
    for d in (2, 3):
        assert lemma8_residual(LevelRule(d, 5, 2), seed=3) < 1e-12


def test_hier_function_evaluation():
    rng = np.random.default_rng(6)
    rule = LevelRule(1, 2, 1)
    # d = 1 chain: base level holds the whole coarse space
    incs = [((1,), rng.standard_normal(3)), ((2,), rng.standard_normal(2))]
    hf = HierFunction(rule, 1, tuple(incs))
    x = np.linspace(0, 1, 9)[:, None]
    direct = np.zeros(9)
    for ct in hf._tensors():
        direct += eval_spline(make_space(1, ct.level[0]), ct.coeffs, x[:, 0])
    np.testing.assert_allclose(hf.eval_points(x), direct, atol=1e-14)

    rule2 = LevelRule(2, 3, 1)
    incs2 = []
    for lvl in build_hier_set(2, 3, 1).levels:
        shape = tuple(len(increment_indices(1, li, 1)) for li in lvl)
        incs2.append((lvl, rng.standard_normal(shape)))
    hf2 = HierFunction(rule2, 1, tuple(incs2))
    pts = rng.random((20, 2))
    per_level = sum(ct.eval_points(pts) for ct in hf2._tensors())
    np.testing.assert_allclose(hf2.eval_points(pts), per_level, atol=1e-14)

    zero = HierFunction(rule2, 1, tuple((lvl, np.zeros_like(w))
                                        for lvl, w in incs2))
    np.testing.assert_allclose(zero.eval_points(pts), 0.0, atol=1e-15)

    with pytest.raises(ValueError, match="cover the hierarchy"):
        HierFunction(rule2, 1, (incs2[0],))


def test_stacked_sparse_basis_dimension():
    rule = LevelRule(2, 4, 2)
    basis = stacked_sparse_basis(rule, 2)  # no constraints at p=2, q=2
    assert basis.size == sparse_dimension(2, 4, 2)[0]
    # with constraints the base level loses two functions per direction
    hs_levels = build_hier_set(2, 4, 2).levels
    b1 = stacked_sparse_basis(rule, 1)
    expect = 0
    for lvl in hs_levels:
        counts = [(2 ** rule.lam + 2 - 2) if li == rule.lam else 2 ** (li - 1)
                  for li in lvl]
        expect += int(np.prod(counts))
    assert b1.size == expect


def test_constrained_spans_agree_between_constructions():
    # combination-form stack of per-level constrained tensor bases spans the
    # same space as the hierarchical stacked basis
    from sgsplines.bspline import vanishing_subspace
    from sgsplines.indices import build_combination_set

    p, q, n = 2, 1, 3
    rule = LevelRule(2, n, p)
    basis = stacked_sparse_basis(rule, q)
    pts = greville(make_space(p, n + 1))
    E = collocation_matrix(make_space(p, n), pts, 0)

    cols = []
    for lvl, _ in build_combination_set(2, n, p).levels:
        mats = []
        for li in lvl:
            space = make_space(p, li)
            tilde = vanishing_subspace(space, q).basis
            mats.append(collocation_matrix(space, pts, 0) @ tilde)
        Mx, My = mats
        cols.append((Mx[:, None, :, None] * My[None, :, None, :]).reshape(
            len(pts) ** 2, -1))
    comb = np.hstack(cols)

    VX = E @ basis.V
    hier = (VX[:, None, basis.entries[:, 0]] * VX[None, :, basis.entries[:, 1]]
            ).reshape(len(pts) ** 2, -1)
    rank_c = np.linalg.matrix_rank(comb, tol=1e-8 * np.linalg.norm(comb, 2))
    rank_h = np.linalg.matrix_rank(hier, tol=1e-8 * np.linalg.norm(hier, 2))
    assert rank_h == hier.shape[1] == basis.size
    assert rank_c == basis.size
    both = np.hstack([comb, hier])
    assert np.linalg.matrix_rank(both, tol=1e-8 * np.linalg.norm(both, 2)) == basis.size


def test_sparse_rayleigh_within_bound_smoke():
    from sgsplines.indices import c11
    rule = LevelRule(2, 3, 2)
    val = sparse_rayleigh(rule, 1)
    h = 2.0 ** -3
    assert val <= c11(2, 1) * h ** -1 * abs(np.log(h))


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
                                 (4, 1), (4, 3)])
def test_univariate_pencil_is_one_dimensional_sparse_pencil(p, q):
    # the q-th seminorm pencil on the q-vanishing subspace of one level, solved
    # directly, equals the d = 1 sparse pencil over the hierarchical basis
    import scipy.linalg
    from sgsplines.bspline import vanishing_subspace
    from sgsplines.quadrature import gram_matrix

    for n in (lambda_eff(p) + 1, 6):
        space = make_space(p, n)
        sub = vanishing_subspace(space, q).basis
        A = sub.T @ gram_matrix(space, q) @ sub
        B = sub.T @ gram_matrix(space, 0) @ sub
        direct = np.sqrt(scipy.linalg.eigh(A, B, eigvals_only=True)[-1])
        val = sparse_rayleigh(LevelRule(1, n, p), q, "mix-semi")
        assert abs(val - direct) <= 1e-12 * direct

"""Sparse-grid constructions: combination form, increments, identities."""

from fractions import Fraction

import numpy as np
import pytest

from sgsplines import functions as fn
from sgsplines.bspline import collocation_matrix, greville, make_space
from sgsplines.indices import LevelRule, build_hier_set, lambda_eff, sparse_dimension
from sgsplines.spaces import (
    _constrained_chain,
    _entries,
    _orthonormal_grams,
    combination_project,
    dimension_rank,
    equivalence_report,
    hier_basis,
    sparse_rayleigh,
    stacked_sparse_basis,
)
from sgsplines.tensorops import _norm_axes, error_norm, multi_indices, project_tensor
from oracles import (
    cancellation_constant,
    constrained_chain,
    dense_rayleigh,
    deriv_grid_longdouble,
    deriv_grid_per_term,
    eval_points,
    eval_spline,
    lemma8_residual,
    lemma8_sides,
    random_trig,
    random_values,
    spline_factor,
    telescopic_residual,
)


def test_combination_project_constant():
    rule = LevelRule(2, 3, 1)
    sg = combination_project(fn.constant(2), rule)
    for _, _, ct in sg.terms:
        np.testing.assert_allclose(ct.coeffs, 1.0, atol=1e-12)
    pts = np.random.default_rng(0).random((30, 2))
    np.testing.assert_allclose(eval_points(sg, pts), 1.0, atol=1e-12)


def test_combination_reproduces_coarse_member():
    # members of the coarsest common space are reproduced exactly:
    # every level reproduces them and the coefficients sum to one
    rng = np.random.default_rng(1)
    rule = LevelRule(2, 4, 2)
    base = make_space(2, rule.lam)
    cx, cy = rng.standard_normal(base.dim), rng.standard_normal(base.dim)
    f = fn.SumOfSeparable(2, [(1.0, [spline_factor(base, cx),
                                     spline_factor(base, cy)])])
    sg = combination_project(f, rule)
    pts = rng.random((100, 2))
    assert np.abs(eval_points(sg, pts) - f.eval_points(pts)).max() < 1e-12


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
    np.testing.assert_allclose(eval_points(sg, pts), 0.0, atol=1e-15)

    f = fn.sin_2pi()
    sg = combination_project(f, rule)
    # d = 1 combination has the single level (n,) with coefficient one
    assert len(sg.terms) == 1 and sg.terms[0][1] == 1
    space = make_space(1, 3)
    direct = eval_spline(space, sg.terms[0][2].coeffs, pts[:, 0])
    np.testing.assert_allclose(eval_points(sg, pts), direct, atol=1e-14)


def test_eval_matches_per_level_sum():
    # the grid kernel of the sparse sum against scattered per-level values
    rng = np.random.default_rng(4)
    rule = LevelRule(2, 3, 1)
    sg = combination_project(random_trig(2, 8), rule)
    axes = [np.sort(rng.random(7)), np.sort(rng.random(6))]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    by_level = sum(c * eval_points(ct, pts) for _, c, ct in sg.terms)
    assert np.abs(sg.deriv_grid(axes) - by_level).max() < 1e-14


@pytest.mark.parametrize("d,p,n", [(2, 3, 6), (3, 2, 4), (2, 1, 8)])
def test_sparse_deriv_grid_is_as_accurate_as_per_term(d, p, n):
    # the coefficient-space sum against the float64 per-term evaluation, both
    # measured against a long-double per-term evaluation, at the midpoints of
    # every other finest cell; prolonging before differentiating fails this
    # by factors of 1e3 to 3e4
    u = combination_project(random_trig(d, 1), LevelRule(d, n, p))
    axes = [ax[::2] for ax in _norm_axes(u.finest_level, 1)[0]]
    for alpha in multi_indices(d, p, "mix"):
        ref = deriv_grid_longdouble(u, axes, alpha)

        def err(values):
            return float(np.abs(values - ref).max())

        assert (err(u.deriv_grid(axes, alpha))
                <= 4 * err(deriv_grid_per_term(u, axes, alpha))
                + 1e-14 * float(np.abs(ref).max()))


def test_increment_indices_select_new_odd_knots():
    # reference definition: anchor knot (middle knot of the support) is a
    # dyadic of the current level with odd numerator
    for p in range(5):
        lam = lambda_eff(p)
        sels = hier_basis(LevelRule(1, 8, p))
        assert list(sels) == list(range(lam, 9))
        for level in range(lam + 1, 9):
            ncells = 2 ** level
            knots = ([Fraction(0)] * (p + 1)
                     + [Fraction(j, ncells) for j in range(1, ncells)]
                     + [Fraction(1)] * (p + 1))
            mid = (p + 2) // 2
            expected = tuple(i for i in range(ncells + p)
                             if knots[i + mid].denominator == ncells
                             and knots[i + mid].numerator % 2 == 1)
            assert tuple(sels[level]) == expected


def test_increment_counts_and_chain():
    # base level keeps the whole space, higher levels add 2^(l-1) functions
    sels = hier_basis(LevelRule(1, 3, 1))
    assert [len(s) for s in sels.values()] == [3, 2, 4]
    sizes = {lev: len(s) for lev, s in hier_basis(LevelRule(1, 2, 1)).items()}
    assert len(_entries(sizes, build_hier_set(1, 2, 1))) == 2 ** 2 + 1 == 5
    sizes = {lev: len(s) for lev, s in hier_basis(LevelRule(2, 3, 1)).items()}
    entries = _entries(sizes, build_hier_set(2, 3, 1))
    lo, hi = sizes[1], sizes[1] + sizes[2]  # the stacked columns of level 2
    at_22 = [e for e in entries if all(lo <= i < hi for i in e)]
    assert len(at_22) == 4
    assert len(entries) == sparse_dimension(2, 3, 1)[0]


def test_entries_enumerate_levels_last_direction_fastest():
    entries = _entries({1: 2, 2: 1, 3: 2}, [(1, 2), (3, 1)])
    assert entries.tolist() == [[0, 2], [1, 2], [3, 0], [3, 1], [4, 0], [4, 1]]


def test_increment_union_has_full_collocation_rank():
    for p in (1, 2, 3):
        rule = LevelRule(1, 4, p)
        pts = greville(make_space(p, 5))
        M = np.hstack([collocation_matrix(make_space(p, lev), pts, 0)[:, sel]
                       for lev, sel in hier_basis(rule).items()])
        assert M.shape[1] == 2 ** 4 + p
        assert np.linalg.matrix_rank(M) == M.shape[1]


@pytest.mark.parametrize("p,n", [(1, 3), (1, 4), (2, 4)])
def test_equivalence_of_constructions(p, n):
    rule = LevelRule(2, n, p)
    rep = equivalence_report(rule)
    formula = sparse_dimension(2, n, p)[0]
    assert rep["dim_L"] == rep["dim_H"] == formula
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
    f = fn.SumOfSeparable(2, [(1.0, [spline_factor(sx, rng.standard_normal(sx.dim)),
                                     spline_factor(sy, rng.standard_normal(sy.dim))])])
    assert telescopic_residual(f, (3, 2), 2) < 1e-12


def test_telescopic_identity_examples():
    assert telescopic_residual(fn.sinpi_exp(), (3, 2), 2) < 1e-10
    assert telescopic_residual(fn.xyz_sin_sum(), (2, 2, 2), 1) < 1e-9


def test_telescopic_identity_random_functions():
    for seed in range(5):
        assert telescopic_residual(random_trig(2, seed), (3, 2), 2) < 1e-9
        assert telescopic_residual(random_trig(3, seed), (2, 3, 2), 1) < 1e-9


def test_cancellation_constants():
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
                lhs, rhs = lemma8_sides(rule, random_values(seed))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_lemma8_holds_for_higher_degree():
    # the minimum-level offset must not enter the cancellation constants
    for d in (2, 3):
        assert lemma8_residual(LevelRule(d, 5, 2), seed=3) < 1e-12


def test_stacked_sparse_basis_dimension():
    rule = LevelRule(2, 4, 2)
    basis = stacked_sparse_basis(rule, 2)  # no constraints at p=2, q=2
    assert basis.size == sparse_dimension(2, 4, 2)[0]
    # with constraints the base level loses two functions per direction
    b1 = stacked_sparse_basis(rule, 1)
    expect = 0
    for lvl in build_hier_set(2, 4, 2):
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
            tilde = vanishing_subspace(space, q)
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
        sub = vanishing_subspace(space, q)
        A = sub.T @ gram_matrix(space, q) @ sub
        B = sub.T @ gram_matrix(space, 0) @ sub
        direct = np.sqrt(scipy.linalg.eigh(A, B, eigvals_only=True)[-1])
        val = sparse_rayleigh(LevelRule(1, n, p), q, "mix-semi")
        assert abs(val - direct) <= 1e-12 * direct


@pytest.mark.parametrize("d,p,q,n,mode", [
    (2, 2, 1, 5, "mix"), (2, 2, 2, 5, "mix"), (2, 3, 2, 5, "mix"),
    (3, 1, 1, 4, "mix"), (2, 2, 1, 5, "mix-semi"), (1, 3, 2, 8, "mix-semi")])
def test_standard_pencil_matches_dense_generalized_pencil(d, p, q, n, mode):
    # orthonormalized increments keep the sparse span and make B = I
    rule = LevelRule(d, n, p)
    val = sparse_rayleigh(rule, q, mode)
    ref = dense_rayleigh(rule, q, mode)
    assert abs(val - ref) <= 1e-10 * ref


def test_orthonormalized_increments_have_identity_gram():
    p, n = 3, 8
    for q in (1, 2, 3):
        G = _orthonormal_grams(stacked_sparse_basis(LevelRule(1, n, p), q))
        assert len(G) == q + 1
        assert np.linalg.norm(G[0] - np.eye(len(G[0])), 2) <= 1e-10
        for Ga in G:
            np.testing.assert_allclose(Ga, Ga.T, rtol=0, atol=1e-10 * np.abs(Ga).max())


def test_sparse_rayleigh_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown norm mode"):
        sparse_rayleigh(LevelRule(1, 3, 1), 1, "semi")


def test_chain_extension_matches_one_pass_build():
    # each level refines the cached chain of the level below and appends its
    # increment; the result is bit for bit the stack built in one pass
    _constrained_chain.cache_clear()
    for p in range(0, 5):
        lam = lambda_eff(p)
        for q in range(0, p + 1):
            for n in range(lam, 9):
                got = _constrained_chain(p, q, lam, n)
                stack, increments = constrained_chain(p, q, lam, n)
                assert got.dtype == stack.dtype and np.array_equal(got, stack)
                if n > lam:
                    assert np.array_equal(got[:, -2 ** (n - 1):], increments[-1])


@pytest.fixture
def rank_one_short(monkeypatch):
    """Every rank certificate in `sgsplines.spaces` sees one less than the
    true rank; no chain built meanwhile stays cached."""
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: rank(M) - 1)
    _constrained_chain.cache_clear()
    yield
    _constrained_chain.cache_clear()


def test_increment_rank_certificate_fires(rank_one_short):
    with pytest.raises(RuntimeError, match="not independent"):
        hier_basis(LevelRule(1, 3, 2))


def test_chain_rank_certificate_fires(rank_one_short):
    with pytest.raises(RuntimeError, match="rank-deficient"):
        _constrained_chain(3, 1, lambda_eff(3), 4)


def test_cached_chain_arrays_are_read_only():
    # shared by every caller and every study thread: the base level's
    # vanishing basis and the refined chains above it
    for n in (lambda_eff(3), 5):
        V = _constrained_chain(3, 1, lambda_eff(3), n)
        with pytest.raises(ValueError):
            V[0, 0] = 1.0

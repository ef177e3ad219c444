"""Sparse-grid constructions: combination form, increments, identities."""

import csv
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsplines import functions as fn
from sgsplines import spaces
from sgsplines.bspline import collocation_matrix, greville, make_space
from sgsplines.indices import LevelRule, build_hier_set, lambda_eff, sparse_dimension
from sgsplines.spaces import (
    _DENSE_EIGH_MAX_ORDER,
    _constrained_chain,
    _entries,
    _fibers,
    _hadamard_operator,
    _orthonormal_grams,
    combination_error,
    combination_project,
    dimension_rank,
    equivalence_report,
    hier_basis,
    sparse_rayleigh,
    stacked_sparse_basis,
)
from sgsplines.tensorops import (
    _norm_axes,
    error_norm,
    function_norm,
    project_tensor,
)
from oracles import (
    cancellation_constant,
    collocation_equivalence,
    combination_stack,
    constrained_chain,
    dense_rayleigh,
    deriv_grid_longdouble,
    dimension_rank_brute_force,
    equivalence_brute_force,
    error_norm_longdouble,
    eval_grid_longdouble,
    eval_points,
    eval_spline,
    hadamard,
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


def test_sparse_deriv_grid_is_the_finest_level_tensor():
    # a combination-form function lies in its finest level's tensor space
    # and serves every derivative through it, bit for bit
    axes = [np.linspace(0, 1, 5), np.linspace(0, 1, 4)]
    for p in (1, 2, 3):
        sg = combination_project(fn.sinpi_exp(), LevelRule(2, 3, p))
        ct = sg.as_tensor()
        assert ct.level == (3, 3)
        for alpha in itertools.product(range(p + 1), repeat=2):
            np.testing.assert_array_equal(sg.deriv_grid(axes, alpha),
                                          ct.deriv_grid(axes, alpha))
        np.testing.assert_array_equal(sg.deriv_grid(axes), ct.deriv_grid(axes))


def _golden_sparse_rows():
    """(d, p, n) of every level row of the golden `sparse-convergence` CSVs,
    all of target sinpi-prod."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    rows = set()
    for name in ("defaults/sparse-convergence", "grid-norms/sparse-d2",
                 "grid-norms/sparse-d3"):
        with open(os.path.join(golden, f"{name}.csv")) as fh:
            rows |= {(int(r["d"]), int(r["p"]), int(r["n"]))
                     for r in csv.DictReader(fh) if r["level"] == ""}
    return sorted(rows)


GOLDEN_SPARSE_ROWS = _golden_sparse_rows()


@pytest.mark.parametrize("d,p,n", GOLDEN_SPARSE_ROWS,
                         ids=[f"d{d}-p{p}-n{n}" for d, p, n in GOLDEN_SPARSE_ROWS])
def test_combination_error_is_as_accurate_as_the_grid_norm(d, p, n):
    # the accuracy gate of the Smolyak-difference norm: against a long-double
    # evaluation of the same u and of f's float64 factors, it errs no more
    # than the grid quadrature it replaces, on every golden row
    f = fn.sinpi_product(d)
    rule = LevelRule(d, n, p)
    u = combination_project(f, rule)
    ref = error_norm_longdouble(f, u)
    assert (abs(combination_error(f, rule) - ref)
            <= abs(error_norm(f, u, "semi", 0) - ref))


def test_long_double_reference_evaluates_u_by_deriv_grid_longdouble():
    # the reference builds each level's rows once per call; its values of u
    # are those of deriv_grid_longdouble, so it equals, bit for bit, the
    # one-slab norm that evaluates u by it
    f = fn.sinpi_product(2)
    u = combination_project(f, LevelRule(2, 5, 2))
    axes, weights = _norm_axes(u.as_tensor().level, 5)
    diff = deriv_grid_longdouble(u, axes)
    np.subtract(eval_grid_longdouble(f, axes), diff, out=diff)
    diff **= 2
    diff *= np.multiply.outer(weights[0], weights[1].astype(np.longdouble))
    assert error_norm_longdouble(f, u) == np.sqrt(np.longdouble(0)
                                                  + np.sum(diff))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_combination_error_matches_the_grid_norm_on_random_targets(data):
    d = data.draw(st.integers(2, 3), label="d")
    p = data.draw(st.integers(1, 3), label="p")
    n = data.draw(st.integers(lambda_eff(p), 8 if d == 2 else 5), label="n")
    f = random_trig(d, data.draw(st.integers(0, 2 ** 16), label="seed"))
    rule = LevelRule(d, n, p)
    grid = error_norm(f, combination_project(f, rule), "semi", 0)
    # both carry roundoff of about eps ||f||; over 4 seeds at every d, p and
    # n drawn here the two differed by at most 5.1e-17 ||f||
    tol = 8 * np.finfo(float).eps * function_norm(f, d, "semi", 0)
    assert abs(combination_error(f, rule) - grid) <= tol


def test_combination_error_d4_row_stays_small():
    # a d=4 row builds no d-dimensional array of spline or grid size: the
    # grid of error_norm would hold (64 * 4)^4 doubles, 34 GB, per buffer
    f = fn.sinpi_product(4)
    tracemalloc.start()
    try:
        combination_error(f, LevelRule(4, 6, 1))
        function_norm(f, 4, "mix", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


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


def test_span_matches_scipy_svd_on_every_certified_stack(monkeypatch):
    # `_span` takes numpy's thin SVD; scipy's gives the same rank and the
    # same column-span projector on every stack the increment and
    # equivalence certificates hand it
    import scipy.linalg

    span, stacks = spaces._span, []

    def recorded(stack, basis=True):
        stacks.append(stack)
        return span(stack, basis)

    monkeypatch.setattr(spaces, "_span", recorded)
    for p in (1, 2, 3):
        for n in range(lambda_eff(p), 7):
            equivalence_report(LevelRule(2, n, p))
    assert len(stacks) > 50
    for stack in stacks:
        rank, Q = span(stack)
        U, svals, _ = scipy.linalg.svd(stack, full_matrices=False)
        assert span(stack, basis=False)[0] == rank
        assert rank == np.sum(svals > spaces.SVD_TOL * svals[0])
        Us = U[:, :rank]
        assert np.abs(Q @ Q.T - Us @ Us.T).max() < 1e-12


@pytest.mark.parametrize("d,p,n", [
    (1, 1, 3), (1, 2, 3), (1, 3, 3),
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (2, 2, 3), (2, 2, 4),
    (3, 1, 3)])
def test_equivalence_matches_collocation_oracle(d, p, n):
    # the coefficient rows come from `prolongation`; the oracle evaluates
    # every basis function on a unisolvent grid instead
    rule = LevelRule(d, n, p)
    rep, ref = equivalence_report(rule), collocation_equivalence(rule)
    assert (rep["dim_L"], rep["dim_H"]) == (ref["dim_L"], ref["dim_H"])
    assert rep["cross_residual_max"] < 1e-12
    assert ref["cross_residual_max"] < 1e-12
    assert dimension_rank(rule) == ref["dim_L"]


@pytest.mark.parametrize("d", [1, 2])
def test_equivalence_fails_on_a_repeated_increment(monkeypatch, d):
    # the top level selects one of its functions twice and drops another:
    # the hierarchical stack loses that function (at d = 1 one dimension,
    # at d = 2 one per tensor partner) and no longer spans the combination
    # space, and the 1D certificate says so
    rule = LevelRule(d, 4, 2)
    plain = hier_basis

    def repeated(rule):
        sels = plain(rule)
        top = sels[rule.n].copy()
        top[1] = top[0]
        return {**sels, rule.n: top}

    monkeypatch.setattr(spaces, "hier_basis", repeated)
    rep = equivalence_report(rule)
    formula = sparse_dimension(d, 4, 2)[0]
    assert rep["dim_L"] == formula
    assert rep["dim_H"] < formula
    assert d > 1 or rep["dim_H"] == formula - 1
    assert rep["cross_residual_max"] > 1e-9


def _traced_peak(call, *args):
    call(*args)  # the cached 1D operators are not counted
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_equivalence_and_dimension_rank_peaks():
    # the 1D certificates peak at 0.10 and 0.03 MB at d=2, p=2, n=5, where
    # the brute-force stacks of (2^5 + 2)^2 = 1156 rows peaked at 72 and 21
    # MB; the bounds leave a margin of about ten.  At n=8 the peak, 5.5 MB,
    # is that of the 1D work at every d: the stacks would have 258^d rows
    rule = LevelRule(2, 5, 2)
    assert _traced_peak(equivalence_report, rule) <= 1e6
    assert _traced_peak(dimension_rank, rule) <= 0.5e6
    assert _traced_peak(equivalence_brute_force, rule) > 1e6
    assert _traced_peak(dimension_rank_brute_force, rule) > 0.5e6
    assert _traced_peak(equivalence_report, LevelRule(6, 8, 2)) <= 8e6


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
@pytest.mark.parametrize("p", [1, 2])
def test_certificate_matches_brute_force_oracle(d, p, n):
    rule = LevelRule(d, n, p)
    rep, ref = equivalence_report(rule), equivalence_brute_force(rule)
    formula = sparse_dimension(d, n, p)[0]
    assert rep["dim_L"] == rep["dim_H"] == formula
    assert ref["dim_L"] == ref["dim_H"] == formula
    assert dimension_rank(rule) == dimension_rank_brute_force(rule) == formula
    assert rep["cross_residual_max"] < 1e-9
    assert ref["cross_residual_max"] < 1e-9


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("p", [1, 2])
def test_equivalence_at_high_dimension_matches_sparse_dimension(d, p):
    # no tensor stack: at d=6, n=8 the brute force would stack 258^6 rows
    for n in range(lambda_eff(p), 9):
        rule = LevelRule(d, n, p)
        rep = equivalence_report(rule)
        formula = sparse_dimension(d, n, p)[0]
        assert rep["dim_L"] == rep["dim_H"] == dimension_rank(rule) == formula
        assert rep["cross_residual_max"] < 1e-12


def test_brute_force_stack_is_capped():
    # (2^6 + 1)^3 = 274625 rows of 15188 columns would take 31 GiB
    with pytest.raises(ValueError, match="brute-force stack"):
        combination_stack(LevelRule(3, 6, 1))


def test_equivalence_refuses_a_level_set_that_is_not_downward_closed(
        monkeypatch):
    # without level (2, 1) the set keeps (3, 1) above it: the count and the
    # residual bound rest on downward closure, so the certificate refuses
    plain = build_hier_set

    def holed(d, n, p):
        return tuple(lvl for lvl in plain(d, n, p) if lvl != (2, 1))

    monkeypatch.setattr(spaces, "build_hier_set", holed)
    with pytest.raises(RuntimeError, match="not the union of the boxes"):
        equivalence_report(LevelRule(2, 4, 1))


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
    # every level above the base adds 2**(l-1) columns of the chain
    assert b1.sizes == {2: 2 ** 2 + 2 - 2, 3: 4, 4: 8}
    assert sum(b1.sizes.values()) == b1.V.shape[1]


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

    # up to n = 9: at n = 10 the two drift apart by 5.2e-12 (p = 4, q = 1)
    for n in (lambda_eff(p) + 1, 6, 9):
        space = make_space(p, n)
        sub = vanishing_subspace(space, q)
        A = sub.T @ gram_matrix(space, q) @ sub
        B = sub.T @ gram_matrix(space, 0) @ sub
        direct = np.sqrt(scipy.linalg.eigh(A, B, eigvals_only=True)[-1])
        val = sparse_rayleigh(LevelRule(1, n, p), q, "mix-semi")
        assert abs(val - direct) <= 1e-12 * direct


@pytest.mark.parametrize("d,p,q,n,mode", [
    (2, 2, 1, 5, "mix"), (2, 2, 2, 5, "mix"), (2, 3, 2, 5, "mix"),
    (3, 1, 1, 4, "mix"), (1, 3, 2, 8, "mix-semi"), (2, 2, 2, 6, "mix")])
def test_standard_pencil_matches_dense_generalized_pencil(d, p, q, n, mode):
    # orthonormalized increments keep the sparse span and make B = I; the
    # orders run from 257 to 1028, on both sides of the Lanczos crossover
    rule = LevelRule(d, n, p)
    val = sparse_rayleigh(rule, q, mode)
    ref = dense_rayleigh(rule, q, mode)
    assert abs(val - ref) <= 1e-10 * ref


def test_seminorm_pencil_is_univariate_only():
    # its d >= 2 form would be a difference of two Hadamard products, which
    # no study asks for
    with pytest.raises(ValueError, match="univariate"):
        sparse_rayleigh(LevelRule(2, 5, 2), 1, "mix-semi")


def test_lanczos_pencil_does_not_depend_on_earlier_pencils():
    # ARPACK's default start vector is drawn from a generator that every
    # solve advances; the fixed start vector keeps the bits of each pencil
    rule, other = LevelRule(2, 6, 2), LevelRule(2, 6, 3)
    assert stacked_sparse_basis(rule, 2).size > _DENSE_EIGH_MAX_ORDER
    assert stacked_sparse_basis(other, 1).size > _DENSE_EIGH_MAX_ORDER
    first = sparse_rayleigh(rule, 2)
    sparse_rayleigh(other, 1)
    assert sparse_rayleigh(rule, 2) == first


def test_univariate_pencils_above_the_cut_are_solved_dense(monkeypatch):
    # at d = 1 the top eigenvalues cluster and Lanczos is slower than the
    # dense solve at every order measured, so no d = 1 pencil may reach it
    import scipy.sparse.linalg

    def no_lanczos(*args, **kwargs):
        raise AssertionError("a d = 1 pencil took Lanczos")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_lanczos)
    rule = LevelRule(1, 10, 1)
    assert stacked_sparse_basis(rule, 1).size == 1025 > _DENSE_EIGH_MAX_ORDER
    val = sparse_rayleigh(rule, 1, "mix-semi")
    ref = dense_rayleigh(rule, 1, "mix-semi")
    assert abs(val - ref) <= 1e-10 * ref


def _operator(basis, H):
    return _hadamard_operator(H, basis.levels, _fibers(basis.entries))


def _assert_operator_matches_oracle(basis, H, exact):
    A = hadamard(H, basis.entries)
    B = _operator(basis, H)(np.eye(basis.size))
    if exact:
        assert np.array_equal(B, A)
    else:
        # products of three or more factors round in another order
        assert np.abs(B - A).max() <= 1e-14 * np.abs(A).max()
    x = np.random.default_rng(basis.size).standard_normal(basis.size)
    y = _operator(basis, H)(x)
    assert y.shape == x.shape
    assert np.abs(y - A @ x).max() <= 1e-14 * (np.abs(A) @ np.abs(x)).max()


# every pencil of the `pencils` workload (inverse-inequality sparse, d=2,
# p=2,3, q=1,2, n=3..7) up to the dense cut, where the printed digits come
# from eigh of the applied identity
PENCIL_CASES = [(p, q, n) for p in (2, 3) for q in (1, 2) for n in range(3, 8)
                if stacked_sparse_basis(LevelRule(2, n, p), q).size
                <= _DENSE_EIGH_MAX_ORDER]


@pytest.mark.parametrize("p,q,n", PENCIL_CASES)
def test_applied_identity_is_the_gathered_hadamard_matrix(p, q, n):
    # at d = 2 every entry is one product of two factors, and the applied
    # identity adds only zeros to it, so both agree bit for bit: for the
    # norm matrix and for one Gram matrix alone
    basis = stacked_sparse_basis(LevelRule(2, n, p), q)
    G = _orthonormal_grams(basis)
    for H in (sum(G), G[q]):
        _assert_operator_matches_oracle(basis, H, exact=True)


@pytest.mark.parametrize("d,p,q,n", [(3, 1, 1, 4), (3, 2, 1, 4), (3, 3, 2, 4),
                                     (4, 1, 1, 3), (4, 2, 1, 3)])
def test_operator_matches_hadamard_oracle_above_two_directions(d, p, q, n):
    basis = stacked_sparse_basis(LevelRule(d, n, p), q)
    _assert_operator_matches_oracle(basis, sum(_orthonormal_grams(basis)),
                                    exact=False)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_operator_matches_hadamard_oracle_for_random_symmetric_h(data):
    d = data.draw(st.integers(1, 4), label="d")
    p = data.draw(st.integers(1, 3), label="p")
    lam = lambda_eff(p)
    n = data.draw(st.integers(lam, lam + (4, 3, 2, 1)[d - 1]), label="n")
    q = data.draw(st.integers(1, p), label="q")
    basis = stacked_sparse_basis(LevelRule(d, n, p), q)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))
    M = basis.V.shape[1]
    H = rng.standard_normal((M, M))
    _assert_operator_matches_oracle(basis, H + H.T, exact=d <= 2)


def test_operator_rejects_an_entry_set_that_is_not_downward_closed():
    entries = stacked_sparse_basis(LevelRule(2, 4, 2), 1).entries
    assert (entries[0] == 0).all()
    with pytest.raises(RuntimeError, match="not a prefix"):
        _fibers(np.delete(entries, 0, axis=0))


def test_sparse_pencil_peak_stays_far_below_the_gathered_matrix():
    # order 4096, above the dense cut: the gathered matrix alone was 134 MB
    rule = LevelRule(2, 8, 2)
    assert stacked_sparse_basis(rule, 1).size == 4096
    assert _traced_peak(sparse_rayleigh, rule, 1) < 32e6


_LANCZOS_PROBE = """
import sys
import sgsplines.cli
from sgsplines.indices import LevelRule
from sgsplines.spaces import sparse_rayleigh
sparse_rayleigh(LevelRule(1, 10, 1), 1, "mix-semi")
print("scipy.sparse.linalg" in sys.modules)
sparse_rayleigh(LevelRule(2, 6, 2), 2)
print("scipy.sparse.linalg" in sys.modules)
"""


def test_lanczos_module_loads_only_for_a_pencil_that_takes_it():
    # a d = 1 pencil above the cut stays dense; a d = 2 one of order 1028
    # takes Lanczos, and its module loads then
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "src"))
    proc = subprocess.run([sys.executable, "-c", _LANCZOS_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


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
    span = spaces._span

    def short(stack, basis=True):
        rank, Q = span(stack, basis)
        return rank - 1, Q

    monkeypatch.setattr(spaces, "_span", short)
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

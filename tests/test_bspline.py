"""Univariate spline spaces: knots, evaluation, refinement, subspaces."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import BSpline

from sgsplines.bspline import (
    _refinement_matrix,
    collocation_matrix,
    constraint_orders,
    greville,
    make_space,
    prolongation,
    refinement_operator,
    vanishing_subspace,
)
from sgsplines.quadrature import element_grid, gauss_rule
from oracles import derivative_transfer_rows, eval_spline, prolongation_by_steps


def test_make_space_examples():
    s = make_space(0, 1)
    np.testing.assert_allclose(s.knots, [0.0, 0.5, 1.0])
    assert s.dim == 2
    assert make_space(2, 1).dim == 4
    assert make_space(2, 3).dim == 10


@pytest.mark.parametrize("p,level", [(0, 1), (1, 2), (2, 3), (3, 2), (4, 4)])
def test_knot_vector_invariants(p, level):
    s = make_space(p, level)
    knots = s.knots
    ncells = 2 ** level
    assert len(knots) == ncells - 1 + 2 * (p + 1)
    assert np.all(np.diff(knots) >= 0)
    np.testing.assert_array_equal(knots[:p + 1], 0.0)
    np.testing.assert_array_equal(knots[-(p + 1):], 1.0)
    interior = knots[p + 1:len(knots) - (p + 1)]
    np.testing.assert_allclose(interior, np.arange(1, ncells) / ncells)
    assert len(np.unique(interior)) == len(interior)


def test_make_space_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_space(2, 0)
    with pytest.raises(ValueError):
        make_space(-1, 2)
    # a non-integer is refused before the shared space cache can keep it,
    # also when a failed prolongation is the first to ask for it
    with pytest.raises(TypeError):
        make_space(2, 3.0)
    with pytest.raises(TypeError):
        make_space(2.0, 3)
    with pytest.raises(TypeError):
        prolongation(make_space(2, 3), 5.0)
    for level in (3, 5):
        s = make_space(2, level)
        assert type(s.level) is int and type(s.degree) is int
        assert s.dim == 2 ** level + 2
        assert collocation_matrix(s, [0.5], 1).shape == (1, s.dim)


def test_hat_values():
    np.testing.assert_allclose(collocation_matrix(make_space(1, 1), [0.25], 0)[0],
                               [0.5, 0.5, 0.0])


def test_partition_of_unity():
    rng = np.random.default_rng(42)
    for p in range(6):
        for level in range(1, 9):
            x = rng.random(100)
            B = collocation_matrix(make_space(p, level), x, 0)
            assert B.min() >= 0.0
            np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)


def test_local_support():
    rng = np.random.default_rng(7)
    for p in range(5):
        s = make_space(p, 4)
        for m in range(p + 1):
            B = collocation_matrix(s, rng.random(50), m)
            assert (np.count_nonzero(B, axis=1) <= p + 1).all()


def test_derivative_sums_to_zero():
    row = collocation_matrix(make_space(2, 2), [0.3], 1)[0]
    assert abs(row.sum()) < 1e-12


def test_eval_rejects_out_of_range():
    s = make_space(2, 2)
    with pytest.raises(ValueError):
        collocation_matrix(s, [0.5], 3)
    with pytest.raises(ValueError):
        collocation_matrix(s, [1.5], 0)
    with pytest.raises(ValueError):
        collocation_matrix(s, [-0.1, 0.5], 0)
    for x in ([np.nan], [0.5, np.nan]):
        with pytest.raises(ValueError):
            collocation_matrix(s, x, 0)


@pytest.mark.parametrize("p,level", [(1, 2), (2, 3), (3, 2), (4, 3)])
def test_basis_matches_scipy(p, level):
    # independent oracle: scipy's BSpline with identity coefficients
    s = make_space(p, level)
    x = np.linspace(0.0, 1.0, 37)
    for m in range(p + 1):
        ours = collocation_matrix(s, x, m)
        ref = BSpline(s.knots, np.eye(s.dim), p)(x, nu=m)
        np.testing.assert_allclose(ours, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))


def test_derivative_rows_match_transfer_reference():
    # the value rows of the degree p-m space times the derivative transfer
    # built row by row: bit for bit at p <= 2, within 4 eps of the largest
    # entry above; both within one eps of the long-double product (levels
    # up to 6)
    eps = np.finfo(float).eps
    for p, level in itertools.product(range(6), range(1, 9)):
        x = np.concatenate([element_grid(level, gauss_rule(p + 1))[0],
                            element_grid(level, gauss_rule(p + 3))[0],
                            np.arange(2 ** level + 1) / 2 ** level])
        for m in range(1, p + 1):
            rows = collocation_matrix(make_space(p, level), x, m)
            low = collocation_matrix(make_space(p - m, level), x, 0)
            ref = low @ derivative_transfer_rows(p, level, m)
            scale = np.abs(ref).max()
            if p <= 2:
                np.testing.assert_array_equal(rows, ref)
            else:
                assert np.abs(rows - ref).max() <= 4 * eps * scale
            if level <= 6:  # the long-double product is slow beyond
                exact = (low.astype(np.longdouble)
                         @ derivative_transfer_rows(p, level, m, np.longdouble))
                assert np.abs(rows - exact).max() <= eps * scale
                assert np.abs(ref - exact).max() <= eps * scale


def test_derivative_rows_allocate_little_beyond_their_output():
    # the m-th derivative rows come from a band of p+1 values per point: no
    # value matrix of the lowered degree and no dim x dim transfer beside
    # the dense output
    nodes = element_grid(10, gauss_rule(4))[0]
    tracemalloc.start()
    try:
        B = collocation_matrix(make_space(3, 10), nodes, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * B.nbytes


def test_refinement_piecewise_constant():
    R = refinement_operator(make_space(0, 1), make_space(0, 2))
    np.testing.assert_array_equal(R, [[1, 0], [1, 0], [0, 1], [0, 1]])


def test_refinement_interior_hat():
    # interior coarse hat subdivides with weights 1/2, 1, 1/2
    R = refinement_operator(make_space(1, 2), make_space(1, 3))
    col = R[:, 2]
    nz = np.flatnonzero(col)
    np.testing.assert_allclose(col[nz], [0.5, 1.0, 0.5])


def test_refinement_reproduces_coarse_spline():
    rng = np.random.default_rng(0)
    coarse, fine = make_space(3, 2), make_space(3, 3)
    R = refinement_operator(coarse, fine)
    c = rng.standard_normal(coarse.dim)
    x = rng.random(64)
    err = np.abs(eval_spline(fine, R @ c, x) - eval_spline(coarse, c, x)).max()
    assert err < 1e-12


def test_nestedness_across_degrees_and_levels():
    rng = np.random.default_rng(5)
    for p in range(5):
        for level in range(1, 5):
            coarse, fine = make_space(p, level), make_space(p, level + 1)
            R = refinement_operator(coarse, fine)
            c = rng.standard_normal(coarse.dim)
            x = rng.random(40)
            err = np.abs(eval_spline(fine, R @ c, x) - eval_spline(coarse, c, x)).max()
            assert err < 1e-12


def _exact_refinement(p, coarse_level):
    """Oracle: Boehm insertion of every new midpoint knot in exact rationals,
    as rows of `Fraction`s."""
    ncells = 2 ** coarse_level
    knots = ([Fraction(0)] * (p + 1) + [Fraction(j, ncells) for j in range(1, ncells)]
             + [Fraction(1)] * (p + 1))
    dim = ncells + p
    R = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for j in range(1, ncells + 1):
        u = Fraction(2 * j - 1, 2 * ncells)
        k = max(i for i in range(len(knots) - 1) if knots[i] <= u)
        rows = []
        for i in range(len(R) + 1):
            if i <= k - p:
                rows.append(R[i])
            elif i >= k + 1:
                rows.append(R[i - 1])
            else:
                a = (u - knots[i]) / (knots[i + p] - knots[i])
                rows.append([a * x + (1 - a) * y for x, y in zip(R[i], R[i - 1])])
        knots, R = sorted(knots + [u]), rows
    return R


def _to_float(rows):
    return np.array([[float(a) for a in row] for row in rows])


@pytest.mark.parametrize("p", range(5))
def test_refinement_matches_exact_oracle(p):
    for level in range(7):
        R = _refinement_matrix(p, level, level + 1)
        exact = _to_float(_exact_refinement(p, level))
        assert R.shape == exact.shape == (2 ** (level + 1) + p, 2 ** level + p)
        np.testing.assert_array_equal(R != 0, exact != 0)
        assert np.abs(R - exact).max() <= 2.3e-16


@pytest.mark.parametrize("p", [2, 3])
def test_refinement_reproduces_at_level_10(p):
    rng = np.random.default_rng(p)
    coarse, fine = make_space(p, 10), make_space(p, 11)
    R = refinement_operator(coarse, fine)
    c = rng.standard_normal(coarse.dim)
    x = rng.random(2000)
    err = np.abs(eval_spline(fine, R @ c, x) - eval_spline(coarse, c, x)).max()
    assert err <= 1e-12


def test_cached_arrays_are_read_only():
    # shared by every caller and every study thread
    for arr in (_refinement_matrix(3, 4, 5), make_space(3, 4).knots):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_prolongation_is_cached_read_only_and_reproduces():
    coarse = make_space(2, 3)
    P = prolongation(coarse, 6)
    assert P is prolongation(make_space(2, 3), 6)
    assert P.shape == (2 ** 6 + 2, coarse.dim)
    with pytest.raises(ValueError):
        P[0, 0] = 1.0
    steps = (_refinement_matrix(2, 5, 6) @ (_refinement_matrix(2, 4, 5)
                                            @ _refinement_matrix(2, 3, 4)))
    np.testing.assert_array_equal(P, steps)
    rng = np.random.default_rng(2)
    c, x = rng.standard_normal(coarse.dim), rng.random(64)
    err = np.abs(eval_spline(make_space(2, 6), P @ c, x) - eval_spline(coarse, c, x))
    assert err.max() < 1e-12
    with pytest.raises(ValueError):
        prolongation(make_space(2, 4), 3)


@pytest.mark.parametrize("p", range(5))
def test_prolongation_matches_product_of_one_level_steps(p):
    # one Oslo pass against the product of one-level insertions: the same
    # bits at the degrees the studies prolong (p <= 2), the same zero
    # pattern and one rounding apart above
    for level in range(1, 10):
        for target in range(level, 11):
            P = prolongation(make_space(p, level), target)
            steps = prolongation_by_steps(make_space(p, level), target)
            if target == level:
                np.testing.assert_array_equal(P, np.eye(2 ** level + p))
            if p <= 2:
                np.testing.assert_array_equal(P, steps)
            else:
                np.testing.assert_array_equal(P != 0, steps != 0)
                assert np.abs(P - steps).max() <= 2.3e-16


def _fraction_product(A, B):
    return [[sum(a * b for a, b in zip(row, col) if a and b) for col in zip(*B)]
            for row in A]


@pytest.mark.parametrize("p", range(5))
def test_prolongation_matches_exact_composite_insertion(p):
    # both routes against the exact-rational product of one-level Boehm
    # insertions over gaps of two and three levels
    for level in range(1, 4):
        space, exact = make_space(p, level), _exact_refinement(p, level)
        for target in (level + 2, level + 3):
            exact = _fraction_product(_exact_refinement(p, target - 1),
                                      exact)
            expected = _to_float(exact)
            for P in (prolongation(space, target),
                      prolongation_by_steps(space, target)):
                if p <= 3:
                    np.testing.assert_array_equal(P, expected)
                else:
                    # one rounding of a weight below 1
                    assert np.abs(P - expected).max() <= 2.0 ** -53


def test_refinement_rejects_mismatch():
    with pytest.raises(ValueError):
        refinement_operator(make_space(1, 2), make_space(2, 3))
    with pytest.raises(ValueError):
        refinement_operator(make_space(1, 2), make_space(1, 4))


def test_greville_linear_precision():
    for p in range(1, 5):
        s = make_space(p, 3)
        g = greville(s)
        x = np.linspace(0, 1, 17)
        np.testing.assert_allclose(collocation_matrix(s, x, 0) @ g, x, atol=1e-13)


@pytest.mark.parametrize("p,level,q,expected_dim", [
    (2, 3, 1, 8),    # one constraint pair u'(0) = u'(1) = 0
    (1, 2, 1, 5),    # no constraints: subspace equals parent
    (4, 4, 0, 16),   # orders 0 and 2 at both endpoints: 20 - 4
    (4, 3, 0, 8),    # same constraints on the dim-12 level-3 space
])
def test_vanishing_subspace_dims(p, level, q, expected_dim):
    space = make_space(p, level)
    B = vanishing_subspace(space, q)
    assert B.shape[1] == expected_dim
    if not constraint_orders(p, q):
        np.testing.assert_array_equal(B, np.eye(space.dim))


def test_vanishing_subspace_constraints_hold():
    for p in range(1, 6):
        for q in range(0, p + 1):
            s = make_space(p, 3)
            B = vanishing_subspace(s, q)
            scale = np.abs(B).max()
            for m in constraint_orders(p, q):
                for x in (0.0, 1.0):
                    vals = collocation_matrix(s, [x], m)[0] @ B * s.h ** m
                    assert np.abs(vals).max() < 1e-10 * scale
            assert np.linalg.matrix_rank(B) == B.shape[1]
            assert B.shape[1] == s.dim - 2 * len(constraint_orders(p, q))


def test_vanishing_subspace_rejects_large_order():
    with pytest.raises(ValueError):
        vanishing_subspace(make_space(2, 2), 3)


def test_vanishing_subspace_checks_the_endpoint_null_spaces(monkeypatch):
    # a null space wider than p - nc is caught before it is copied into B
    monkeypatch.setattr(scipy.linalg, "null_space",
                        lambda A: np.eye(A.shape[1]))
    with pytest.raises(RuntimeError, match="unexpected constraint rank"):
        vanishing_subspace(make_space(3, 3), 1)


def test_vanishing_subspace_rejects_overlapping_endpoint_blocks():
    # dim 5 < 2p = 6: the two endpoint blocks would share coefficients
    with pytest.raises(ValueError, match="overlap"):
        vanishing_subspace(make_space(3, 1), 1)

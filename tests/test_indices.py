"""Level sets, combination coefficients, and exact combinatorial oracles."""

import math

import numpy as np
import pytest

from sgsplines.indices import (
    LevelRule,
    build_combination_set,
    build_hier_set,
    c1,
    c2,
    c10,
    c11,
    lambda_eff,
    layer_cardinality,
    lemma1_deviation,
    lemma3_oracle,
    sparse_dimension,
)
from oracles import combination_set_reference, hier_set_reference


def test_lambda_eff_values():
    assert lambda_eff(0) == 1
    assert lambda_eff(1) == 1
    assert lambda_eff(2) == 2      # 2^1 * 2^-1 = 1 is not strictly < 1
    assert lambda_eff(3) == 2
    assert lambda_eff(4) == 3
    assert lambda_eff(8) == 4
    for p in range(9):
        assert 2.0 ** -lambda_eff(p) * p < 1.0


def test_level_rule_rejects_small_n():
    with pytest.raises(ValueError):
        LevelRule(2, 1, 2)
    with pytest.raises(ValueError):
        LevelRule(0, 3, 1)


def test_combination_set_d2_p1_n3():
    cs = build_combination_set(2, 3, 1)
    assert set(cs.layers[0]) == {(1, 3), (2, 2), (3, 1)}
    assert set(cs.layers[1]) == {(1, 2), (2, 1)}
    coef = dict(cs.levels)
    assert all(coef[lvl] == 1 for lvl in cs.layers[0])
    assert all(coef[lvl] == -1 for lvl in cs.layers[1])


def test_combination_coefficients_d3():
    cs = build_combination_set(3, 4, 1)
    coef = dict(cs.levels)
    layer_coeffs = [coef[cs.layers[l][0]] for l in range(3)]
    assert layer_coeffs == [1, -2, 1]


def test_coefficient_sum_is_one_on_grid():
    for d in range(1, 7):
        for p in (1, 2, 3, 4):
            lam = lambda_eff(p)
            for n in range(lam, 13):
                cs = build_combination_set(d, n, p)
                assert cs.coefficient_sum() == 1


def test_combination_set_structure():
    for d, n, p in [(2, 5, 1), (3, 6, 2), (4, 7, 3)]:
        cs = build_combination_set(d, n, p)
        lam = cs.rule.lam
        for l, layer in enumerate(cs.layers):
            for lvl in layer:
                assert sum(lvl) == n + (d - 1) * lam - l
                assert min(lvl) >= lam
        levels = [lvl for lvl, _ in cs.levels]
        assert len(set(levels)) == len(levels)


def test_hier_set_structure():
    for d, n, p in [(2, 5, 1), (3, 4, 2)]:
        levels = build_hier_set(d, n, p)
        lam = lambda_eff(p)
        for lvl in levels:
            assert sum(lvl) <= n + (d - 1) * lam
            assert min(lvl) >= lam
        assert len(set(levels)) == len(levels)


def test_layer_cardinality_formula_matches_enumeration():
    for d in (2, 3, 4):
        for p in (1, 2, 3):
            lam = lambda_eff(p)
            for n in range(lam, 9):
                cs = build_combination_set(d, n, p)
                for l, layer in enumerate(cs.layers):
                    assert len(layer) == layer_cardinality(d, n, p, l)


def test_hier_set_examples():
    levels = build_hier_set(2, 3, 1)
    assert set(levels) == {(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)}
    assert build_hier_set(1, 5, 2) == tuple((l,) for l in range(2, 6))
    assert len(build_hier_set(3, 4, 1)) == 20
    for d, n, p in [(2, 6, 1), (3, 5, 2), (4, 6, 3)]:
        assert len(build_hier_set(d, n, p)) == math.comb(n - lambda_eff(p) + d, d)


def test_level_sets_match_the_recursive_enumerator():
    # members, order, layers and coefficients: the combination sums and the
    # equivalence stacks take their terms in this order
    for d in range(1, 7):
        for p in range(5):
            lam = lambda_eff(p)
            for n in range(lam, 11):
                assert build_hier_set(d, n, p) == hier_set_reference(d, n, lam)
                cs = build_combination_set(d, n, p)
                assert (cs.layers, cs.levels) == combination_set_reference(d, n, lam)


def test_lemma1_small_cases_and_grid():
    assert sum((-1) ** l * math.comb(2, l) * l for l in range(3)) == 0
    assert sum((-1) ** l * math.comb(1, l) for l in range(2)) == 0
    for d in range(2, 9):
        assert lemma1_deviation(d) == 0


def test_lemma3_examples():
    assert lemma3_oracle(3, 5, 1, 2, 0) == 1
    assert lemma3_oracle(3, 5, 1, 2, 1) == 0


def test_lemma3_full_grid():
    for d in range(2, 7):
        for p in (1, 2, 3, 4):
            for n in range(lambda_eff(p), 13):
                for ell in range(n + 1):
                    for k in range(d):
                        want = 1 if k == 0 else 0
                        assert lemma3_oracle(d, n, p, ell, k) == want


def test_sparse_dimension_examples():
    assert sparse_dimension(2, 3, 1) == (49, 81)
    for n in (3, 5, 7):
        sparse, full = sparse_dimension(1, n, 2)
        assert sparse == full == 2 ** n + 2


def test_sparse_dimension_log_growth():
    # dim <= c * 2^n * n with a single constant fitted on the first level
    dims = {n: sparse_dimension(2, n, 1)[0] for n in range(3, 9)}
    c = dims[3] / (2.0 ** 3 * 3)
    for n, dim in dims.items():
        assert dim <= c * 2.0 ** n * n


def test_theory_constants():
    assert c1(3, 0) == pytest.approx(2 ** 1.5)
    assert c1(2, 2) == 1.0
    assert c2(2) == pytest.approx(12.0)
    # d = 2 closed form reduces to (r+1)/log 2
    for q, r in [(2, 0), (3, 0), (2, 1), (3, 2)]:
        assert c10(2, q, r) == pytest.approx((r + 1) / np.log(2))
        assert c10(2, q, r) > 0
    # the triangle-inequality layer sum keeps the constant positive for d > 2
    for d in (3, 4):
        for q in (1, 2, 3):
            for r in range(q):
                assert c10(d, q, r) > 0
    assert c11(2, 1) == pytest.approx(96 / (2 * np.log(2)), rel=1e-12)
    assert c11(2, 2) > c11(2, 1) > 0

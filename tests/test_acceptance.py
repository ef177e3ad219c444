"""Acceptance suite: one check per stated criterion, at stated tolerances.

Each criterion prints a single pass/fail line (visible with ``pytest -s`` or
on failure).  Stated runtime budgets are asserted.  The known-defective
parameter corner (degree 2 with order-2 vanishing constraints, where the
constraint set is empty) is parametrized separately so its failure is
isolated; see the repository notes outside the package for the analysis.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from sgsplines import functions as fn
from sgsplines.bspline import (
    collocation_matrix,
    make_space,
    refinement_operator,
    vanishing_subspace,
)
from sgsplines.geometry import (
    PullbackFunction,
    distorted_square_geometry,
    identity_geometry,
    mapped_rayleigh,
    pullback_error_norm,
    shear_geometry,
)
from sgsplines.indices import (
    LevelRule,
    build_combination_set,
    c2,
    c10,
    c11,
    lambda_eff,
    lemma1_deviation,
    lemma3_oracle,
    sparse_dimension,
)
from sgsplines.quadrature import gram_matrix, project_1d
from sgsplines.spaces import (
    combination_project,
    dimension_rank,
    equivalence_report,
    sparse_rayleigh,
)
from sgsplines.studies import fit_rate
from sgsplines.tensorops import (
    CoefficientTensor,
    error_norm,
    function_norm,
    project_tensor,
)
from oracles import (
    eval_points,
    eval_spline,
    inverse,
    jacobian,
    lemma8_sides,
    random_trig,
    random_values,
    spline_factor,
    telescopic_residual,
)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_combinatorial_exactness():
    t0 = time.perf_counter()
    ok = all(lemma1_deviation(d) == 0 for d in range(2, 9))
    checked = 0
    for d in range(2, 7):
        for p in (1, 2, 3, 4):
            for n in range(lambda_eff(p), 13):
                for ell in range(n + 1):
                    for k in range(d):
                        want = 1 if k == 0 else 0
                        ok &= lemma3_oracle(d, n, p, ell, k) == want
                        checked += 1
                ok &= build_combination_set(d, n, p).coefficient_sum() == 1
    dt = time.perf_counter() - t0
    _report(1, ok and dt < 5.0,
            f"exact identities on {checked} tuples in {dt:.2f}s (< 5s)")
    assert ok
    assert dt < 5.0


def test_criterion_2_univariate_bound_and_rate():
    t0 = time.perf_counter()
    f = fn.sin_2pi()
    ok = True
    detail = []
    for p in (1, 2, 3):
        seminorm = (2 * np.pi) ** (p + 1) / np.sqrt(2)
        pairs = []
        for lev in range(3, 8):
            space = make_space(p, lev)
            u = CoefficientTensor((lev,), p, project_1d(space, f, 0))
            err = error_norm(f, u, "semi", 0)
            ok &= err <= (np.sqrt(2) * space.h) ** (p + 1) * seminorm
            pairs.append((space.h, err))
        order = fit_rate(pairs)
        ok &= abs(order - (p + 1)) <= 0.1
        detail.append(f"p={p} order {order:.3f}")
    dt = time.perf_counter() - t0
    _report(2, ok and dt < 60, "; ".join(detail) + f" ({dt:.1f}s)")
    assert ok
    assert dt < 60


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (2, 2)])
def test_criterion_3_univariate_inverse_inequality(p, q):
    t0 = time.perf_counter()
    worst = 0.0
    rows = []
    for lev in range(3, 7):
        space = make_space(p, lev)
        sub = vanishing_subspace(space, q)
        A = sub.T @ gram_matrix(space, q) @ sub
        B = sub.T @ gram_matrix(space, 0) @ sub
        val = float(np.sqrt(scipy.linalg.eigh(A, B, eigvals_only=True)[-1]))
        bound = c2(q) * 2.0 ** (q * lev)
        worst = max(worst, val / bound)
        rows.append(f"l={lev}: {val:.4g} vs {bound:.4g}")
    dt = time.perf_counter() - t0
    ok = worst <= 1.0
    _report(3, ok, f"p={p} q={q} max ratio {worst:.4f} ({dt:.1f}s); " + "; ".join(rows))
    assert ok, (f"pencil root exceeds (2*sqrt(3))^q h^-q at p={p}, q={q}: "
                f"max ratio {worst:.4f}")
    assert dt < 60


def test_criterion_4_equivalence():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for p in (1, 2):
        for n in range(max(2, lambda_eff(p)), 6):
            rule = LevelRule(2, n, p)
            rep = equivalence_report(rule)
            formula = sparse_dimension(2, n, p)[0]
            ok &= rep["dim_L"] == rep["dim_H"] == formula
            ok &= rep["cross_residual_max"] < 1e-9
            detail.append(f"p={p},n={n}: dim {rep['dim_L']} "
                          f"res {rep['cross_residual_max']:.1e}")
    dt = time.perf_counter() - t0
    _report(4, ok and dt < 60, "; ".join(detail[-3:]) + f" ({dt:.1f}s < 60s)")
    assert ok
    assert dt < 60


def test_criterion_5_telescopic_and_cancellation_identities():
    t0 = time.perf_counter()
    ok = True
    levels2 = [(3, 2), (2, 3), (4, 2), (2, 4), (3, 3)]
    for seed, lvl in enumerate(levels2):
        res = telescopic_residual(random_trig(2, seed), lvl, 2)
        ok &= res < 1e-9
    levels3 = [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 3)]
    for seed, lvl in enumerate(levels3):
        res = telescopic_residual(random_trig(3, seed + 10), lvl, 1)
        ok &= res < 1e-9

    draws = 0
    for d in (2, 3):
        for n in (4, 5, 6):
            rule = LevelRule(d, n, 1)
            for seed in range(17):
                values = random_values(1000 * d + 10 * n + seed)
                lhs, rhs = lemma8_sides(rule, values)
                ok &= abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
                draws += 1
    dt = time.perf_counter() - t0
    _report(5, ok and dt < 60,
            f"10 telescopic functions, {draws} cancellation draws ({dt:.1f}s < 60s)")
    assert ok
    assert draws >= 100
    assert dt < 60


def test_criterion_6_sparse_grid_rate():
    t0 = time.perf_counter()
    f = fn.sinpi_product(2)
    ok = True
    detail = []
    for p in (1, 2):
        q = p + 1
        mixnorm = function_norm(f, 2, "mix", q)
        const = c10(2, q, 0)
        pairs = []
        for n in range(3, 9):
            sg = combination_project(f, LevelRule(2, n, p))
            err = error_norm(f, sg, "semi", 0)
            h = 2.0 ** -n
            ok &= err <= const * h ** q * abs(np.log(h)) * mixnorm
            pairs.append((h, err))
        order = fit_rate(pairs, log_power=1)
        ok &= order >= q - 0.15
        detail.append(f"p={p} order {order:.3f} (>= {q - 0.15})")
    dt = time.perf_counter() - t0
    _report(6, ok and dt < 120, "; ".join(detail) + f" ({dt:.1f}s < 120s)")
    assert ok
    assert dt < 120


def test_criterion_7_dimension_scaling():
    t0 = time.perf_counter()
    ok = True
    ratio10 = None
    for n in range(3, 11):
        sparse, full = sparse_dimension(2, n, 1)
        if n <= 5:
            ok &= dimension_rank(LevelRule(2, n, 1)) == sparse
        if n == 10:
            ratio10 = sparse / full
    ok &= ratio10 < 0.02
    dt = time.perf_counter() - t0
    _report(7, ok and dt < 60,
            f"ranks match for n<=5; sparse/full at n=10 "
            f"= {100 * ratio10:.2f}% (< 2%) ({dt:.1f}s)")
    assert ok
    assert dt < 60


def test_criterion_8_mapped_domain_rate():
    t0 = time.perf_counter()
    geom = distorted_square_geometry()
    f = fn.sinpi_product(2)
    pull = PullbackFunction(f, geom)
    pairs = []
    for n in range(3, 8):
        sg = combination_project(pull, LevelRule(2, n, 2))
        err = pullback_error_norm(f, sg, geom)
        pairs.append((2.0 ** -n, err))
    order = fit_rate(pairs, log_power=1)
    ok = order >= 2.8
    dt = time.perf_counter() - t0
    _report(8, ok and dt < 120, f"pullback L2 order {order:.3f} (>= 2.8) "
                                f"({dt:.1f}s < 120s)")
    assert ok
    assert dt < 120


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (2, 2)])
def test_criterion_9_sparse_inverse_parameter(p, q):
    t0 = time.perf_counter()
    ok = True
    rows = []
    for n in (3, 4, 5):
        val = sparse_rayleigh(LevelRule(2, n, p), q)
        h = 2.0 ** -n
        bound = c11(2, q) * h ** -q * abs(np.log(h))
        ok &= val <= bound
        rows.append(f"n={n}: {val:.4g} vs {bound:.4g}")
    dt = time.perf_counter() - t0
    _report(9, ok, f"parameter domain p={p} q={q}: " + "; ".join(rows)
            + f" ({dt:.1f}s)")
    assert ok, f"mixed-norm Rayleigh quotient exceeds bound at p={p}, q={q}"
    assert dt < 120


def test_criterion_9_sparse_inverse_mapped():
    t0 = time.perf_counter()
    geom = distorted_square_geometry()
    vals = []
    for n in (3, 4, 5):
        vals.append((2.0 ** -n, mapped_rayleigh(LevelRule(2, n, 2), 1, geom)))
    env = np.array([h ** -1 * abs(np.log(h)) for h, _ in vals])
    quot = np.array([v for _, v in vals])
    slope = float(np.polyfit(np.log(env), np.log(quot), 1)[0])
    cs = quot / env
    ok = slope <= 1.05
    dt = time.perf_counter() - t0
    _report(9, ok and dt < 120,
            f"mapped growth exponent {slope:.3f} (<= 1.05), "
            f"fitted c in [{cs.min():.3f}, {cs.max():.3f}] ({dt:.1f}s < 120s)")
    assert ok
    assert dt < 120


def test_criterion_10_structural_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    ok = True

    for p in range(6):
        for lev in range(1, 9):
            B = collocation_matrix(make_space(p, lev), rng.random(100), 0)
            ok &= np.abs(B.sum(axis=1) - 1.0).max() < 1e-12

    for p in range(4):
        for lev in (1, 2, 3):
            coarse, fine = make_space(p, lev), make_space(p, lev + 1)
            c = rng.standard_normal(coarse.dim)
            x = rng.random(50)
            err = np.abs(eval_spline(fine, refinement_operator(coarse, fine) @ c, x)
                         - eval_spline(coarse, c, x)).max()
            ok &= err < 1e-12

    space = make_space(3, 3)
    c = rng.standard_normal(space.dim)
    member = spline_factor(space, c)
    ok &= np.abs(project_1d(space, member, 0) - c).max() < 1e-12
    sx = make_space(2, 2)
    cx, cy = rng.standard_normal(sx.dim), rng.standard_normal(sx.dim)
    f2 = fn.SumOfSeparable(2, [(1.0, [
        spline_factor(sx, cx), spline_factor(sx, cy)])])
    ct = project_tensor(f2, (2, 2), 2)
    ok &= np.abs(ct.coeffs - np.outer(cx, cy)).max() < 1e-12

    pts = rng.random((100, 2))
    ident = identity_geometry(2, degree=2)
    ok &= np.abs(eval_points(ident, pts) - pts).max() < 1e-12
    shear = shear_geometry()
    A = np.array([[1.0, 0.4], [0.0, 1.0]])
    ok &= np.abs(jacobian(shear, pts) - A).max() < 1e-12

    geom = distorted_square_geometry()
    xi = rng.random((200, 2))
    ok &= np.abs(inverse(geom, eval_points(geom, xi)) - xi).max() < 1e-10

    dt = time.perf_counter() - t0
    _report(10, ok and dt < 60,
            f"partition/nestedness/idempotence/geometry checks ({dt:.1f}s)")
    assert ok
    assert dt < 60

"""Tensor projections, partial projections, and Sobolev-norm quadrature."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsplines import functions as fn
from sgsplines.bspline import _space, make_space
from sgsplines.geometry import PullbackFunction, distorted_square_geometry
from sgsplines.indices import LevelRule, lambda_eff
from sgsplines.quadrature import (
    _gram_cached,
    element_grid,
    gauss_rule,
    projection_matrices,
)
from sgsplines.spaces import combination_project
from sgsplines.tensorops import (
    _SLAB_POINTS,
    CoefficientTensor,
    _norm_axes,
    cell_slabs,
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
    error_norm_all_held,
    eval_points,
    function_norm_all_held,
    l2_norm,
    project_tensor_three_pass,
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


@pytest.mark.parametrize("d,level,p", [(1, (6,), 3), (2, (3, 5), 2), (3, (2, 3, 2), 1)],
                         ids=["d1", "d2", "d3"])
def test_single_pass_projection_matches_three_passes(d, level, p):
    # M0 E0 = I: projecting and evaluating back before the final M0 changes
    # only roundoff
    f = random_trig(d, seed=7)
    one = project_tensor(f, level, p).coeffs
    three = project_tensor_three_pass(f, level, p).coeffs
    assert np.abs(one - three).max() <= 1e-13 * np.abs(three).max()


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
    nodes, weights = element_grid(6, gauss_rule(6))

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



@pytest.mark.parametrize("level,qpts", [
    ((8, 8), 5), ((7, 7), 5), ((5, 5, 5), 4), ((4, 4, 4), 6), ((3, 3), 5),
    ((12,), 4), ((0, 12), 4), ((1, 13), 5),
], ids=["d2-n8", "d2-n7", "d3-n5", "d3-floor", "one-slab", "d1",
        "one-cell", "cell-over-budget"])
def test_cell_slabs_cover_every_row_once_in_whole_cells(level, qpts):
    axes = _norm_axes(level, qpts)[0]
    rows = len(axes[0])
    row = int(np.prod([len(ax) for ax in axes[1:]]))
    slabs = list(cell_slabs(axes, qpts))
    spans = [range(rows)[s] for s, _ in slabs]
    assert [i for span in spans for i in span] == list(range(rows))
    for span, (s, slab) in zip(spans, slabs):
        assert span.start % qpts == 0 and len(span) % qpts == 0
        assert np.array_equal(slab[0], axes[0][s])
        assert all(a is b for a, b in zip(slab[1:], axes[1:]))
        # within the budget unless one cell exceeds it
        assert len(span) * row <= _SLAB_POINTS or len(span) == qpts
    # and as large as the budget allows: one more cell would exceed it
    for span in spans[:-1]:
        assert (len(span) + qpts) * row > _SLAB_POINTS
    # a grid within the budget is one slab
    assert (len(slabs) == 1) == (rows * row <= _SLAB_POINTS or rows == qpts)


# (d, p, tensor level, sparse-grid n): every norm mode at every order 0..p
NORM_CASES = [(1, 3, (4,), 4), (2, 2, (3, 2), 4), (3, 2, (2, 1, 2), 3)]


@pytest.mark.parametrize("d,p,level,n", NORM_CASES,
                         ids=[f"d{c[0]}" for c in NORM_CASES])
@pytest.mark.parametrize("sparse", [False, True], ids=["tensor", "sparse"])
def test_norms_match_all_held_bits(d, p, level, n, sparse):
    f = random_trig(d, seed=d)
    u = (combination_project(f, LevelRule(d, n, p)) if sparse
         else project_tensor(f, level, p))
    for mode in ("semi", "full", "mix"):
        for order in range(p + 1):
            for target in (f, None):
                value = error_norm(target, u, mode, order)
                assert value == error_norm_all_held(target, u, mode, order)
                # a combination-form function is read as its finest-level sum
                assert value == error_norm(target, u.as_tensor(), mode, order)


# the registry targets of each d besides 'one' and 'sinpi-prod'
REGISTRY_TARGETS = {1: ["poly-bump", "exp-sum"],
                    2: ["poly-bump", "exp-sum", "sinpi-exp"],
                    3: ["poly-bump", "exp-sum", "xyz-sin-sum"]}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_factored_function_norm_matches_the_grid_sum(d):
    # over seeds 0..5 and orders 0..3 the largest relative difference was
    # 2.7e-16; over the registry targets at orders 0..2, 2.8e-16
    # (poly-bump, d=3)
    targets = ([random_trig(d, seed) for seed in range(2)]
               + [fn.target_function(name, d) for name in REGISTRY_TARGETS[d]])
    for f in targets:
        for mode in ("semi", "full", "mix"):
            for order in range(3):
                assert function_norm(f, d, mode, order) == pytest.approx(
                    function_norm_all_held(f, d, mode, order), rel=1e-15, abs=0)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_error_norm_matches_all_held_bits_on_random_targets(data):
    d = data.draw(st.integers(1, 3), label="d")
    p = data.draw(st.integers(1, 3), label="p")
    f = random_trig(d, data.draw(st.integers(0, 2 ** 16), label="seed"))
    if data.draw(st.booleans(), label="sparse"):
        n = data.draw(st.integers(lambda_eff(p), 6 - d), label="n")
        u = combination_project(f, LevelRule(d, n, p))
    else:
        u = project_tensor(f, data.draw(st.tuples(*[st.integers(1, 5 - d)] * d),
                                        label="level"), p)
    mode = data.draw(st.sampled_from(["semi", "full", "mix"]), label="mode")
    order = data.draw(st.integers(0, p), label="order")
    assert error_norm(f, u, mode, order) == error_norm_all_held(f, u, mode, order)


def _error_norm_peak_buffers(f):
    """Peak traced memory of a warm `error_norm` of a d=2 p=2 n=6 sparse-grid
    function, in buffers of (2^6 (p+3))^2 = 102400 doubles."""
    sg = combination_project(f, LevelRule(2, 6, 2))
    error_norm(f, sg, "semi", 0)  # the cached 1D matrices are not counted
    tracemalloc.start()
    try:
        error_norm(f, sg, "semi", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (102400 * 8)


def test_error_norm_holds_two_grid_buffers():
    assert _error_norm_peak_buffers(fn.sinpi_product(2)) <= 2.5


def test_error_norm_holds_two_grid_buffers_for_multi_term_targets():
    # the target's three terms are added into the spline values one by one
    assert _error_norm_peak_buffers(random_trig(2, 3)) <= 2.5


def _cached_arrays(spaces, qpts, alpha):
    """Every lru-cached array that evaluating on these spaces can touch."""
    rule = gauss_rule(qpts)
    out = [rule.nodes, rule.weights]
    for sp, a in zip(spaces, alpha):
        out += [sp.knots, _gram_cached(sp, 0),
                *(m for m in projection_matrices(sp, 0) if m is not None)]
        # derivative rows read the knots of the lowered degrees
        out += [_space(sp.degree - m, sp.level).knots
                for m in range(1, a + 1)]
    return out


def _evaluators():
    """name -> (evaluate, spaces, coefficient arrays) of every library
    `deriv_grid` and `eval_grid`, on the level-(3, 3) degree-2 norm grid."""
    f = fn.sinpi_exp()
    geom = distorted_square_geometry()
    axes = _norm_axes((3, 3), 5)[0]
    ct = project_tensor(f, (3, 2), 2)
    sg = combination_project(f, LevelRule(2, 3, 2))
    alpha = (1, 1)
    return {
        "CoefficientTensor": (lambda: ct.deriv_grid(axes, alpha),
                              ct.spaces(), [ct.coeffs]),
        "CoefficientTensor-vector": (lambda: geom.tensor.deriv_grid(axes, alpha),
                                     geom.tensor.spaces(), [geom.ctrl]),
        "SparseGridFunction": (lambda: sg.deriv_grid(axes, alpha),
                               [s for _, _, t in sg.terms for s in t.spaces()]
                               + sg.as_tensor().spaces(),
                               [t.coeffs for _, _, t in sg.terms]),
        "SumOfSeparable": (lambda: f.eval_grid(axes, alpha), [], []),
        "GeometryMap": (lambda: geom.eval_grid(axes),
                        geom.tensor.spaces(), [geom.ctrl]),
        "PullbackFunction": (lambda: PullbackFunction(f, geom).eval_grid(axes),
                             geom.tensor.spaces(), [geom.ctrl]),
    }


@pytest.mark.parametrize("name", [
    "CoefficientTensor", "CoefficientTensor-vector", "SparseGridFunction",
    "SumOfSeparable", "GeometryMap", "PullbackFunction"])
def test_grid_evaluators_return_owned_arrays(name):
    # the norms overwrite what an evaluator returns, so it must be the
    # caller's own: writable, and aliasing nothing that outlives the call
    evaluate, spaces, coeffs = _evaluators()[name]
    out = evaluate()
    assert out.flags.writeable
    for other in [*coeffs, *_cached_arrays(spaces, 5, (1, 1)), evaluate()]:
        assert not np.shares_memory(out, other)

"""Geometry maps: evaluation, inversion, physical norms."""

import math
import re
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from sgsplines import functions as fn
from sgsplines import geometry
from sgsplines.bspline import greville, make_space
from sgsplines.cli import main as cli_main
from sgsplines.geometry import (
    GeometryMap,
    PullbackFunction,
    _factorized_gram,
    _mapped_kernels,
    builtin_geometry,
    distorted_square_geometry,
    identity_geometry,
    load_geometry,
    mapped_rayleigh,
    pullback_error_norm,
    shear_geometry,
)
from sgsplines.indices import LevelRule
from sgsplines.spaces import (
    _top_eigenvalue,
    combination_project,
    stacked_sparse_basis,
)
from sgsplines.tensorops import (
    CoefficientTensor,
    _norm_axes,
    cell_slabs,
    error_norm,
)
from oracles import (
    eval_points,
    inverse,
    jacobian,
    khatri_rao,
    mapped_grams_reference,
    mapped_kernels_full_grid,
    mapped_rayleigh_generalized,
    mapped_rayleigh_reference,
    pullback_error_norm_all_held,
    pullback_weighted_squares_all_held,
    random_trig,
    save_geometry,
)

SHEAR = np.array([[1.0, 0.4], [0.0, 1.0]])


def test_identity_map_and_jacobian():
    G = identity_geometry(2, degree=2)
    pts = np.random.default_rng(0).random((100, 2))
    assert np.abs(eval_points(G, pts) - pts).max() < 1e-12
    assert np.abs(jacobian(G, pts) - np.eye(2)).max() < 1e-12


def test_affine_shear_constant_jacobian():
    G = shear_geometry()
    pts = np.random.default_rng(1).random((100, 2))
    assert np.abs(eval_points(G, pts) - pts @ SHEAR.T).max() < 1e-12
    assert np.abs(jacobian(G, pts) - SHEAR).max() < 1e-12


def test_distorted_square_jacobian_positive_and_fd():
    G = distorted_square_geometry()
    rng = np.random.default_rng(2)
    pts = rng.random((50, 2)) * 0.9 + 0.05
    det = np.linalg.det(jacobian(G, pts))
    assert det.min() > 0
    eps = 1e-6
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = eps
        fd = (eval_points(G, pts + dp) - eval_points(G, pts - dp)) / (2 * eps)
        ana = jacobian(G, pts)[:, :, j]
        assert np.abs(fd - ana).max() < 1e-6 * max(1.0, np.abs(ana).max())


def _affine_3d():
    A = np.array([[1.0, 0.2, 0.0], [0.1, 0.9, 0.3], [0.0, -0.2, 1.1]])
    return GeometryMap(2, identity_geometry(3, degree=2).ctrl @ A.T + 0.5)


@pytest.mark.parametrize("geom", [distorted_square_geometry, _affine_3d],
                         ids=["distorted-square", "affine-d3"])
def test_grid_evaluation_matches_scattered_oracle(geom):
    G = geom()
    rng = np.random.default_rng(6)
    axes = [np.r_[0.0, np.sort(rng.random(k)), 1.0] for k in (5, 4, 3)[:G.d]]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    assert np.abs(G.eval_grid(axes) - eval_points(G, pts)).max() < 1e-12
    assert np.abs(G.jacobian_grid(axes) - jacobian(G, pts)).max() < 1e-12


def test_degenerate_map_rejected():
    ctrl = identity_geometry(2, degree=1).ctrl.copy()
    ctrl[..., 0] = 0.0  # collapses the square onto a line
    with pytest.raises(ValueError):
        GeometryMap(1, ctrl)


def _folded_map():
    """Degree 3, level 5: dx/dxi is the quadratic spline with coefficients
    1, 1, 2, -1, 2, -1, ..., 2, 1, 1, so the x control points step by
    ..., 2h, -h, 2h, ... (h = 2^-5) and y is the identity.  It reads 1/2
    or more at every knot and -1/4 at the midpoint of every cell whose
    coefficient is -1: the map folds inside those cells."""
    p, level = 3, 5
    space = make_space(p, level)
    t = space.knots
    slopes = np.array([1.0, 1.0] + [2.0, -1.0] * 15 + [2.0, 1.0])
    x = np.concatenate([[0.0], np.cumsum(slopes * (t[p + 1:-1] - t[1:-p - 1]) / p)])
    g = greville(space)
    return p, level, np.stack(np.meshgrid(x, g, indexing="ij"), axis=-1)


def test_map_folded_inside_its_cells_is_refused(tmp_path, capsys):
    p, level, ctrl = _folded_map()
    ct = CoefficientTensor((level, level), p, ctrl)

    def det(axes):
        return np.linalg.det(np.stack([ct.deriv_grid(axes, e)
                                       for e in ((1, 0), (0, 1))], axis=-1))

    # positive on 33 points per direction, the knots of its 32 cells, and
    # negative at the nodes of a degree-3 norm
    assert det([np.linspace(0.0, 1.0, 33)] * 2).min() > 0.4
    assert det(_norm_axes((level, level), p + 3)[0]).min() < -0.2
    with pytest.raises(ValueError, match="not positive"):
        GeometryMap(p, ctrl)
    geo = tmp_path / "fold.geo"
    save_geometry(SimpleNamespace(degree=p, ctrl=ctrl), geo)
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"kind=mapped-convergence\ngeometry={geo}\n")
    assert cli_main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


_UNFOLDED = {
    **{name: partial(builtin_geometry, name) for name in geometry._BUILTINS},
    "identity-d3": partial(identity_geometry, 3, degree=2),
    "cube": lambda: distorted_cube_geometry(),
    # a fine map: the identity on the level-5 cubic Greville net
    "identity-l5": lambda: GeometryMap(3, np.stack(
        np.meshgrid(*[greville(make_space(3, 5))] * 2, indexing="ij"), axis=-1)),
}


@pytest.mark.parametrize("make", _UNFOLDED.values(), ids=_UNFOLDED)
def test_every_builtin_and_unfolded_map_builds(make):
    assert isinstance(make(), GeometryMap)


def test_corner_interpolation_enforced():
    G = distorted_square_geometry()
    for corner in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]:
        corner = np.array(corner)
        assert np.abs(eval_points(G, corner) - corner).max() < 1e-12


def test_non_finite_control_points_rejected():
    # NaN at the interior point of a 3x3 net leaves the corners intact
    ctrl = distorted_square_geometry().ctrl.copy()
    ctrl[1, 1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GeometryMap(2, ctrl)


def test_map_freezes_its_own_copy_of_the_control_points():
    ctrl = identity_geometry(2, degree=1).ctrl.copy()
    G = GeometryMap(1, ctrl)
    assert ctrl.flags.writeable
    ctrl[0, 0, 0] = 0.5  # the caller's array stays the caller's
    assert G.ctrl[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        G.ctrl[0, 0, 0] = 1.0


def test_inverse_identity_and_affine():
    G = identity_geometry(2, degree=1)
    x = np.random.default_rng(3).random((20, 2))
    assert np.abs(inverse(G, x) - x).max() < 1e-12
    Gs = shear_geometry()
    xi = np.linalg.solve(SHEAR, x.T).T
    keep = (xi >= 0).all(axis=1) & (xi <= 1).all(axis=1)
    assert np.abs(inverse(Gs, x[keep]) - xi[keep]).max() < 1e-12


def test_inverse_round_trip_distorted():
    G = distorted_square_geometry()
    xi = np.random.default_rng(4).random((200, 2))
    x = eval_points(G, xi)
    assert np.abs(inverse(G, x) - xi).max() < 1e-10


def test_pullback_norm_identity_matches_parameter_norm():
    G = identity_geometry(2, degree=1)
    f = fn.sinpi_product(2)
    sg = combination_project(PullbackFunction(f, G), LevelRule(2, 4, 2))
    e_param = error_norm(f, sg, "semi", 0)
    e_phys = pullback_error_norm(f, sg, G)
    assert abs(e_param - e_phys) < 1e-12 * max(1.0, e_param)


def test_pullback_norm_of_pushforward_is_zero():
    # f_phys defined as the push-forward of the spline itself
    G = distorted_square_geometry()
    rule = LevelRule(2, 3, 2)
    f = fn.sinpi_product(2)
    sg = combination_project(PullbackFunction(f, G), rule)

    class PushForward:
        def eval_points(self, pts, alpha=None):
            assert not alpha or not any(alpha)
            return eval_points(sg, inverse(G, pts))

    assert pullback_error_norm(PushForward(), sg, G) < 1e-10


def test_pullback_norm_affine_change_of_variables():
    G = shear_geometry()
    f_phys = fn.SumOfSeparable(2, [(1.0, [fn.TrigFactor(np.pi / 2),
                                          fn.TrigFactor(np.pi / 2)])])
    pull = PullbackFunction(f_phys, G)
    sg = combination_project(pull, LevelRule(2, 4, 2))
    e_phys = pullback_error_norm(f_phys, sg, G)

    class Pull:
        d = 2
        def eval_grid(self, axes, alpha, out):
            out += pull.eval_grid(axes)
            return out

    e_param = error_norm(Pull(), sg, "semi", 0)
    scale = np.sqrt(abs(np.linalg.det(SHEAR)))
    assert abs(e_phys - e_param * scale) < 1e-10


def test_geometry_file_round_trip(tmp_path):
    G = distorted_square_geometry()
    path = tmp_path / "square.geo"
    save_geometry(G, path)
    G2 = load_geometry(path)
    assert G2.degree == G.degree
    np.testing.assert_array_equal(G2.ctrl, G.ctrl)


def test_geometry_file_errors(tmp_path):
    bad = tmp_path / "bad.geo"
    bad.write_text("degree 1\nwat 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_geometry(bad)
    bad.write_text("degree 1\ndims 2 2\ncontrol_points\n0 0\n1 0\n")
    with pytest.raises(ValueError, match="expected 4 control points"):
        load_geometry(bad)
    bad.write_text("degree 1\ndims 2 2\ncontrol_points\n0 0\nx 0\n0 1\n1 1\n")
    with pytest.raises(ValueError, match="bad control point"):
        load_geometry(bad)
    bad.write_text("dims 2 2\ncontrol_points\n0 0\n1 0\n0 1\n1 1\n")
    with pytest.raises(ValueError, match="missing required"):
        load_geometry(bad)
    bad.write_text("degree 1\ndims 0 0\ncontrol_points\n")
    with pytest.raises(ValueError, match="at least 1"):
        load_geometry(bad)
    # extra tokens are refused, not dropped, and each key appears once
    square = "control_points\n0 0\n1 0\n0 1\n1 1\n"
    for text, message in [
            ("degree 1 7\ndims 2 2\n" + square,
             ":1: too many values for key 'degree'"),
            ("degree 1\ndims 2 2\ncontrol_points 5\n0 0\n1 0\n0 1\n1 1\n",
             ":3: too many values for key 'control_points'"),
            ("degree 1\ndims 2 2\ndegree 2\n" + square,
             ":3: key 'degree' repeats line 1"),
            ("degree 1\ndims 3 3\n# the extent of a 2 x 2 mesh\ndims 2 2\n"
             + square, ":4: key 'dims' repeats line 2")]:
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad) + message)}"):
            load_geometry(bad)


def test_builtin_geometry_lookup():
    assert builtin_geometry("identity").degree == 1
    assert builtin_geometry("distorted-square").degree == 2
    with pytest.raises(ValueError):
        builtin_geometry("moebius")


def test_mapped_rayleigh_growth():
    G = distorted_square_geometry()
    vals = {n: mapped_rayleigh(LevelRule(2, n, 2), 1, G) for n in (3, 4)}
    env = {n: 2.0 ** n * abs(np.log(2.0 ** -n)) for n in (3, 4)}
    slope = (np.log(vals[4]) - np.log(vals[3])) / (np.log(env[4]) - np.log(env[3]))
    assert slope <= 1.05


def distorted_cube_geometry():
    """Quadratic map of the unit cube with the centre control point moved:
    the faces stay planar, the parametrization does not."""
    g = np.array([0.0, 0.5, 1.0])
    ctrl = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    ctrl[1, 1, 1] += (0.12, 0.08, -0.10)
    return GeometryMap(2, ctrl)


# d = 3 sums six metric terms, three of them off the diagonal, and d = 1 one
MAPPED_PENCILS = pytest.mark.parametrize("d,n,p,q,geom", [
    (2, 4, 2, 1, distorted_square_geometry()),
    (2, 4, 3, 2, shear_geometry()),
    (3, 3, 1, 1, identity_geometry(3, 1)),
    (3, 3, 2, 1, distorted_cube_geometry()),
    (1, 5, 2, 1, identity_geometry(1, 1)),
], ids=["d2-distorted", "d2-shear", "d3-identity", "d3-cube", "d1-identity"])


@MAPPED_PENCILS
def test_mapped_rayleigh_matches_reference_grams(d, n, p, q, geom, monkeypatch):
    # the sum-factorized A and B against X^T X of the grid x N value matrices
    pencils = []

    def record(A, N, B):
        pencils.append((A.copy(), B.copy()))
        return _top_eigenvalue(A, N, B)

    monkeypatch.setattr(geometry, "_top_eigenvalue", record)
    rule = LevelRule(d, n, p)
    val = mapped_rayleigh(rule, q, geom)
    (A, B), = pencils
    A_ref, B_ref = mapped_grams_reference(rule, q, geom)
    for M, ref in ((A, A_ref), (B, B_ref)):
        assert np.array_equal(M, M.T)
        assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()
    ref = mapped_rayleigh_reference(rule, q, geom)
    assert abs(val - ref) <= 1e-12 * ref


@MAPPED_PENCILS
def test_mapped_rayleigh_matches_generalized_pencil(d, n, p, q, geom):
    # X^T X of sqrt(W det J)-scaled value matrices and the top eigenvalue
    # alone, against M^T (W M) and the whole generalized spectrum
    rule = LevelRule(d, n, p)
    val = mapped_rayleigh(rule, q, geom)
    ref = mapped_rayleigh_generalized(rule, q, geom)
    assert abs(val - ref) <= 1e-12 * ref


@pytest.mark.parametrize("d", [1, 2, 3])
def test_factorized_gram_matches_khatri_rao_products(d):
    # unequal grids per direction and unrelated row and column factors
    basis = stacked_sparse_basis(LevelRule(d, 3, 1), 1)
    M, rng = basis.V.shape[1], np.random.default_rng(d)
    K = rng.random((3, 4, 5)[:d])
    factors = [(rng.standard_normal((g, M)), rng.standard_normal((g, M)))
               for g in K.shape]
    out = _factorized_gram(basis.entries, basis.levels)(K, factors)
    cols = basis.entries.T
    a, b = (khatri_rao([f[s] for f in factors], cols) for s in (0, 1))
    ref = a.T @ (K.reshape(-1, 1) * b)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_factorized_gram_rejects_an_entry_set_that_is_not_downward_closed():
    basis = stacked_sparse_basis(LevelRule(2, 4, 2), 1)
    entries = basis.entries[1:]  # entry (0, 0) removed
    assert not (entries == 0).all(axis=1).any()
    with pytest.raises(RuntimeError, match="not downward closed"):
        _factorized_gram(entries, basis.levels)


def test_mapped_rayleigh_builds_no_grid_by_basis_matrix():
    # (2^6 (p+3))^2 = 102400 quadrature points by N = 768 basis functions:
    # one value matrix would take 629 MB
    rule, geom = LevelRule(2, 6, 2), distorted_square_geometry()
    mapped_rayleigh(rule, 1, geom)  # the cached basis is not counted
    tracemalloc.start()
    try:
        mapped_rayleigh(rule, 1, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.parametrize("d,n,p,geom", [
    (2, 4, 2, distorted_square_geometry()),
    (2, 3, 3, shear_geometry()),
    (3, 3, 1, identity_geometry(3, 1)),
    (1, 5, 2, identity_geometry(1, 1)),
], ids=["d2-distorted", "d2-shear", "d3-identity", "d1-identity"])
def test_pullback_error_norm_matches_all_held_bits(d, n, p, geom):
    f = random_trig(d, seed=n)
    sg = combination_project(PullbackFunction(f, geom), LevelRule(d, n, p))
    assert (pullback_error_norm(f, sg, geom)
            == pullback_error_norm_all_held(f, sg, geom))


def test_pullback_error_norm_peaks_at_its_jacobian():
    # at n = 6 the grid, 320 x 320 points, is two slabs of whole cells
    # (`cell_slabs`), so the peak is set by the larger slab of 200 x 320
    # points: its Jacobian while it is filled takes d^2 + d = 6 such
    # buffers at d = 2, below the 6 grid buffers of a full-grid Jacobian
    buffer = 102400 * 8  # (2^6 (p+3))^2 quadrature points
    f, geom = fn.sinpi_product(2), distorted_square_geometry()
    sg = combination_project(PullbackFunction(f, geom), LevelRule(2, 6, 2))
    pullback_error_norm(f, sg, geom)  # the cached 1D matrices are not counted
    tracemalloc.start()
    try:
        pullback_error_norm(f, sg, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * buffer


@pytest.mark.parametrize("n", [6, 8])
def test_pullback_error_norm_memory_does_not_grow_with_the_grid(n):
    # one slab of about 2^16 points at a time: the level-8 grid has 1.6M
    # points, and its full-grid Jacobian alone would take 52 MB
    f, geom = fn.sinpi_product(2), distorted_square_geometry()
    sg = combination_project(PullbackFunction(f, geom), LevelRule(2, n, 2))
    pullback_error_norm(f, sg, geom)  # the cached 1D matrices are not counted
    tracemalloc.start()
    try:
        pullback_error_norm(f, sg, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("d,n,p,geom", [
    (2, 8, 2, distorted_square_geometry()),
    (3, 5, 1, distorted_cube_geometry()),
], ids=["d2-distorted", "d3-cube"])
def test_slabbed_pullback_error_norm_matches_an_exact_sum(d, n, p, geom):
    # the slab sums, added in order, against the correctly rounded sum of
    # the all-held oracle's weighted squares
    f = random_trig(d, seed=n)
    sg = combination_project(PullbackFunction(f, geom), LevelRule(d, n, p))
    assert len(list(cell_slabs(_norm_axes((n,) * d, p + 3)[0], p + 3))) > 1
    squares = pullback_weighted_squares_all_held(f, sg, geom)
    ref = math.sqrt(math.fsum(squares.ravel()))
    assert abs(pullback_error_norm(f, sg, geom) - ref) <= 1e-15 * ref


@pytest.mark.parametrize("n,p,geom", [
    (7, 2, distorted_square_geometry()),
    (4, 2, distorted_cube_geometry()),
], ids=["d2-distorted", "d3-cube"])
def test_mapped_kernels_match_the_full_grid_bits(n, p, geom):
    # the mapped pencil's K arrays, filled slab by slab, against the same
    # products of the Jacobian, its determinant and its inverse held on the
    # full grid
    level = (n,) * geom.d
    assert len(list(cell_slabs(_norm_axes(level, p + 3)[0], p + 3))) > 1
    half, metric = _mapped_kernels(geom, level, p + 3)
    ref_half, ref_metric = mapped_kernels_full_grid(geom, level, p + 3)
    assert np.array_equal(half, ref_half)
    assert list(metric) == list(ref_metric)
    for jk, K in metric.items():
        assert np.array_equal(K, ref_metric[jk])

"""Gauss quadrature, Gram matrices, and univariate spline projections.

The projector of order r minimizes the H^r seminorm of the residual over the
spline space; its r-dimensional kernel (polynomials of degree < r inside the
space) is pinned by making the residual L2-orthogonal to polynomials of degree
< r, which leaves the minimized seminorm unchanged.

For r >= 1 the projector is computed as a least-squares problem on the
quadrature-weighted r-th-derivative collocation matrix, subject to the moment
constraints, by the null-space QR method for equality-constrained least squares
(Bjorck, Numerical Methods for Least Squares Problems, 1996, sec. 5.1).  The
normal equations (the order-r Gram matrix in a saddle-point system) are never
formed: they square a condition number that already grows like h^-r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bspline import _frozen, collocation_matrix

MAX_GAUSS_POINTS = 16


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on the reference cell (0, 1); weights sum to 1."""

    points: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


@lru_cache(maxsize=None)
def gauss_rule(points):
    """Gauss-Legendre rule with the given number of points, exact for
    polynomials of degree 2*points - 1 on (0, 1)."""
    if not 1 <= points <= MAX_GAUSS_POINTS:
        raise ValueError(f"points must be in [1, {MAX_GAUSS_POINTS}], got {points}")
    t, w = np.polynomial.legendre.leggauss(points)
    return QuadratureRule(points, *_frozen((t + 1.0) / 2.0, w / 2.0))


def element_grid(level, rule):
    """Quadrature nodes and weights tiled over the 2**level mesh cells."""
    h = 2.0 ** -level
    offsets = np.arange(2 ** level) * h
    nodes = (offsets[:, None] + rule.nodes[None, :] * h).ravel()
    weights = np.tile(rule.weights * h, 2 ** level)
    return nodes, weights


@lru_cache(maxsize=None)
def _gram_cached(space, r):
    """Gram matrix of the r-th derivatives, assembled cell by cell with the
    (p+1)-point Gauss rule, exact for the degree-2(p-r) integrand."""
    p = space.degree
    if r > p:
        raise ValueError(f"derivative order {r} exceeds degree {p}")
    nodes, weights = element_grid(space.level, gauss_rule(p + 1))
    B = collocation_matrix(space, nodes, r)
    G = B.T @ (weights[:, None] * B)
    return _frozen(0.5 * (G + G.T))


def gram_matrix(space, r):
    """Cached, read-only Gram matrix of the r-th derivatives."""
    return _gram_cached(space, r)


@lru_cache(maxsize=None)
def projection_matrices(space, r):
    """Linear maps from grid data to projected spline coefficients.

    Returns (nodes, weights, M0, Mr) with coefficients = M0 @ values for r = 0,
    and coefficients = M0 @ values + Mr @ r_th_derivative_values for r >= 1
    (the M0 part carries the kernel-pinning moment constraints).  The cached
    arrays are read-only.

    r = 0 solves the L2 normal equations with a banded Cholesky factor of
    the Gram matrix, whose bandwidth is the degree (LAPACK ``pbtrf``, which
    unlike the dense ``potrf`` gives the same bits at every BLAS thread
    count).  r >= 1 minimizes ||W^1/2 (B_r c - g)|| subject to Q^T c = P^T W f,
    with W the quadrature weights, B_r the r-th-derivative collocation matrix, g
    the r-th-derivative values, P the monomials of degree < r and Q = B^T W P
    their moments.  A QR of Q splits the coefficients into a constrained part Y
    and a null-space part Z, and one QR of W^1/2 B_r Z solves for the latter;
    no inverse is taken.  The (p + 3)-point rule integrates the degree-2(p - r)
    derivative products exactly, so B_r^T W B_r is the order-r Gram matrix.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded, qr, solve_triangular
    nodes, weights = element_grid(space.level, gauss_rule(space.degree + 3))
    if r == 0:
        B = collocation_matrix(space, nodes, 0)
        G = gram_matrix(space, 0)
        p = space.degree
        # upper band storage: row p - k holds the k-th superdiagonal
        band = np.zeros((p + 1, space.dim))
        for k in range(p + 1):
            band[p - k, k:] = np.diagonal(G, k)
        cho = cholesky_banded(band)
        M0 = cho_solve_banded((cho, False), B.T * weights[None, :])
        return _frozen(nodes, weights, M0, None)
    # Equality-constrained least squares by the null-space method: with
    # Q = [Y Z] [R; 0], the constraint fixes the Y-part of the coefficients and
    # the Z-part solves an unconstrained problem through a QR of A Z.
    sw = np.sqrt(weights)
    A = sw[:, None] * collocation_matrix(space, nodes, r)
    PtW = (nodes[:, None] ** np.arange(r)[None, :]).T * weights[None, :]
    Qf, R = qr(collocation_matrix(space, nodes, 0).T @ PtW.T)
    Y, Z = Qf[:, :r], Qf[:, r:]
    Qz, Rz = qr(A @ Z, mode="economic")
    # coefficients = Y u + Z v with R^T u = P^T W f and Rz v = Qz^T (W^1/2 g - A Y u)
    U = solve_triangular(R[:r], PtW, trans="T")
    Vz = solve_triangular(Rz, Qz.T)
    Mr = Z @ (Vz * sw[None, :])
    M0 = (Y - Z @ (Vz @ (A @ Y))) @ U
    return _frozen(nodes, weights, M0, Mr)


def project_1d(space, f, r=0):
    """Coefficients of the seminorm H^r-orthogonal projection of ``f``.

    ``f`` is called as ``f(x, m)`` on arrays of quadrature nodes, for m = 0
    and, when r >= 1, for m = r.  Idempotent on members of the space up to
    roundoff, which grows with the level and with r as the conditioning of
    the r-th-derivative collocation matrix does.  For standard-normal
    coefficients at p = 4, level 8 the largest error over 100 seeds is about
    1e-11 at r = 2, 3e-9 at r = 3 and 4e-6 at r = 4 (6e-7 with seed 11).
    """
    if r > space.degree:
        raise ValueError(f"projection order {r} exceeds degree {space.degree}")
    nodes, _, M0, Mr = projection_matrices(space, r)
    if r == 0:
        return M0 @ f(nodes, 0)
    return M0 @ f(nodes, 0) + Mr @ f(nodes, r)


"""Univariate maximally smooth B-spline spaces on dyadic meshes.

Spaces of degree ``p`` splines with C^{p-1} continuity on the uniform mesh of
size ``2**-level`` over [0, 1], with open (clamped) knot vectors.  Provides
basis/derivative evaluation via the Cox-de Boor triangular recursion, dyadic
refinement (knot insertion) operators, Greville abscissae, and subspaces with
vanishing endpoint derivatives.

Knots are floats.  Dyadic knots j / 2**level are exact in binary floating
point, so knot differences carry no spacing round-off.  Refinement uses the
Oslo algorithm (Cohen, Lyche and Riesenfeld, CGIP 14, 1980): each row of the
refinement matrix is a product of p convex-combination steps over knot
ratios, computed for all fine rows at once.

Arrays returned by the lru caches of this module are read-only, because they
are shared between callers and threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class SplineSpace1D:
    """Univariate spline space of maximal smoothness on a dyadic mesh.

    Dimension is ``2**level + degree``.  Instances are immutable; all
    operations on them are pure functions.
    """

    degree: int
    level: int
    knots: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self):
        return 2 ** self.level + self.degree

    @property
    def num_cells(self):
        return 2 ** self.level

    @property
    def h(self):
        return 2.0 ** (-self.level)


@lru_cache(maxsize=None)
def _space(p, level):
    ncells = 2 ** level
    knots = np.concatenate([np.zeros(p + 1), np.arange(1, ncells) / ncells,
                            np.ones(p + 1)])
    knots.setflags(write=False)
    return SplineSpace1D(p, level, knots)


def make_space(p, level):
    """Create the maximally smooth spline space of degree ``p`` on mesh level
    ``level`` (mesh size ``2**-level``).

    Raises ``ValueError`` for negative degree or ``level < 1``.
    """
    if p < 0:
        raise ValueError(f"degree must be nonnegative, got {p}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return _space(p, level)


def _find_spans(knots, deg, x):
    """Index k per point with knots[k] <= x < knots[k+1], clamped to the
    valid span range of a degree-`deg` clamped vector."""
    k = np.searchsorted(knots, x, side="right") - 1
    return np.clip(k, deg, len(knots) - deg - 2)


def _nonzero_basis(knots, deg, spans, x):
    """Values of the deg+1 nonvanishing basis functions at each point.

    Returns shape (npts, deg+1); column r is function index spans - deg + r.
    """
    npts = x.shape[0]
    N = np.zeros((npts, deg + 1))
    N[:, 0] = 1.0
    left = np.empty((npts, deg + 1))
    right = np.empty((npts, deg + 1))
    for j in range(1, deg + 1):
        left[:, j] = x - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - x
        saved = np.zeros(npts)
        for r in range(j):
            temp = N[:, r] / (right[:, r + 1] + left[:, j - r])
            N[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        N[:, j] = saved
    return N


@lru_cache(maxsize=None)
def _derivative_transfer(p, level, m):
    """Matrix mapping degree-p coefficients to coefficients of the m-th
    derivative in the degree p-m basis on the m-fold trimmed knot vector."""
    knots = _space(p, level).knots
    dim = 2 ** level + p
    D = np.eye(dim)
    for j in range(1, m + 1):
        q = p - j + 1  # degree before this differentiation step
        tj = knots[j - 1:len(knots) - (j - 1)] if j > 1 else knots
        rows = dim - j
        Dj = np.zeros((rows, rows + 1))
        for i in range(rows):
            denom = tj[i + q + 1] - tj[i + 1]
            Dj[i, i] = -q / denom
            Dj[i, i + 1] = q / denom
        D = Dj @ D
    D.setflags(write=False)
    return D


def collocation_matrix(space, x, m=0):
    """Dense matrix of m-th derivatives of all basis functions at points `x`.

    Shape (len(x), space.dim).  At m=0 rows are nonnegative and sum to one,
    with at most degree+1 nonzero entries.
    """
    p = space.degree
    if not 0 <= m <= p:
        raise ValueError(f"derivative order {m} outside [0, {p}]")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    knots = space.knots
    deg = p - m
    tk = knots[m:len(knots) - m] if m > 0 else knots
    spans = _find_spans(tk, deg, x)
    N = _nonzero_basis(tk, deg, spans, x)
    dim_m = space.dim - m
    B = np.zeros((x.size, dim_m))
    cols = spans[:, None] - deg + np.arange(deg + 1)[None, :]
    np.put_along_axis(B, cols, N, axis=1)
    if m == 0:
        return B
    return B @ _derivative_transfer(p, space.level, m)


def eval_basis(space, x, m=0):
    """Vector of m-th derivatives of all basis functions at a single point."""
    return collocation_matrix(space, [x], m)[0]


def eval_spline(space, coeffs, x, m=0):
    """Evaluate the spline with the given coefficient vector (or stacked
    columns of vectors) at points `x`."""
    return collocation_matrix(space, x, m) @ coeffs


def greville(space):
    """Greville abscissae (knot averages); cell midpoints for degree 0."""
    p, knots = space.degree, space.knots
    if p == 0:
        return (np.arange(space.num_cells) + 0.5) * space.h
    return np.array([knots[i + 1:i + p + 1].mean() for i in range(space.dim)])


@lru_cache(maxsize=None)
def _refinement_matrix(p, coarse_level):
    """Dense (fine.dim, coarse.dim) knot-insertion matrix from `coarse_level`
    to the next level, by the Oslo algorithm.

    Fine row i has its nonzeros at coarse indices mu-p..mu, where
    t[mu] <= tau[i] < t[mu+1] for coarse knots t and fine knots tau.  Those
    weights are the product R_1(tau[i+1]) ... R_p(tau[i+p]) of the
    k x (k+1) matrices whose row j holds the convex weights
    (t[j+k] - x, x - t[j]) / (t[j+k] - t[j]), j = mu-k+1..mu.
    """
    t = _space(p, coarse_level).knots
    tau = _space(p, coarse_level + 1).knots
    n, m = 2 ** coarse_level + p, 2 ** (coarse_level + 1) + p
    mu = np.searchsorted(t, tau[:m], side="right") - 1
    b = np.ones((m, 1))
    for k in range(1, p + 1):
        x = tau[k:k + m, None]
        j = mu[:, None] - k + 1 + np.arange(k)[None, :]
        tj, tjk = t[j], t[j + k]
        den = tjk - tj
        step = np.zeros((m, k + 1))
        step[:, :k] += b * ((tjk - x) / den)
        step[:, 1:] += b * ((x - tj) / den)
        b = step
    R = np.zeros((m, n))
    cols = mu[:, None] - p + np.arange(p + 1)[None, :]
    np.put_along_axis(R, cols, b, axis=1)
    R.setflags(write=False)
    return R


def refinement_operator(coarse, fine):
    """Knot-insertion operator embedding `coarse` into `fine` (one level up).

    Returns R with shape (fine.dim, coarse.dim) such that the fine spline with
    coefficients R @ c reproduces the coarse spline with coefficients c.
    """
    if coarse.degree != fine.degree:
        raise ValueError("refinement requires equal degrees")
    if fine.level != coarse.level + 1:
        raise ValueError("refinement requires consecutive levels")
    return _refinement_matrix(coarse.degree, coarse.level)


def prolongation(space, target_level):
    """Composite refinement operator from `space` up to `target_level`."""
    if target_level < space.level:
        raise ValueError("target level must not be coarser")
    R = np.eye(space.dim)
    for lev in range(space.level, target_level):
        R = _refinement_matrix(space.degree, lev) @ R
    return R


@dataclass(frozen=True)
class ConstrainedSubspace1D:
    """Subspace of splines whose derivatives of orders q, q+2, ... (< p)
    vanish at both endpoints; columns of `basis` are parent coefficients."""

    space: SplineSpace1D
    q: int
    basis: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.basis.shape[1]


def constraint_orders(p, q):
    """Derivative orders 2l+q < p constrained at each endpoint."""
    return [q + 2 * l for l in range((p - q + 1) // 2) if q + 2 * l < p]


def vanishing_subspace(space, q):
    """Basis of the q-vanishing-derivative subspace as a coefficient matrix.

    The constraints couple only the first/last boundary coefficients, so the
    nullspace is assembled from two small endpoint blocks around an interior
    identity; falls back to a global nullspace when the blocks would overlap.
    """
    p = space.degree
    if not 0 <= q <= p:
        raise ValueError(f"order {q} outside [0, {p}]")
    orders = constraint_orders(p, q)
    n, nc = space.dim, len(orders)
    if nc == 0:
        return ConstrainedSubspace1D(space, q, np.eye(n))
    # rows scaled by h^order so the blocks are O(1)
    scale = space.h ** np.array(orders, dtype=float)
    rows0 = np.array([eval_basis(space, 0.0, m) for m in orders]) * scale[:, None]
    rows1 = np.array([eval_basis(space, 1.0, m) for m in orders]) * scale[:, None]
    if n >= 2 * p:
        # function p already vanishes to order p at x=0 (likewise at x=1),
        # so the constraints act on the p outermost coefficients per side
        null_l = scipy.linalg.null_space(rows0[:, :p])
        null_r = scipy.linalg.null_space(rows1[:, n - p:])
        B = np.zeros((n, n - 2 * nc))
        B[:p, :p - nc] = null_l
        B[p:n - p, p - nc:p - nc + n - 2 * p] = np.eye(n - 2 * p)
        B[n - p:, n - 2 * nc - (p - nc):] = null_r
    else:
        B = scipy.linalg.null_space(np.vstack([rows0, rows1]))
    if B.shape[1] != n - 2 * nc:
        raise RuntimeError("unexpected constraint rank in vanishing subspace")
    return ConstrainedSubspace1D(space, q, B)

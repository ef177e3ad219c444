"""Univariate maximally smooth B-spline spaces on dyadic meshes.

Spaces of degree ``p`` splines with C^{p-1} continuity on the uniform mesh of
size ``2**-level`` over [0, 1], with open (clamped) knot vectors.  Provides
basis and derivative evaluation, dyadic refinement (knot insertion)
operators, Greville abscissae, and subspaces with vanishing endpoint
derivatives.  Evaluation is local: the Cox-de Boor recursion gives the p-m+1
values of degree p-m nonzero at a point, and de Boor's derivative recurrence
(A Practical Guide to Splines, ch. X) raises them by m difference steps to
the m-th derivatives of degree p, with no derivative transfer matrix.

Knots are floats.  Dyadic knots j / 2**level are exact in binary floating
point, so knot differences carry no spacing round-off.  Refinement uses the
Oslo algorithm (Cohen, Lyche and Riesenfeld, CGIP 14, 1980) in one pass from
any level to any finer one: each row of the refinement matrix is a product of
p convex-combination steps over knot ratios, computed for all fine rows at
once.

Arrays returned by the lru caches of this package are read-only, because
they are shared between callers and threads; `_frozen` marks them.
"""

from __future__ import annotations

import operator
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


def _frozen(*arrays):
    """Mark arrays that a cache shares between callers and threads
    read-only; None entries pass through.  Returns the one array given, or
    the tuple of them."""
    for a in arrays:
        if a is not None:
            a.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


@lru_cache(maxsize=None, typed=True)  # a float key misses an int's entry
def _space(p, level):
    p, level = operator.index(p), operator.index(level)
    ncells = 2 ** level
    knots = np.concatenate([np.zeros(p + 1), np.arange(1, ncells) / ncells,
                            np.ones(p + 1)])
    return SplineSpace1D(p, level, _frozen(knots))


def make_space(p, level):
    """Create the maximally smooth spline space of degree ``p`` on mesh level
    ``level`` (mesh size ``2**-level``).

    Raises ``ValueError`` for ``p < 0`` or ``level < 1``, ``TypeError`` for
    non-integers; a refused call caches nothing.
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
    The recursion runs in the precision of ``x``.
    """
    npts = x.shape[0]
    N = np.zeros((npts, deg + 1), dtype=x.dtype)
    N[:, 0] = 1.0
    left = np.empty_like(N)
    right = np.empty_like(N)
    for j in range(1, deg + 1):
        left[:, j] = x - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - x
        saved = np.zeros(npts, dtype=x.dtype)
        for r in range(j):
            temp = N[:, r] / (right[:, r + 1] + left[:, j - r])
            N[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        N[:, j] = saved
    return N


def _basis_band(space, x, m=0):
    """m-th derivatives of the p+1 basis functions that can be nonzero at
    each point, ``(first, band)``: band column r belongs to function
    first + r.  The p-m+1 values of degree p-m on the same mesh take m
    difference steps B'_i = q (B_i / (t_(i+q) - t_i) - B_(i+1) /
    (t_(i+q+1) - t_(i+1))) over the degree-q knots, each one column wider.
    Runs in the precision of ``x``."""
    deg = space.degree - m
    knots = _space(deg, space.level).knots
    spans = _find_spans(knots, deg, x)
    band, first = _nonzero_basis(knots, deg, spans, x), spans - deg
    for q in range(deg + 1, space.degree + 1):
        t = _space(q, space.level).knots
        i = first[:, None] + np.arange(q)
        scaled = band * (q / (t[i + q + 1] - t[i + 1]))
        band = np.pad(scaled, ((0, 0), (1, 0)))
        band[:, :-1] -= scaled
    return first, band


def collocation_matrix(space, x, m=0):
    """Dense matrix of m-th derivatives of all basis functions at points `x`.

    Shape (len(x), space.dim), scattered from the band of at most degree+1
    nonzero entries per row (`_basis_band`).  At m=0 rows are nonnegative
    and sum to one.  Raises ``ValueError`` for a point outside [0, 1] or NaN.
    """
    p = space.degree
    if not 0 <= m <= p:
        raise ValueError(f"derivative order {m} outside [0, {p}]")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size and not (0.0 <= x.min() and x.max() <= 1.0):  # false at NaN
        raise ValueError("evaluation points must lie in [0, 1]")
    first, band = _basis_band(space, x, m)
    B = np.zeros((x.size, space.dim))
    np.put_along_axis(B, first[:, None] + np.arange(p + 1), band, axis=1)
    return B


def greville(space):
    """Greville abscissae (knot averages); cell midpoints for degree 0."""
    p, knots = space.degree, space.knots
    if p == 0:
        return (np.arange(space.num_cells) + 0.5) * space.h
    return np.array([knots[i + 1:i + p + 1].mean() for i in range(space.dim)])


@lru_cache(maxsize=None, typed=True)  # typed as `_space` is
def _refinement_matrix(p, coarse_level, fine_level):
    """Dense (fine.dim, coarse.dim) knot-insertion matrix from `coarse_level`
    to any `fine_level` >= `coarse_level`, by the Oslo algorithm in one pass.

    Fine row i has its nonzeros at coarse indices mu-p..mu, where
    t[mu] <= tau[i] < t[mu+1] for coarse knots t and fine knots tau.  Those
    weights are the product R_1(tau[i+1]) ... R_p(tau[i+p]) of the
    k x (k+1) matrices whose row j holds the convex weights
    (t[j+k] - x, x - t[j]) / (t[j+k] - t[j]), j = mu-k+1..mu.
    """
    t = _space(p, coarse_level).knots
    tau = _space(p, fine_level).knots
    n, m = 2 ** coarse_level + p, 2 ** fine_level + p
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
    return _frozen(R)


def refinement_operator(coarse, fine):
    """Knot-insertion operator embedding `coarse` into `fine` (one level up).

    Returns R with shape (fine.dim, coarse.dim) such that the fine spline with
    coefficients R @ c reproduces the coarse spline with coefficients c.
    """
    if coarse.degree != fine.degree:
        raise ValueError("refinement requires equal degrees")
    if fine.level != coarse.level + 1:
        raise ValueError("refinement requires consecutive levels")
    return _refinement_matrix(coarse.degree, coarse.level, fine.level)


def prolongation(space, target_level):
    """Knot-insertion operator from `space` up to `target_level` in one Oslo
    pass, shape (2**target_level + degree, space.dim); the identity at
    `space.level`.  Cached and read-only."""
    if target_level < space.level:
        raise ValueError("target level must not be coarser")
    return _refinement_matrix(space.degree, space.level, target_level)


def constraint_orders(p, q):
    """Derivative orders 2l+q < p constrained at each endpoint."""
    return [q + 2 * l for l in range((p - q + 1) // 2) if q + 2 * l < p]


def vanishing_subspace(space, q):
    """Basis of the subspace of splines whose derivatives of orders q, q+2,
    ... (< p) vanish at both endpoints; its columns are parent coefficients.

    The constraints couple only the first/last boundary coefficients, so the
    nullspace is assembled from two small endpoint blocks around an interior
    identity.  Raises ``ValueError`` when the blocks would overlap
    (``space.dim < 2p``), which no admissible level reaches.
    """
    p = space.degree
    if not 0 <= q <= p:
        raise ValueError(f"order {q} outside [0, {p}]")
    orders = constraint_orders(p, q)
    n, nc = space.dim, len(orders)
    if nc == 0:
        return np.eye(n)
    if n < 2 * p:
        raise ValueError(f"endpoint constraints overlap on the dim-{n} space "
                         f"of degree {p}; need dim >= {2 * p}")
    # rows scaled by h^order so the blocks are O(1); function p already
    # vanishes to order p at x=0 (likewise at x=1), so the constraints act on
    # the p outermost coefficients per side
    scale = space.h ** np.array(orders, dtype=float)
    rows0, rows1 = (np.array([collocation_matrix(space, [x], m)[0] for m in orders])
                    * scale[:, None] for x in (0.0, 1.0))
    null_l = scipy.linalg.null_space(rows0[:, :p])
    null_r = scipy.linalg.null_space(rows1[:, n - p:])
    if not null_l.shape[1] == null_r.shape[1] == p - nc:
        raise RuntimeError("unexpected constraint rank in vanishing subspace")
    B = np.zeros((n, n - 2 * nc))
    B[:p, :p - nc] = null_l
    B[p:n - p, p - nc:p - nc + n - 2 * p] = np.eye(n - 2 * p)
    B[n - p:, n - 2 * nc - (p - nc):] = null_r
    return B

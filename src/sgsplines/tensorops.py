"""Anisotropic tensor-product projections and Sobolev-norm quadrature.

Directional projections are applied one axis at a time (the univariate
projectors commute).  When only a subset of directions is projected, the
remaining directions are kept as sampled data on the tensor Gauss grid so
operators can be composed without committing those directions to any finite
space.  For seminorm projections of order r >= 1 a sample carries, per subset
S of directions, the grid of the mixed derivative of order r in each direction
of S; projecting an axis consumes exactly the (S, S + {axis}) pairs and
reproduces both fields from the projected spline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .bspline import (
    _derivative_transfer,
    _find_spans,
    _nonzero_basis,
    _space,
    collocation_matrix,
    make_space,
)
from .quadrature import element_grid, gauss_rule, projection_matrices


@dataclass(frozen=True)
class CoefficientTensor:
    """Coefficients of a member of the anisotropic tensor-product space at a
    level multi-index; axis i has extent 2**level[i] + degree.

    One trailing axis beyond the d level axes makes the member vector-valued
    (a geometry map's control points); evaluations then carry it last.
    """

    level: tuple
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expect = tuple(2 ** l + self.degree for l in self.level)
        if self.coeffs.shape[:self.d] != expect or self.coeffs.ndim > self.d + 1:
            raise ValueError(f"coefficient shape {self.coeffs.shape} does not "
                             f"match spaces {expect}")

    @property
    def d(self):
        return len(self.level)

    def spaces(self):
        return [_space(self.degree, l) for l in self.level]

    @property
    def finest_level(self):
        return self.level

    def deriv_grid(self, axes, alpha=None):
        """Mixed derivative values on the tensor grid of per-direction nodes."""
        alpha = alpha or (0,) * self.d
        out = self.coeffs
        for sp, ax, a in zip(self.spaces(), axes, alpha):
            E = collocation_matrix(sp, ax, a)
            out = np.tensordot(out, E.T, axes=([0], [0]))
        # the value axis of a vector-valued member is never contracted and
        # now comes first
        return np.moveaxis(out, 0, -1) if out.ndim > self.d else out

    def eval_points(self, pts, alpha=None):
        """Pointwise evaluation at scattered points of shape (..., d).

        Uses only the degree+1 nonvanishing basis functions per direction, so
        the per-point cost is O((degree+1)^d) after a one-off banded
        differentiation of the coefficient array.
        """
        alpha = alpha or (0,) * self.d
        pts = np.asarray(pts, dtype=float)
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise ValueError("evaluation points must lie in [0, 1]^d")
        flat = pts.reshape(-1, self.d)
        coeffs = self.coeffs
        for i, (sp, a) in enumerate(zip(self.spaces(), alpha)):
            if a:
                D = _derivative_transfer(sp.degree, sp.level, a)
                coeffs = np.moveaxis(
                    np.tensordot(D, coeffs, axes=([1], [i])), 0, i)
        acc = coeffs
        for i, (sp, a) in enumerate(zip(self.spaces(), alpha)):
            deg = sp.degree - a
            knots = sp.knots[a:len(sp.knots) - a] if a else sp.knots
            spans = _find_spans(knots, deg, flat[:, i])
            N = _nonzero_basis(knots, deg, spans, flat[:, i])
            cols = spans[:, None] - deg + np.arange(deg + 1)[None, :]
            if i == 0:
                window = acc[cols]
            else:
                idx = cols.reshape(cols.shape + (1,) * (acc.ndim - 2))
                window = np.take_along_axis(acc, idx, axis=1)
            acc = np.einsum("nr...,nr->n...", window, N)
        return acc.reshape(pts.shape[:-1] + self.coeffs.shape[self.d:])


def tensor_weights(weights):
    return reduce(np.multiply.outer, weights)


def _apply_along(M, arr, axis):
    out = np.tensordot(M, arr, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class GridSample:
    """Function data on a tensor Gauss grid, sufficient to apply and compose
    directional seminorm projections of a fixed order r."""

    level: tuple
    degree: int
    r: int
    axes: tuple = field(repr=False)
    weights: tuple = field(repr=False)
    fields: dict = field(repr=False)

    @property
    def d(self):
        return len(self.level)

    @property
    def values(self):
        return self.fields[frozenset()]

    def spaces(self):
        return [make_space(self.degree, l) for l in self.level]


def sample(f, level, degree, r=0):
    """Sample an analytic function (and the derivative fields an order-r
    projection needs) on the tensor Gauss grid of the given level, whose
    degree + 3 points per cell are those of `projection_matrices`."""
    d = len(level)
    axes, weights = _norm_axes(level, degree, degree + 3)
    subsets = [frozenset()] if r == 0 else \
        [frozenset(c) for k in range(d + 1) for c in itertools.combinations(range(d), k)]
    fields = {}
    for S in subsets:
        alpha = tuple(r if i in S else 0 for i in range(d))
        fields[S] = f.eval_grid(axes, alpha)
    return GridSample(tuple(level), degree, r, axes, weights, fields)


def project_direction(gs, i):
    """Apply the univariate order-r projector along axis i of a sample."""
    sp = gs.spaces()[i]
    nodes, _, M0, Mr = projection_matrices(sp, gs.r)
    E0 = collocation_matrix(sp, nodes, 0)
    Er = collocation_matrix(sp, nodes, gs.r) if gs.r >= 1 else None
    out = {}
    for S, v in gs.fields.items():
        if i in S:
            continue
        coeff = _apply_along(M0, v, i)
        if gs.r >= 1:
            coeff = coeff + _apply_along(Mr, gs.fields[S | {i}], i)
        out[S] = _apply_along(E0, coeff, i)
        if gs.r >= 1:
            out[S | {i}] = _apply_along(Er, coeff, i)
    return GridSample(gs.level, gs.degree, gs.r, gs.axes, gs.weights, out)


def to_coefficients(gs):
    """Interpolate a fully (or exactly) spline-valued sample back to tensor
    coefficients; exact on members of the tensor space."""
    arr = gs.values
    for i, sp in enumerate(gs.spaces()):
        _, _, M0, _ = projection_matrices(sp, 0)
        arr = _apply_along(M0, arr, i)
    return CoefficientTensor(gs.level, gs.degree, arr)


def project_tensor(f, level, degree, J=None, r=0):
    """Directional projection onto the tensor-product spline space.

    ``J`` is the set of directions to project (0-based).  ``J=None`` (or the
    full set) applies the projector in every direction and returns a
    `CoefficientTensor`; a proper subset returns a `GridSample` with the
    remaining directions held as quadrature-grid samples; an empty ``J``
    returns the (sampled) input unchanged.
    """
    gs = f if isinstance(f, GridSample) else sample(f, level, degree, r)
    d = gs.d
    dirs = tuple(range(d)) if J is None else tuple(sorted(set(J)))
    if any(i < 0 or i >= d for i in dirs):
        raise ValueError(f"directions {dirs} outside range(0, {d})")
    for i in dirs:
        gs = project_direction(gs, i)
    if len(dirs) == d:
        return to_coefficients(gs)
    return gs


def multi_indices(d, order, mode):
    """Derivative multi-indices of a norm: 'semi' (|a|_1 = order), 'full'
    (|a|_1 <= order), 'mix' (|a|_inf <= order), 'mix-semi' (|a|_inf = order)."""
    box = itertools.product(range(order + 1), repeat=d)
    if mode == "semi":
        return [a for a in box if sum(a) == order]
    if mode == "full":
        return [a for a in box if sum(a) <= order]
    if mode == "mix":
        return list(box)
    if mode == "mix-semi":
        return [a for a in box if max(a) == order]
    raise ValueError(f"unknown norm mode '{mode}'")


def _norm_axes(level, degree, qpts):
    """Per-direction Gauss nodes and weights tiled over the cells of each level."""
    spaces = [make_space(degree, l) for l in level]
    grids = [element_grid(sp, gauss_rule(qpts)) for sp in spaces]
    return tuple(g[0] for g in grids), tuple(g[1] for g in grids)


def error_norm(f, u, mode, order):
    """Sobolev norm of f - u by tensor Gauss quadrature (degree + 3 points per
    cell) on the finest level involved in ``u`` (a `CoefficientTensor` or any
    object exposing ``finest_level``, ``degree`` and ``deriv_grid``).

    ``f`` may be None to measure the norm of ``u`` itself.
    """
    degree = u.degree
    if order > degree:
        raise ValueError(f"norm order {order} exceeds spline degree {degree}")
    level = u.finest_level
    axes, weights = _norm_axes(level, degree, degree + 3)
    W = tensor_weights(weights)
    total = 0.0
    for alpha in multi_indices(len(level), order, mode):
        diff = u.deriv_grid(axes, alpha)
        if f is not None:
            diff = f.eval_grid(axes, alpha) - diff
        total += float(np.sum(W * diff ** 2))
    return float(np.sqrt(total))


def function_norm(f, d, mode, order):
    """Sobolev norm of an analytic function by 6-point Gauss quadrature on a
    fixed fine dyadic grid (level 6 for d <= 2, level 4 for d = 3)."""
    level = 6 if d <= 2 else 4
    axes, weights = _norm_axes((level,) * d, 1, 6)
    W = tensor_weights(weights)
    total = 0.0
    for alpha in multi_indices(d, order, mode):
        v = f.eval_grid(axes, alpha)
        total += float(np.sum(W * v ** 2))
    return float(np.sqrt(total))

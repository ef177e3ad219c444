"""Anisotropic tensor-product projections and Sobolev-norm quadrature.

Members of a tensor-product spline space are evaluated only on tensor grids,
by one collocation matrix per direction (`CoefficientTensor.deriv_grid`).
The studies project a sampled function onto a tensor-product space in one
pass, the univariate projector applied along every axis
(`to_coefficients`).  Only the reference oracles compose partial
projections: `project_direction` projects one axis of a `GridSample` and
keeps the others as sampled data on the tensor Gauss grid.  Every
contraction, whole or partial, goes through one kernel (`contract`).

Every `deriv_grid` and `eval_grid` returns a fresh array that the caller
owns: it shares no memory with coefficients, cached matrices or another
call's result.  The norms rely on that and overwrite the spline values in
place, and a target's `eval_grid` adds its terms into them one at a time,
so besides what an evaluator holds while it runs, a norm holds at most two
grid-sized arrays at once.  A sparse-grid function's `deriv_grid` serves
values only: it forms its sum in coefficient space and evaluates once
(`spaces`), through the same contraction kernel as a tensor member's.

Each norm has one grid regime.  A target's Sobolev norm (`function_norm`)
and the sparse-grid error (`spaces.combination_error`) factor into 1D sums
and build no grid; the whole-grid sum (`error_norm`) serves the univariate
study and the tests; the mapped kinds' sums (`geometry`) hold one slab at a
time (`cell_slabs`): whole cells along axis 0, about 2^16 points
(`_SLAB_POINTS`, a constant) and never less than one cell.  Whole cells
keep the bits: a one-row slab takes another BLAS path and moves values by
an ulp, while a slab of a cell (4 rows or more) gives each point its
whole-grid bits, so only the order in which the slab sums are added
differs from one whole-grid sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .bspline import _space, collocation_matrix
from .quadrature import element_grid, gauss_rule, projection_matrices

# points per slab of a grid sum (`cell_slabs`)
_SLAB_POINTS = 2 ** 16


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

    def as_tensor(self):
        """Itself, as `SparseGridFunction.as_tensor` gives its sum."""
        return self

    def deriv_grid(self, axes, alpha=None):
        """Mixed derivative values on the tensor grid of per-direction nodes."""
        alpha = alpha or (0,) * self.d
        return contract(self.coeffs, [collocation_matrix(sp, ax, a) for sp, ax, a
                                      in zip(self.spaces(), axes, alpha)])


def contract(arr, mats):
    """Apply ``mats[i]`` along axis i of ``arr`` for every i, one axis at a
    time: the tensor-contraction kernel of grid evaluations, coefficient
    transfers and tensor projections.  An axis whose matrix is None is left
    as it is.  Returns a fresh array unless every matrix is None; a trailing
    value axis beyond ``len(mats)`` is never contracted and stays last."""
    for M in mats:
        # each step moves the axis it has handled to the end
        arr = (np.moveaxis(arr, 0, -1) if M is None
               else np.tensordot(arr, M.T, axes=([0], [0])))
    # the value axis of a vector-valued member now comes first
    return np.moveaxis(arr, 0, -1) if arr.ndim > len(mats) else arr


def tensor_weights(weights):
    return reduce(np.multiply.outer, weights)


@dataclass(frozen=True)
class GridSample:
    """Function values on a tensor Gauss grid, to which directional L2
    projections are applied and composed."""

    level: tuple
    degree: int
    axes: tuple = field(repr=False)
    weights: tuple = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def d(self):
        return len(self.level)

    def spaces(self):
        return [_space(self.degree, l) for l in self.level]


def sample(f, level, degree):
    """Sample an analytic function on the tensor Gauss grid of the given
    level, whose degree + 3 points per cell are those of
    `projection_matrices`."""
    axes, weights = _norm_axes(level, degree + 3)
    return GridSample(tuple(level), degree, axes, weights, f.eval_grid(axes))


def project_direction(gs, i):
    """Apply the univariate L2 projector along axis i of a sample: its
    coefficients, evaluated back on the nodes."""
    sp = gs.spaces()[i]
    nodes, _, M0, _ = projection_matrices(sp, 0)
    mats = [None] * gs.d
    mats[i] = M0
    coeff = contract(gs.values, mats)
    mats[i] = collocation_matrix(sp, nodes, 0)
    return replace(gs, values=contract(coeff, mats))


def to_coefficients(gs):
    """Tensor coefficients of the L2 projection of a sample: the univariate
    projector ``M0`` applied along every axis.  On directions that are
    already projected (spline-valued) it gives back their coefficients,
    because ``M0 E0 = I``."""
    mats = [projection_matrices(sp, 0)[2] for sp in gs.spaces()]
    return CoefficientTensor(gs.level, gs.degree, contract(gs.values, mats))


def project_tensor(f, level, degree):
    """L2 projection of an analytic function onto the tensor-product spline
    space at ``level``, in one pass over the sample."""
    return to_coefficients(sample(f, level, degree))


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


def _norm_axes(level, qpts):
    """Per-direction Gauss nodes and weights tiled over the cells of each level."""
    grids = [element_grid(l, gauss_rule(qpts)) for l in level]
    return tuple(g[0] for g in grids), tuple(g[1] for g in grids)


def cell_slabs(axes, qpts):
    """The tensor grid of ``axes`` in slabs of whole cells of ``qpts`` nodes
    along axis 0 (module docstring): each slab's slice of axis 0 and axes."""
    row = math.prod(len(ax) for ax in axes[1:])
    step = qpts * max(1, _SLAB_POINTS // (qpts * row))
    for start in range(0, len(axes[0]), step):
        s = slice(start, start + step)
        yield s, (axes[0][s],) + tuple(axes[1:])


def _weighted_square_sum(v, W):
    """``float(np.sum(W * v ** 2))`` by the same operations on the same
    operands, computed in v's buffer, which it overwrites."""
    v **= 2
    v *= W
    return float(np.sum(v))


def error_norm(f, u, mode, order):
    """Sobolev norm of f - u by tensor Gauss quadrature (degree + 3 points per
    cell) on the finest level involved in ``u`` (a `CoefficientTensor` or any
    object exposing ``finest_level``, ``degree`` and ``deriv_grid``).

    ``f`` may be None to measure the norm of ``u`` itself.  ``u.deriv_grid``
    must return a fresh array that the caller owns, and ``f.eval_grid(axes,
    alpha, out)`` must add f's values into ``out``: the spline values are
    negated in place, the target is added into them, and the square and the
    weighted square are formed in the same buffer; the weights are built
    only after that.  Besides what the evaluators hold while they run (one
    term of a `SumOfSeparable` at a time), at most two grid-sized arrays are
    alive at once.  The bits are those of ``np.sum(W * ((-u) + f) ** 2)``,
    with f's terms added one by one; for a single-term target that is
    ``f - u`` exactly.
    """
    degree = u.degree
    if order > degree:
        raise ValueError(f"norm order {order} exceeds spline degree {degree}")
    level = u.finest_level
    axes, weights = _norm_axes(level, degree + 3)
    total = 0.0
    for alpha in multi_indices(len(level), order, mode):
        diff = u.deriv_grid(axes, alpha)
        if f is not None:
            np.negative(diff, out=diff)
            f.eval_grid(axes, alpha, out=diff)
        total += _weighted_square_sum(diff, tensor_weights(weights))
    return float(np.sqrt(total))


def function_norm(f, d, mode, order):
    """Sobolev norm of a `SumOfSeparable` f = sum_t c_t prod_i g_ti by
    6-point Gauss quadrature on a fixed fine dyadic grid: level 6 for d <= 2
    and level 4 for every d >= 3.

    The sum over the grid factors: the square integral of each derivative
    alpha is sum_{t,s} c_t c_s prod_i of the 1D integrals of
    g_ti^(alpha_i) g_si^(alpha_i) on the same rule, so no grid is built.
    """
    level = 6 if d <= 2 else 4
    axes, weights = _norm_axes((level,) * d, 6)
    c = np.array([c for c, _ in f.terms])
    total = 0.0
    for alpha in multi_indices(d, order, mode):
        products = np.outer(c, c)
        for i, (ax, w, a) in enumerate(zip(axes, weights, alpha)):
            v = np.array([fs[i](ax, a) for _, fs in f.terms])
            products *= np.sum(v[:, None] * v[None] * w, axis=-1)
        total += float(np.sum(products))
    return float(np.sqrt(total))

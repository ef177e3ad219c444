"""Analytic target functions with closed-form mixed derivatives.

Every target is a sum of separable terms, so mixed derivatives of any order
factor into univariate derivatives and tensor-grid evaluation reduces to outer
products.  Used for manufactured convergence studies and for quadrature of
exact Sobolev norms appearing in bound columns.
"""

from __future__ import annotations

import math

import numpy as np


class TrigFactor:
    """a * sin(w x + phi); m-th derivative shifts the phase by m pi/2."""

    def __init__(self, w, phi=0.0, a=1.0):
        self.w, self.phi, self.a = w, phi, a

    def __call__(self, x, m=0):
        return self.a * self.w ** m * np.sin(self.w * np.asarray(x) + self.phi + m * np.pi / 2)


class ExpFactor:
    def __init__(self, a=1.0):
        self.a = a

    def __call__(self, x, m=0):
        return self.a ** m * np.exp(self.a * np.asarray(x))


class PolyFactor:
    def __init__(self, poly):
        self.poly = np.polynomial.Polynomial(poly.coef if hasattr(poly, "coef") else poly)

    def __call__(self, x, m=0):
        return self.poly.deriv(m)(np.asarray(x)) if m else self.poly(np.asarray(x))


class ProductFactor:
    """Product of two univariate factors, differentiated by the Leibniz rule."""

    def __init__(self, f, g):
        self.f, self.g = f, g

    def __call__(self, x, m=0):
        out = 0.0
        for k in range(m + 1):
            out = out + math.comb(m, k) * self.f(x, k) * self.g(x, m - k)
        return out


class SumOfSeparable:
    """Sum of coefficient-weighted products of univariate factors.

    Factors are callables ``g(x, m)`` returning the m-th derivative.  Supports
    evaluation on tensor grids (lists of per-direction nodes) and on scattered
    points, for any mixed derivative multi-index.
    """

    def __init__(self, d, terms):
        self.d = d
        self.terms = [(float(c), list(fs)) for c, fs in terms]
        for _, fs in self.terms:
            if len(fs) != d:
                raise ValueError("each term needs one factor per direction")

    def eval_grid(self, axes, alpha=None, out=None):
        """Values of the alpha mixed derivative on the tensor grid given by
        per-direction node arrays; with ``out``, the terms are added into it
        one by one and ``out`` is returned."""
        alpha = alpha or (0,) * self.d
        for c, fs in self.terms:
            term = np.array(c)
            for g, ax, a in zip(fs, axes, alpha):
                term = np.multiply.outer(term, g(np.atleast_1d(ax), a))
            if out is None:
                out = term
            else:
                out += term
        if out is None:
            return np.zeros(tuple(len(np.atleast_1d(ax)) for ax in axes))
        return out

    def eval_points(self, pts, alpha=None):
        """Values of the alpha mixed derivative at scattered points of shape
        (..., d)."""
        alpha = alpha or (0,) * self.d
        pts = np.asarray(pts, dtype=float)
        out = None
        for c, fs in self.terms:
            term = np.full(pts.shape[:-1], c)
            for i, g in enumerate(fs):
                term *= g(pts[..., i], alpha[i])
            if out is None:
                out = term
            else:
                out += term
        return np.zeros(pts.shape[:-1]) if out is None else out

    def __call__(self, x, m=0):
        """Univariate convenience: f(x, m) for d = 1 targets."""
        if self.d != 1:
            raise ValueError("scalar call only for univariate targets")
        return self.eval_points(np.asarray(x)[..., None], (m,))


def _one():
    return lambda x, m=0: np.ones_like(np.asarray(x, dtype=float)) if m == 0 \
        else np.zeros_like(np.asarray(x, dtype=float))


def constant(d, value=1.0):
    return SumOfSeparable(d, [(value, [_one() for _ in range(d)])])


def sin_2pi():
    return SumOfSeparable(1, [(1.0, [TrigFactor(2 * math.pi)])])


def sinpi_product(d):
    return SumOfSeparable(d, [(1.0, [TrigFactor(math.pi) for _ in range(d)])])


def poly_bump(d, a=3):
    """Tensorized x^a (1-x)^a; a polynomial bump vanishing at the boundary."""
    coef = np.polynomial.Polynomial([0.0, 1.0]) ** a * np.polynomial.Polynomial([1.0, -1.0]) ** a
    return SumOfSeparable(d, [(1.0, [PolyFactor(coef) for _ in range(d)])])


def exp_sum(d):
    return SumOfSeparable(d, [(1.0, [ExpFactor(1.0) for _ in range(d)])])


def sinpi_exp():
    """sin(pi x) * e^y, a handy non-symmetric smooth 2-d target."""
    return SumOfSeparable(2, [(1.0, [TrigFactor(math.pi), ExpFactor(1.0)])])


def xyz_sin_sum():
    """x y z sin(x+y+z), expanded into four separable trig products."""
    x = PolyFactor([0.0, 1.0])

    def term(kind):
        fs = []
        for trig in kind:
            phase = 0.0 if trig == "s" else math.pi / 2
            fs.append(ProductFactor(x, TrigFactor(1.0, phase)))
        return fs

    # sin(x+y+z) = sc c + c sc c ... minus the all-sine product
    return SumOfSeparable(3, [
        (1.0, term("scc")),
        (1.0, term("csc")),
        (1.0, term("ccs")),
        (-1.0, term("sss")),
    ])


_REGISTRY = {
    "one": constant,
    "sin-2pi": lambda d: sin_2pi() if d == 1 else _bad_dim("sin-2pi", d),
    "sinpi-prod": sinpi_product,
    "poly-bump": poly_bump,
    "exp-sum": exp_sum,
    "sinpi-exp": lambda d: sinpi_exp() if d == 2 else _bad_dim("sinpi-exp", d),
    "xyz-sin-sum": lambda d: xyz_sin_sum() if d == 3 else _bad_dim("xyz-sin-sum", d),
}


def _bad_dim(name, d):
    raise ValueError(f"target '{name}' is not defined for d={d}")


def target_function(name, d):
    """Look up a built-in target by id; raises ValueError for unknown names."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown target function '{name}'; "
                         f"available: {sorted(_REGISTRY)}")
    return _REGISTRY[name](d)

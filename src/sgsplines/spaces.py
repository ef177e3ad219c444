"""Sparse-grid spline spaces: combination technique and hierarchical increments.

A sparse function is stored per admissible level (combination form) as the
primary representation; the hierarchical form is materialized on demand for
equivalence checks and inverse-inequality pencils.  The increment at the base
level is the whole coarsest space; above it, the increment selects the fine
basis functions anchored at the new odd knots, certified independent at build
time by a rank check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
import scipy.linalg

from .bspline import (
    collocation_matrix,
    greville,
    make_space,
    prolongation,
    refinement_operator,
    vanishing_subspace,
)
from .indices import _levels_with_sum, build_combination_set, build_hier_set, cbinom
from .quadrature import gram_matrix
from .tensorops import (
    CoefficientTensor,
    complement_direction,
    multi_indices,
    project_direction,
    project_tensor,
    sample,
)


@dataclass(frozen=True)
class SparseGridFunction:
    """Weighted sum of tensor-product splines over the admissible levels."""

    rule: object
    degree: int
    terms: tuple  # ((level, coefficient, CoefficientTensor), ...)

    @property
    def d(self):
        return self.rule.d

    @property
    def finest_level(self):
        return tuple(max(lvl[i] for lvl, _, _ in self.terms)
                     for i in range(self.d))

    def deriv_grid(self, axes, alpha=None):
        out = 0.0
        for _, c, ct in self.terms:
            out = out + c * ct.deriv_grid(axes, alpha)
        return out

    def eval_points(self, pts, alpha=None):
        out = 0.0
        for _, c, ct in self.terms:
            out = out + c * ct.eval_points(pts, alpha)
        return out


def combination_project(f, rule, r=0, qpts=None):
    """Project ``f`` onto every admissible level and combine."""
    cs = build_combination_set(rule.d, rule.n, rule.p)
    terms = []
    for lvl, c in cs.levels:
        ct = project_tensor(f, lvl, rule.p, r=r, qpts=qpts)
        terms.append((lvl, c, ct))
    return SparseGridFunction(rule, rule.p, tuple(terms))


@dataclass(frozen=True)
class HierFunction:
    """Function in hierarchical form: one coefficient array per increment,
    shaped by the per-direction selection counts of its level."""

    rule: object
    degree: int
    increments: tuple  # ((level, coefficient array), ...)

    def __post_init__(self):
        hs = build_hier_set(self.rule.d, self.rule.n, self.rule.p)
        if {lvl for lvl, _ in self.increments} != set(hs.levels):
            raise ValueError("increments must cover the hierarchy levels exactly")

    @property
    def d(self):
        return self.rule.d

    @property
    def finest_level(self):
        return (self.rule.n,) * self.d

    def _tensors(self):
        lam = self.rule.lam
        for lvl, w in self.increments:
            sels = [increment_indices(self.degree, li, lam) for li in lvl]
            if w.shape != tuple(len(s) for s in sels):
                raise ValueError(f"increment at level {lvl} has shape {w.shape}, "
                                 f"expected {tuple(len(s) for s in sels)}")
            coeffs = np.zeros([2 ** li + self.degree for li in lvl])
            coeffs[np.ix_(*sels)] = w
            yield CoefficientTensor(lvl, self.degree, coeffs)

    @property
    def terms(self):
        """The increments as unit-weight terms of a sparse-grid sum."""
        return tuple((ct.level, 1, ct) for ct in self._tensors())

    deriv_grid = SparseGridFunction.deriv_grid
    eval_points = SparseGridFunction.eval_points


# ---------------------------------------------------------------------------
# hierarchical increments


@lru_cache(maxsize=None)
def increment_indices(p, level, lam):
    """Univariate basis indices forming the hierarchical increment.

    At the base level every function is selected; above it, the functions
    anchored at the new odd knots (anchor = middle knot of the support).
    Function i has its anchor at knot index k = i + (p+2)//2; the interior
    knot k = p+j sits at j / 2**level, which is new at this level iff j is odd.
    """
    space = make_space(p, level)
    if level == lam:
        return tuple(range(space.dim))
    mid = (p + 2) // 2
    # anchors k = p+1, p+3, ..., p + 2**level - 1
    sel = range(p + 1 - mid, p + space.num_cells - mid, 2)
    if len(sel) != 2 ** (level - 1):
        raise RuntimeError(f"increment selection at p={p}, level={level} "
                           f"found {len(sel)} functions, expected {2 ** (level - 1)}")
    return tuple(sel)


@lru_cache(maxsize=None)
def _certify_chain(p, lam, n):
    """Rank-certify that base space plus selected increments span each level."""
    for level in range(lam + 1, n + 1):
        coarse, fine = make_space(p, level - 1), make_space(p, level)
        R = refinement_operator(coarse, fine)
        E = np.eye(fine.dim)[:, increment_indices(p, level, lam)]
        M = np.hstack([R, E])
        if np.linalg.matrix_rank(M) != fine.dim:
            raise RuntimeError(f"increment selection not independent at "
                               f"p={p}, level={level}")
    return True


@dataclass(frozen=True)
class HierIncrementBasis:
    """Tensor increment at one level: per-direction selected basis indices."""

    level: tuple
    selections: tuple

    @property
    def count(self):
        return math.prod(len(s) for s in self.selections)


def hier_basis(rule):
    """Hierarchical increment bases over all levels of the hierarchy set."""
    hs = build_hier_set(rule.d, rule.n, rule.p)
    _certify_chain(rule.p, rule.lam, rule.n)
    out = []
    for lvl in hs.levels:
        sels = tuple(increment_indices(rule.p, li, rule.lam) for li in lvl)
        out.append(HierIncrementBasis(lvl, sels))
    return out


# ---------------------------------------------------------------------------
# span equality of the two constructions


def khatri_rao(mats, cols):
    """Column-matched Khatri-Rao product of per-direction value matrices.

    Column k is the Kronecker product over directions i of column
    ``cols[i][k]`` of ``mats[i]``; rows index the flattened tensor grid, first
    direction slowest.  Only the selected columns are ever formed.
    """
    out = mats[0][:, cols[0]]
    for M, c in zip(mats[1:], cols[1:]):
        out = (out[:, None, :] * M[None, :, c]).reshape(-1, len(c))
    return out


def _all_columns(mats, sels=None):
    """Khatri-Rao product of every combination of the selected columns (all
    columns by default), last direction fastest."""
    sels = sels or [range(M.shape[1]) for M in mats]
    grid = np.indices([len(s) for s in sels]).reshape(len(sels), -1)
    return khatri_rao(mats, [np.asarray(s)[g] for s, g in zip(sels, grid)])


def _combination_collocation(rule, svd_tol):
    """Univariate collocation matrices of every level on the Greville points
    of level n+1 (unisolvent for every level <= n), the stacked combination
    bases on their tensor grid, and the numerical rank of that stack."""
    pts = greville(make_space(rule.p, rule.n + 1))
    V = {lev: collocation_matrix(make_space(rule.p, lev), pts, 0)
         for lev in range(rule.lam, rule.n + 1)}
    cs = build_combination_set(rule.d, rule.n, rule.p)
    lstack = np.hstack([_all_columns([V[li] for li in lvl]) for lvl, _ in cs.levels])
    svals = scipy.linalg.svd(lstack, compute_uv=False)
    return V, lstack, int(np.sum(svals > svd_tol * svals[0]))


def equivalence_report(rule, svd_tol=1e-8):
    """Compare the combination-technique and hierarchical spans.

    Returns a dict with both dimensions, the brute-force collocation rank of
    the stacked combination bases, and the maximum relative least-squares
    residual of either basis fitted in the other.
    """
    V, lstack, rank = _combination_collocation(rule, svd_tol)
    hstack = np.hstack([_all_columns([V[li] for li in inc.level], inc.selections)
                        for inc in hier_basis(rule)])
    dim_h = hstack.shape[1]

    def rel_residuals(A, B):
        sol, *_ = scipy.linalg.lstsq(A, B, lapack_driver="gelsd")
        res = np.linalg.norm(A @ sol - B, axis=0)
        return res / np.linalg.norm(B, axis=0)

    res_h_in_l = rel_residuals(lstack, hstack).max()
    res_l_in_h = rel_residuals(hstack, lstack).max()
    return {
        "dim_L": rank,
        "dim_H": dim_h,
        "rank": rank,
        "cross_residual_max": float(max(res_h_in_l, res_l_in_h)),
    }


# ---------------------------------------------------------------------------
# telescopic decomposition and combination cancellations


def telescopic_residual(f, level, degree, r=0, qpts=None):
    """Max grid discrepancy of the complementary-projector decomposition:
    (I - P)f versus the alternating sum of partial complements over all
    nonempty direction subsets."""
    gs = sample(f, level, degree, r, qpts)
    d = gs.d
    proj = gs
    for i in range(d):
        proj = project_direction(proj, i)
    lhs = gs.values - proj.values
    rhs = np.zeros_like(lhs)
    for k in range(1, d + 1):
        for J in itertools.combinations(range(d), k):
            part = gs
            for i in J:
                part = complement_direction(part, i)
            rhs = rhs + (-1) ** (k - 1) * part.values
    return float(np.abs(lhs - rhs).max())


def cancellation_constant(d, k, l):
    """Coefficient of the layer-l partial terms after the combination's
    coarse-term cancellations (derived by regrouping the layer sums; the
    completion multiplicities depend only on the layer offset, so the
    constant carries no minimum-level term)."""
    return sum((-1) ** kap * math.comb(d - 1, kap)
               * cbinom(l - kap + d - k - 1, d - k - 1)
               for kap in range(l + 1))


def _lemma8_sides(rule, values):
    """Both sides of the combination cancellation identity for abstract
    per-(J, level) values; `values(J, sub)` depends only on the J-components."""
    d, n, lam = rule.d, rule.n, rule.lam
    cs = build_combination_set(d, n, rule.p)
    all_J = [J for k in range(1, d + 1)
             for J in itertools.combinations(range(d), k)]
    lhs = 0.0
    for lvl, c in cs.levels:
        for J in all_J:
            lhs += c * values(J, tuple(lvl[i] for i in J))
    rhs = 0.0
    for k in range(1, d):
        for l in range(0, d - 1):
            coef = cancellation_constant(d, k, l)
            if coef == 0:
                continue
            for J in itertools.combinations(range(d), k):
                for sub in _levels_with_sum(k, n + (k - 1) * lam - l, lam):
                    rhs += coef * values(J, sub)
    full = tuple(range(d))
    for layer_idx, layer in enumerate(cs.layers):
        c = (-1) ** layer_idx * math.comb(d - 1, layer_idx)
        for lvl in layer:
            rhs += c * values(full, lvl)
    return lhs, rhs


def lemma8_residual(rule, values=None, seed=0):
    """|LHS - RHS| of the cancellation identity; with no explicit values a
    seeded uniform(-1, 1) draw per (J, level restriction) is used."""
    if values is None:
        rng = np.random.default_rng(seed)
        cache = {}

        def values(J, sub):
            key = (J, sub)
            if key not in cache:
                cache[key] = rng.uniform(-1.0, 1.0)
            return cache[key]

    lhs, rhs = _lemma8_sides(rule, values)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# q-vanishing sparse basis and the mixed-norm pencil


@dataclass(frozen=True)
class StackedSparseBasis:
    """All hierarchical increment functions of the (q-vanishing) sparse space,
    prolonged to level n per direction.

    `V` holds one column per univariate increment function in level-n
    coordinates (directions share the construction), `slices` maps a level to
    its column range, and `entries` lists the per-direction stacked column
    indices of each tensor basis function.
    """

    rule: object
    q: int
    V: np.ndarray = field(repr=False)
    slices: dict = field(repr=False)
    entries: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.entries.shape[0]


def _constrained_chain(p, q, lam, n):
    """Per-level increment coefficient matrices of the univariate q-vanishing
    chain, each in its own level's coordinates."""
    spaces = [make_space(p, lev) for lev in range(lam, n + 1)]
    tilde = [vanishing_subspace(s, q).basis for s in spaces]
    increments = [tilde[0]]
    acc = tilde[0]
    for j in range(1, len(spaces)):
        R = refinement_operator(spaces[j - 1], spaces[j])
        acc = R @ acc
        T = tilde[j]
        take = 2 ** (spaces[j].level - 1)
        Qacc, _ = np.linalg.qr(acc)
        Z = T - Qacc @ (Qacc.T @ T)
        _, _, piv = scipy.linalg.qr(Z, pivoting=True)
        W = T[:, np.sort(piv[:take])]
        acc = np.hstack([acc, W])
        if np.linalg.matrix_rank(acc) != acc.shape[1]:
            raise RuntimeError(f"constrained increment selection rank-deficient "
                               f"at p={p}, q={q}, level={spaces[j].level}")
        increments.append(W)
    return increments


def stacked_sparse_basis(rule, q):
    """Assemble the q-vanishing hierarchical sparse basis in stacked form."""
    p, lam, n, d = rule.p, rule.lam, rule.n, rule.d
    increments = _constrained_chain(p, q, lam, n)
    cols = []
    slices = {}
    start = 0
    for lev, W in zip(range(lam, n + 1), increments):
        cols.append(prolongation(make_space(p, lev), n) @ W)
        slices[lev] = slice(start, start + W.shape[1])
        start += W.shape[1]
    V = np.hstack(cols)
    hs = build_hier_set(d, n, p)
    entries = []
    for lvl in hs.levels:
        ranges = [range(slices[li].start, slices[li].stop) for li in lvl]
        entries.extend(itertools.product(*ranges))
    return StackedSparseBasis(rule, q, V, slices, np.array(entries, dtype=int))


def sparse_rayleigh(rule, q, mode="mix"):
    """Largest Rayleigh quotient of the mixed H^q norm (or 'mix-semi'
    seminorm) against L2 over the q-vanishing sparse space, via the
    generalized symmetric eigenproblem of the stacked basis."""
    basis = stacked_sparse_basis(rule, q)
    space_n = make_space(rule.p, rule.n)
    G = {a: basis.V.T @ gram_matrix(space_n, a) @ basis.V for a in range(q + 1)}
    idx = [basis.entries[:, i] for i in range(rule.d)]
    sub = [{a: G[a][np.ix_(ix, ix)] for a in range(q + 1)} for ix in idx]
    A = np.zeros((basis.size, basis.size))
    for alpha in multi_indices(rule.d, q, mode):
        term = reduce(np.multiply, (sub[i][a] for i, a in enumerate(alpha)))
        A += term
    B = reduce(np.multiply, (sub[i][0] for i in range(rule.d)))
    lam_max = scipy.linalg.eigh(A, B, eigvals_only=True)[-1]
    return float(np.sqrt(lam_max))


def dimension_rank(rule, svd_tol=1e-8):
    """Brute-force dimension of the combination span: collocation rank of all
    stacked level bases on the unisolvent fine grid."""
    return _combination_collocation(rule, svd_tol)[2]

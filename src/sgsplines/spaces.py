"""Sparse-grid spline spaces: combination technique and hierarchical increments.

A sparse function is stored per admissible level (combination form) as the
primary representation; the hierarchical form is materialized on demand for
equivalence checks and inverse-inequality pencils.

Every combination term's space is a subspace of the finest level's, so a
mixed derivative of the signed sum is formed in coefficient space and
evaluated once.  Along each direction a term is first differentiated at its
own level (`_derivative_transfer`, into the clamped degree p - a space),
then prolonged to the finest level in that degree, scaled and added into one
finest-level coefficient array; one degree p - a evaluation on the grid
follows.  The order matters: differentiating the prolonged sum amplifies
its roundoff by the finest level's derivative transfer.  Against a
long-double term-by-term evaluation at d=2, p=3, n=6, alpha=(3, 3), that
order is about 2e4 times less accurate than evaluating term by term in
float64, while differentiating first is as accurate.

Every hierarchical basis has one form: a level-ordered stack of univariate
columns, plus the tensor entries that pick one stacked column per direction
for every tensor function of a level set (`_entries`).  Tensor columns are
formed only by `khatri_rao`.  The plain hierarchy (`hier_basis`) keeps the
whole coarsest space at the base level and, above it, the fine basis
functions anchored at the new odd knots, certified independent by a rank
check.  The q-vanishing chain (`_constrained_chain`) is stacked in level-n
coefficients and grows by one refinement per level.

The inverse-inequality pencil over the q-vanishing sparse space is solved in
standard form.  The stacked 1D increments are orthonormalized in L2 by the
Cholesky factor of their Gram matrix, which is lower triangular in level
order, so every level prefix keeps its span.  The hierarchy set is downward
closed, so the tensor products of the orthonormal functions span the same
sparse space, with the identity as L2 Gram matrix.  The norm matrix is a
Hadamard product over directions of 1D Gram matrices, and only its top
eigenvalue is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .bspline import (
    _derivative_transfer,
    _frozen,
    _space,
    collocation_matrix,
    greville,
    make_space,
    prolongation,
    refinement_operator,
    vanishing_subspace,
)
from .indices import build_combination_set, build_hier_set
from .quadrature import gram_matrix
from .tensorops import contract, project_tensor


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
        """Mixed derivative values of the weighted sum of the terms on the
        tensor grid of per-direction nodes, evaluated once (module
        docstring): one grid-sized array, the result."""
        alpha = alpha or (0,) * self.d
        p, finest = self.degree, self.finest_level
        total = None
        for level, c, ct in self.terms:
            X = contract(ct.coeffs, [_derivative_transfer(p, l, a)
                                     for l, a in zip(level, alpha)])
            X = contract(X, [prolongation(_space(p - a, l), n)
                             for l, a, n in zip(level, alpha, finest)])
            X *= c
            if total is None:
                total = X
            else:
                total += X
        return contract(total, [collocation_matrix(_space(p - a, n), ax, 0)
                                for a, n, ax in zip(alpha, finest, axes)])


def combination_project(f, rule):
    """L2-project ``f`` onto every admissible level and combine."""
    cs = build_combination_set(rule.d, rule.n, rule.p)
    terms = []
    for lvl, c in cs.levels:
        terms.append((lvl, c, project_tensor(f, lvl, rule.p)))
    return SparseGridFunction(rule, rule.p, tuple(terms))


# ---------------------------------------------------------------------------
# hierarchical increments


def hier_basis(rule):
    """Univariate basis indices of the plain hierarchical increments, as
    {level: indices} for the levels lam..n in order.

    At the base level every function is selected; above it, the functions
    anchored at the new odd knots (anchor = middle knot of the support).
    Function i has its anchor at knot index k = i + (p+2)//2; the interior
    knot k = p+j sits at j / 2**level, which is new at this level iff j is odd.
    Every level is rank-certified: the refined coarser space plus the selected
    functions span it.
    """
    p, lam = rule.p, rule.lam
    mid = (p + 2) // 2
    sels = {lam: np.arange(make_space(p, lam).dim)}
    for level in range(lam + 1, rule.n + 1):
        coarse, fine = make_space(p, level - 1), make_space(p, level)
        # anchors k = p+1, p+3, ..., p + 2**level - 1
        sel = np.arange(p + 1 - mid, p + fine.num_cells - mid, 2)
        if len(sel) != 2 ** (level - 1):
            raise RuntimeError(f"increment selection at p={p}, level={level} "
                               f"found {len(sel)} functions, expected {2 ** (level - 1)}")
        M = np.hstack([refinement_operator(coarse, fine), np.eye(fine.dim)[:, sel]])
        if np.linalg.matrix_rank(M) != fine.dim:
            raise RuntimeError(f"increment selection not independent at "
                               f"p={p}, level={level}")
        sels[level] = sel
    return sels


def _entries(sizes, levels):
    """Stacked 1D column indices of every tensor function of the level set
    `levels`, one row per function, last direction fastest.

    `sizes` maps each univariate level, in stacking order, to its number of
    stacked columns; a tensor level takes every combination of the column
    blocks of its directions' levels.
    """
    starts = dict(zip(sizes, np.cumsum([0, *sizes.values()])))
    return np.concatenate([
        np.indices([sizes[li] for li in lvl]).reshape(len(lvl), -1).T
        + [starts[li] for li in lvl]
        for lvl in levels])


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


SVD_TOL = 1e-8


def _combination_collocation(rule):
    """Univariate collocation matrices of every level on the Greville points
    of level n+1 (unisolvent for every level <= n), the stacked combination
    bases on their tensor grid, and the numerical rank of that stack: the
    number of singular values above `SVD_TOL` times the largest."""
    pts = greville(make_space(rule.p, rule.n + 1))
    V = {lev: collocation_matrix(make_space(rule.p, lev), pts, 0)
         for lev in range(rule.lam, rule.n + 1)}
    cs = build_combination_set(rule.d, rule.n, rule.p)
    entries = _entries({lev: M.shape[1] for lev, M in V.items()},
                       [lvl for lvl, _ in cs.levels])
    lstack = khatri_rao([np.hstack(list(V.values()))] * rule.d, entries.T)
    svals = scipy.linalg.svd(lstack, compute_uv=False)
    return V, lstack, int(np.sum(svals > SVD_TOL * svals[0]))


def equivalence_report(rule):
    """Compare the combination-technique and hierarchical spans.

    Returns a dict with both dimensions, ``dim_L`` being the brute-force
    collocation rank of the stacked combination bases, and the maximum
    relative least-squares residual of either basis fitted in the other.
    """
    V, lstack, rank = _combination_collocation(rule)
    sels = hier_basis(rule)
    odd = np.hstack([V[lev][:, sel] for lev, sel in sels.items()])
    entries = _entries({lev: len(sel) for lev, sel in sels.items()},
                       build_hier_set(rule.d, rule.n, rule.p))
    hstack = khatri_rao([odd] * rule.d, entries.T)
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
        "cross_residual_max": float(max(res_h_in_l, res_l_in_h)),
    }


# ---------------------------------------------------------------------------
# q-vanishing sparse basis and the mixed-norm pencil


@dataclass(frozen=True)
class StackedSparseBasis:
    """All hierarchical increment functions of the (q-vanishing) sparse space
    in stacked form.

    `V` is the univariate chain of `_constrained_chain`: one column per
    increment function in level-n coefficients, in level order (directions
    share it).  `entries` lists the per-direction stacked column indices of
    each tensor basis function.
    """

    rule: object
    q: int
    V: np.ndarray = field(repr=False)
    entries: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.entries.shape[0]


@lru_cache(maxsize=None)
def _constrained_chain(p, q, lam, n):
    """Stacked increments of the univariate q-vanishing chain, levels lam..n,
    as one matrix of level-n coefficients with one column per increment
    function, in level order.

    The chain of level n is the cached chain of level n-1 refined by one
    level, followed by the new increment: the q-vanishing level-n functions
    that a pivoted QR picks as most independent of the refined span, checked
    by a rank test.  The matrix is read-only, because the cache shares it
    between callers and threads.
    """
    T = vanishing_subspace(make_space(p, n), q)
    if n == lam:
        return _frozen(T)
    R = refinement_operator(make_space(p, n - 1), make_space(p, n))
    acc = R @ _constrained_chain(p, q, lam, n - 1)
    Qacc, _ = np.linalg.qr(acc)
    Z = T - Qacc @ (Qacc.T @ T)
    _, _, piv = scipy.linalg.qr(Z, pivoting=True)
    V = np.hstack([acc, T[:, np.sort(piv[:2 ** (n - 1)])]])
    if np.linalg.matrix_rank(V) != V.shape[1]:
        raise RuntimeError(f"constrained increment selection rank-deficient "
                           f"at p={p}, q={q}, level={n}")
    return _frozen(V)


def stacked_sparse_basis(rule, q):
    """Assemble the q-vanishing hierarchical sparse basis in stacked form."""
    p, lam, n = rule.p, rule.lam, rule.n
    V = _constrained_chain(p, q, lam, n)
    # level l > lam adds 2**(l-1) functions; the base level holds the rest
    sizes = {lev: 2 ** (lev - 1) for lev in range(lam + 1, n + 1)}
    sizes = {lam: V.shape[1] - sum(sizes.values()), **sizes}
    entries = _entries(sizes, build_hier_set(rule.d, n, p))
    return StackedSparseBasis(rule, q, V, entries)


def _orthonormal_grams(basis):
    """Gram matrices L^-1 G_a L^-T, a = 0..q, of the stacked 1D increments
    orthonormalized in level order, where G_a = V^T G_a^(n) V and
    G_0 = L L^T; the first is the identity up to roundoff."""
    space_n = make_space(basis.rule.p, basis.rule.n)
    G = [basis.V.T @ gram_matrix(space_n, a) @ basis.V
         for a in range(basis.q + 1)]
    L = scipy.linalg.cholesky(G[0], lower=True)
    out = []
    for Ga in G:
        X = scipy.linalg.solve_triangular(L, Ga, lower=True)
        out.append(scipy.linalg.solve_triangular(L, X.T, lower=True))
    return out


def _hadamard(H, entries):
    """Matrix of prod_i H[e_i, f_i] over all pairs (e, f) of tensor entries."""
    A = H[np.ix_(entries[:, 0], entries[:, 0])]
    for ix in entries.T[1:]:
        A *= H[np.ix_(ix, ix)]
    return A


def sparse_rayleigh(rule, q, mode="mix"):
    """Largest Rayleigh quotient of the mixed H^q norm (or 'mix-semi'
    seminorm) against L2 over the q-vanishing sparse space.

    A standard symmetric eigenproblem in the orthonormalized basis (module
    docstring).  The mixed norm sums prod_i G_{a_i} over every a with
    max_i a_i <= q: the Hadamard product over directions of
    H = sum_{a <= q} G_a.  The 'mix-semi' seminorm (max_i a_i = q) subtracts
    the Hadamard product of sum_{a < q} G_a.
    """
    if mode not in ("mix", "mix-semi"):
        raise ValueError(f"unknown norm mode '{mode}'")
    basis = stacked_sparse_basis(rule, q)
    G = _orthonormal_grams(basis)
    A = _hadamard(sum(G), basis.entries)
    if mode == "mix-semi":
        A -= _hadamard(sum(G[:q], np.zeros_like(G[0])), basis.entries)
    top = basis.size - 1
    lam_max = scipy.linalg.eigh(A, eigvals_only=True, overwrite_a=True,
                                subset_by_index=[top, top])[0]
    return float(np.sqrt(lam_max))


def dimension_rank(rule):
    """Brute-force dimension of the combination span: collocation rank of all
    stacked level bases on the unisolvent fine grid."""
    return _combination_collocation(rule)[2]

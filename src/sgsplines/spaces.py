"""Sparse-grid spline spaces: combination technique and hierarchical increments.

A sparse function is stored per admissible level (combination form) as the
primary representation; the hierarchical form is materialized on demand for
equivalence checks and inverse-inequality pencils.

A combination-form function lies in the finest level's tensor-product
space, as every term's space does: each term is prolonged to the finest
level, scaled and added into one finest-level coefficient array
(`SparseGridFunction.as_tensor`), and that one spline serves values and
derivatives alike.

The L2 error of the combination technique for a separable target needs
neither that sum nor a grid (`combination_error`).  With the 1D pieces
Delta_l = P_l - P_(l-1), l = lam..n (P_(lam-1) = 0), and Delta_inf = I - P_n,
f is the sum of the tensor products of pieces over the box {lam..n, inf}^d,
and by the Smolyak identity (Wasilkowski and Wozniakowski, J. Complexity 11,
1995; Bungartz and Griebel, Acta Numerica 13, 2004) f - u keeps the product
of level l with weight x_l = 1 - sum_{k >= l} c_k, a suffix sum of the
combination coefficients.  The norm's rule is a tensor product of 1D rules,
so its square is sum_{t,s} c_t c_s x^T (prod_i Gamma_i^ts) x over pairs of
terms, with Gamma_i^ts the 1D inner products of the pieces: one `contract`
over (n - lam + 2)^d entries each.  The pieces are differences of nearly
equal functions, formed in long double: in float64 the norm at d=2, p=2,
n=9 was off by 6.6e-10 relative, against 6.4e-11 for the grid quadrature
and 2.5e-13 in long double.

Every hierarchical basis has one form: a level-ordered stack of univariate
columns, plus the tensor entries that pick one stacked column per direction
for every tensor function of a level set (`_entries`).  The plain hierarchy
(`hier_basis`) keeps the whole coarsest space at the base level and, above
it, the fine basis functions anchored at the new odd knots, certified
independent by a rank check.  The q-vanishing chain (`_constrained_chain`)
is stacked in level-n coefficients and grows by one refinement per level.

The span equality of the two constructions is checked by 1D certificates
(subspace splitting: Griebel, Schneider and Zenger, 1992; Bungartz and
Griebel, Acta Numerica 13, 2004, section 3).  In level-n coefficients let
V_l span the level-l B-splines and W_l the hierarchical functions of levels
<= l.  For each l, `_span` gives both dimensions and orthonormal bases, and
the 1D residual is the largest relative residual of a basis function of
either space projected orthogonally onto the other.  In a basis adapted to
a nested chain X, the tensor space of a level is a box of coordinates, so
the sum of the tensor spaces of a downward closed level set has dimension
sum_k prod_i (dim X_(k_i) - dim X_(k_i - 1)) (`_count`): over the union of
the boxes under the combination levels, which must be the hierarchical
level set, for V, and over that set for W.  The certified quantity
``cross_residual_max`` is d times the largest 1D residual.  Projecting each
factor of a Kronecker column of either construction onto the other chain
moves it by at most that share of its norm, so up to roundoff it bounds the
brute-force check's residual (`tests/oracles.py`) in the same metric,
level-(n, ..., n) tensor coefficients, where the stacks have (2^n + p)^d
rows.  A hierarchical function that depends on the others lowers dim W_n
below 2^n + p, and leaves some unit vector at relative distance at least
1/sqrt(2^n + p) from W_n.

The inverse-inequality pencil over the q-vanishing sparse space is solved in
standard form.  The stacked 1D increments are orthonormalized in L2 by the
Cholesky factor of their Gram matrix, which is lower triangular in level
order, so every level prefix keeps its span.  The hierarchy set is downward
closed, so the tensor products of the orthonormal functions span the same
sparse space, with the identity as L2 Gram matrix.  The norm matrix is the
tensor product over directions of one 1D matrix H, restricted to the sparse
entries.  It is applied, never gathered, by the unidirectional principle
(Balder and Zenger, SISC 17, 1996; Bungartz and Griebel, Acta Numerica 13,
2004): fixing all but one direction of an entry leaves a fiber, a prefix of
the level-ordered stacked columns (`_fibers`), on which H acts by its
leading block, and splitting H by level keeps every intermediate of the
direction-by-direction product on the entry set (`_hadamard_operator`).  A
product costs O(N M), with M the 1D chain size, and O(N) memory.

Only the top eigenvalue is computed, by `_top_eigenvalue`, the one routine
of every pencil.  For the mapped pencil (`geometry.mapped_rayleigh`), a
matrix pair, and for operators up to order 512, that is a dense `eigh` at
O(N^3) cost, of the operator applied to the identity (at d = 2 the gathered
matrix bit for bit).  Above it, at d >= 2, implicitly restarted Lanczos
(ARPACK's `eigsh`) needs only products.  At d = 1, q = 1 the top
eigenvalues cluster, and the dense solve of H itself is faster at every
order measured, up to 1025, so d = 1 pencils stay dense.  At d = 2 and 3
the crossover lies near order 300 (up to 600 for p = q = 1 pencils, which
need the most products); moving the cut would move printed digits, so it
stays at 512.  Lanczos starts from a fixed vector, because ARPACK's default
start is random and the digits would then depend on the pencils solved
before in the process.  As every scipy module, it is imported only by the
function that calls it (the package's rule, in `sgsplines/__init__.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .bspline import (
    _basis_band,
    _frozen,
    _space,
    make_space,
    prolongation,
    refinement_operator,
    vanishing_subspace,
)
from .indices import build_combination_set, build_hier_set, increment_dim
from .quadrature import element_grid, gauss_rule, gram_matrix, project_1d
from .tensorops import CoefficientTensor, contract, project_tensor


@dataclass(frozen=True)
class SparseGridFunction:
    """Weighted sum of tensor-product splines over the admissible levels."""

    rule: object
    degree: int
    terms: tuple  # ((level, coefficient, CoefficientTensor), ...)

    @property
    def d(self):
        return self.rule.d

    def as_tensor(self):
        """The weighted sum of the terms as one finest-level
        `CoefficientTensor`, formed in coefficient space (module
        docstring)."""
        p = self.degree
        finest = tuple(map(max, zip(*(lvl for lvl, _, _ in self.terms))))
        total = None
        for level, c, ct in self.terms:
            X = contract(ct.coeffs, [prolongation(_space(p, l), n)
                                     for l, n in zip(level, finest)])
            X *= c
            if total is None:
                total = X
            else:
                total += X
        return CoefficientTensor(finest, p, total)

    def deriv_grid(self, axes, alpha=None):
        """Mixed derivative values of the sum on the tensor grid of
        per-direction nodes, by one evaluation of `as_tensor`."""
        return self.as_tensor().deriv_grid(axes, alpha)


def combination_project(f, rule):
    """L2-project ``f`` onto every admissible level and combine."""
    cs = build_combination_set(rule.d, rule.n, rule.p)
    terms = []
    for lvl, c in cs.levels:
        terms.append((lvl, c, project_tensor(f, lvl, rule.p)))
    return SparseGridFunction(rule, rule.p, tuple(terms))


def _smolyak_pieces(g, p, lam, n):
    """The 1D pieces of a factor ``g(x, m)`` at the level-n nodes of the
    norm's (p+3)-point rule, one row each, in long double: Delta_l g =
    P_l g - P_(l-1) g for l = lam..n (P_(lam-1) g = 0), then Delta_inf g =
    g - P_n g.  P_l g takes float64 coefficients from `project_1d`, the
    projector that `combination_project` applies along each axis, and is
    evaluated in long double from its p+1 local values (`_basis_band`)."""
    nodes = element_grid(n, gauss_rule(p + 3))[0]
    x = nodes.astype(np.longdouble)
    values = [np.zeros_like(x)]
    for level in range(lam, n + 1):
        space = _space(p, level)
        coeffs = project_1d(space, g)
        first, band = _basis_band(space, x)
        values.append(np.sum(band * coeffs[first[:, None] + np.arange(p + 1)],
                             axis=1))
    values.append(g(nodes, 0).astype(x.dtype))
    return np.diff(values, axis=0)


def combination_error(f, rule):
    """L2 norm of f - u for a `SumOfSeparable` f = sum_t c_t prod_i g_ti and
    its combination-technique projection u = `combination_project(f, rule)`,
    from 1D Smolyak differences, with no grid and no u (module docstring).

    The value is the discrete norm of `error_norm(f, u, "semi", 0)`, on the
    same level-(n, ..., n) (p+3)-point rule, up to roundoff.
    """
    d, p, lam, n = rule.d, rule.p, rule.lam, rule.n
    # x_l = 1 - sum of c_k over combination levels k >= l, by suffix sums on
    # the box lam..n, then 1 on the extended index inf of any direction
    C = np.zeros((n - lam + 1,) * d, dtype=int)
    for lvl, c in build_combination_set(d, n, p).levels:
        C[tuple(l - lam for l in lvl)] = c
    for i in range(d):
        C = np.flip(np.cumsum(np.flip(C, i), axis=i), i)
    x = 1 - np.pad(C, [(0, 1)] * d)
    w = element_grid(n, gauss_rule(p + 3))[1]
    pieces = [(c, [_smolyak_pieces(g, p, lam, n) for g in fs])
              for c, fs in f.terms]
    total = 0.0
    for (ct, Dt), (cs, Ds) in product(pieces, repeat=2):
        gammas = [(a * w) @ b.T for a, b in zip(Dt, Ds)]
        total += ct * cs * np.sum(x * contract(x, gammas))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# hierarchical increments


SVD_TOL = 1e-8


def _span(stack, basis=True):
    """Rank of ``stack`` (the singular values above `SVD_TOL` times the
    largest) by one thin SVD and, with ``basis``, an orthonormal basis of
    its column span.  Every rank decision of the package is made here, by
    numpy, so that the certificate kinds, which need nothing else of scipy,
    never load it."""
    out = np.linalg.svd(stack, full_matrices=False, compute_uv=basis)
    svals = out[1] if basis else out
    rank = int(np.sum(svals > SVD_TOL * svals[0]))
    return rank, out[0][:, :rank] if basis else None


def hier_basis(rule):
    """Univariate basis indices of the plain hierarchical increments, as
    {level: indices} for the levels lam..n in order.

    At the base level every function is selected; above it, the functions
    anchored at the new odd knots (anchor = middle knot of the support).
    Function i has its anchor at knot index k = i + (p+2)//2; the interior
    knot k = p+j sits at j / 2**level, which is new at this level iff j is odd.
    Every level is rank-certified (`_span`): the refined coarser space plus
    the selected functions span it.
    """
    p, lam = rule.p, rule.lam
    mid = (p + 2) // 2
    sels = {lam: np.arange(make_space(p, lam).dim)}
    for level in range(lam + 1, rule.n + 1):
        coarse, fine = make_space(p, level - 1), make_space(p, level)
        # anchors k = p+1, p+3, ..., p + 2**level - 1
        sel = np.arange(p + 1 - mid, p + fine.num_cells - mid, 2)
        expected = increment_dim(p, level, lam)
        if len(sel) != expected:
            raise RuntimeError(f"increment selection at p={p}, level={level} "
                               f"found {len(sel)} functions, expected {expected}")
        M = np.hstack([refinement_operator(coarse, fine), np.eye(fine.dim)[:, sel]])
        if _span(M, basis=False)[0] != fine.dim:
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


def _boxes(rule):
    """The union of the boxes {k : lam <= k <= l} under the combination
    levels l of `rule`, the smallest downward closed set that holds them,
    walked down one direction at a time: each of its levels is reached at
    most d times."""
    cs = build_combination_set(rule.d, rule.n, rule.p)
    todo, union = [lvl for lvl, _ in cs.levels], set()
    while todo:
        k = todo.pop()
        if k not in union:
            union.add(k)
            todo += [k[:i] + (k[i] - 1,) + k[i + 1:]
                     for i in range(rule.d) if k[i] > rule.lam]
    return union


def _count(levels, ranks):
    """Dimension of the sum of the tensor spaces of the downward closed
    `levels` over one nested chain of 1D spaces of dimensions ``ranks``,
    {level: dimension} (module docstring)."""
    sizes = dict(zip(ranks, np.diff([0, *ranks.values()]).tolist()))
    return sum(math.prod(sizes[li] for li in lvl) for lvl in levels)


def equivalence_report(rule):
    """Compare the combination-technique and hierarchical spans by 1D
    certificates (module docstring): both dimensions, each counted over its
    level set, and ``cross_residual_max``, d times the largest relative
    residual of a 1D basis function of either space of a level projected
    orthogonally onto the span of the other.

    Raises RuntimeError unless the hierarchical level set is the union of
    the boxes under the combination levels, on which both rest."""
    d, p, n = rule.d, rule.p, rule.n
    boxes, hier_levels = _boxes(rule), build_hier_set(d, n, p)
    if boxes != set(hier_levels):
        raise RuntimeError(f"the hierarchical levels at d={d}, p={p}, n={n} "
                           f"are not the union of the boxes under the "
                           f"combination levels")

    def rel_residual(Q, B):
        res = np.linalg.norm(B - Q @ (Q.T @ B), axis=0)
        return (res / np.linalg.norm(B, axis=0)).max()

    ranks_l, ranks_h, residual, columns = {}, {}, 0.0, []
    for level, sel in hier_basis(rule).items():
        P = prolongation(make_space(p, level), n)
        columns.append(P[:, sel])
        H = np.hstack(columns)
        (ranks_l[level], Ql), (ranks_h[level], Qh) = _span(P), _span(H)
        residual = max(residual, rel_residual(Qh, P), rel_residual(Ql, H))
    return {
        "dim_L": _count(boxes, ranks_l),
        "dim_H": _count(hier_levels, ranks_h),
        "cross_residual_max": float(d * residual),
    }


# ---------------------------------------------------------------------------
# q-vanishing sparse basis and the mixed-norm pencil


@dataclass(frozen=True)
class StackedSparseBasis:
    """All hierarchical increment functions of the (q-vanishing) sparse space
    in stacked form.

    `V` is the univariate chain of `_constrained_chain`: one column per
    increment function in level-n coefficients, in level order (directions
    share it).  `sizes` maps each level lam..n, in that order, to its number
    of columns of `V`.  `entries` lists the per-direction stacked column
    indices of each tensor basis function.
    """

    rule: object
    q: int
    V: np.ndarray = field(repr=False)
    sizes: dict
    entries: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.entries.shape[0]

    @property
    def levels(self):
        """The level of every column of `V`."""
        return np.repeat(list(self.sizes), list(self.sizes.values()))


@lru_cache(maxsize=None)
def _constrained_chain(p, q, lam, n):
    """Stacked increments of the univariate q-vanishing chain, levels lam..n,
    as one matrix of level-n coefficients with one column per increment
    function, in level order.

    The chain of level n is the cached chain of level n-1 refined by one
    level, followed by the new increment: the q-vanishing level-n functions
    that a pivoted QR picks as most independent of the refined span, checked
    by `_span`.  The matrix is read-only, because the cache shares it
    between callers and threads.  Stacked by the odd-anchor rule of
    `hier_basis` instead, the q = p pencils would differ from the direct
    level-n pencil by 2.1e-9 (p = 2, n = 9), 1.6e-7 (p = 3, n = 10) and
    4.5e-3 (p = 4, n = 10); this chain stays within 6e-14.
    """
    T = vanishing_subspace(make_space(p, n), q)
    if n == lam:
        return _frozen(T)
    R = refinement_operator(make_space(p, n - 1), make_space(p, n))
    acc = R @ _constrained_chain(p, q, lam, n - 1)
    Qacc, _ = np.linalg.qr(acc)
    Z = T - Qacc @ (Qacc.T @ T)
    from scipy.linalg import qr
    _, _, piv = qr(Z, pivoting=True)
    V = np.hstack([acc, T[:, np.sort(piv[:increment_dim(p, n, lam)])]])
    if _span(V, basis=False)[0] != V.shape[1]:
        raise RuntimeError(f"constrained increment selection rank-deficient "
                           f"at p={p}, q={q}, level={n}")
    return _frozen(V)


def stacked_sparse_basis(rule, q):
    """Assemble the q-vanishing hierarchical sparse basis in stacked form."""
    p, lam, n = rule.p, rule.lam, rule.n
    # a level's increment is what its chain adds to the cached chain below
    widths = [_constrained_chain(p, q, lam, lev).shape[1]
              for lev in range(lam, n + 1)]
    sizes = dict(zip(range(lam, n + 1), np.diff([0, *widths]).tolist()))
    entries = _entries(sizes, build_hier_set(rule.d, n, p))
    return StackedSparseBasis(rule, q, _constrained_chain(p, q, lam, n),
                              sizes, entries)


def _orthonormal_grams(basis):
    """Gram matrices L^-1 G_a L^-T, a = 0..q, of the stacked 1D increments
    orthonormalized in level order, where G_a = V^T G_a^(n) V and
    G_0 = L L^T; the first is the identity up to roundoff."""
    space_n = make_space(basis.rule.p, basis.rule.n)
    G = [basis.V.T @ gram_matrix(space_n, a) @ basis.V
         for a in range(basis.q + 1)]
    from scipy.linalg import cholesky, solve_triangular
    L = cholesky(G[0], lower=True)
    out = []
    for Ga in G:
        X = solve_triangular(L, Ga, lower=True)
        out.append(solve_triangular(L, X.T, lower=True))
    return out


def _fibers(entries):
    """The fibers of the entry set along each direction, grouped by length.

    Fixing every stacked column index but the i-th leaves a fiber along
    direction i.  On a downward closed level set stacked in level order its
    k-th entry holds stacked column k, so each fiber is a prefix 0..l-1 of
    the stacked columns.  Direction i gets one (fibers, l) array of entry
    positions per length l, in order of increasing l; a fiber that is not a
    prefix raises RuntimeError.
    """
    N, d = entries.shape
    out = []
    for i in range(d):
        rest = np.delete(entries, i, axis=1)
        order = np.lexsort((entries[:, i], *rest.T[::-1]))
        key = rest[order]
        new = np.r_[True, (key[1:] != key[:-1]).any(axis=1)]
        starts = np.flatnonzero(new)
        if not np.array_equal(entries[order, i],
                              np.arange(N) - starts[np.cumsum(new) - 1]):
            raise RuntimeError(f"a fiber along direction {i} is not a prefix "
                               f"of the stacked columns: the entry set is not "
                               f"downward closed in level order")
        lengths = np.diff(np.r_[starts, N])
        out.append([order[starts[lengths == l][:, None] + np.arange(l)]
                    for l in np.unique(lengths)])
    return out


def _along(M, groups, X):
    """M applied along one direction to the rows of X: each fiber of
    `groups` (`_fibers`) by the leading block of M of its length."""
    out = np.empty_like(X)
    for ix in groups:
        l = ix.shape[1]
        out[:, ix] = (X[:, ix].reshape(-1, l) @ M[:l, :l].T).reshape(
            X.shape[0], *ix.shape)
    return out


def _hadamard_operator(H, levels, fibers):
    """The function X -> A X, on (N, K) arrays, of A[e, f] = prod_i H[e_i, f_i]
    over the entry set of `fibers`, with `levels` the level of each stacked
    column: op_k(x) = L_k op_{k-1}(x) + op_{k-1}(U_k x) for the product over
    the first k directions, where L keeps H's input levels at or below the
    output level and U those above, and op_1 is H along direction 0 (module
    docstring)."""
    lower = levels[:, None] >= levels[None, :]
    L, U = np.where(lower, H, 0.0), np.where(lower, 0.0, H)

    def product(X, k):
        if k == 1:
            return _along(H, fibers[0], X)
        return (_along(L, fibers[k - 1], product(X, k - 1))
                + product(_along(U, fibers[k - 1], X), k - 1))

    def apply(X):
        # the product acts on rows: it forms (A X)^T = X^T A^T
        rows = X.reshape(len(X), -1).T
        return product(rows, len(fibers)).T.reshape(X.shape)

    return apply


# Largest order whose top eigenvalue comes from a dense eigh (module docstring)
_DENSE_EIGH_MAX_ORDER = 512


def _top_eigenvalue(A, N, B=None):
    """Largest eigenvalue of the symmetric pencil (A, B) of order N, B
    positive definite (None: the identity).  A is a matrix, which it may
    overwrite, or, without B, a function X -> A X on (N, K) arrays."""
    if not callable(A) or N <= _DENSE_EIGH_MAX_ORDER:
        from scipy.linalg import eigh
        A = A(np.eye(N)) if callable(A) else A
        return eigh(A, B, eigvals_only=True, overwrite_a=True,
                    subset_by_index=[N - 1, N - 1])[0]
    from scipy.sparse.linalg import LinearOperator, eigsh
    # a fixed start: ARPACK's default one is drawn from a generator that
    # every earlier solve in the process has advanced
    return eigsh(LinearOperator((N, N), matvec=A, dtype=float), k=1,
                 which="LA", v0=np.ones(N), ncv=32, tol=0,
                 return_eigenvectors=False)[0]


def sparse_rayleigh(rule, q, mode="mix"):
    """Largest Rayleigh quotient of the mixed H^q norm (or, at d = 1, the
    'mix-semi' seminorm) against L2 over the q-vanishing sparse space.

    A standard symmetric eigenproblem in the orthonormalized basis, whose
    matrix is the tensor product over directions of one 1D matrix H (module
    docstring).  The mixed norm sums prod_i G_{a_i} over every a with
    max_i a_i <= q, so H = sum_{a <= q} G_a; for the seminorm H = G_q.
    """
    if mode not in ("mix", "mix-semi"):
        raise ValueError(f"unknown norm mode '{mode}'")
    if mode == "mix-semi" and rule.d != 1:
        raise ValueError(f"the 'mix-semi' pencil is univariate, not d={rule.d}")
    basis = stacked_sparse_basis(rule, q)
    G = _orthonormal_grams(basis)
    H = G[q] if mode == "mix-semi" else sum(G)
    A = H if rule.d == 1 else _hadamard_operator(H, basis.levels,
                                                  _fibers(basis.entries))
    return float(np.sqrt(_top_eigenvalue(A, basis.size)))


def dimension_rank(rule):
    """Dimension of the combination span, ``dim_L`` of the certificate of
    `equivalence_report`."""
    return equivalence_report(rule)["dim_L"]

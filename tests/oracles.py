"""Reference code the tests compare the package against.

None of this runs in a study: these are independent evaluations (among them
scattered-point evaluation of tensor and sparse splines and of geometry maps
by dense collocation rows, the derivative transfer built row by row as
the reference for derivative collocation rows, the
multi-level prolongation as a product of one-level knot insertions,
term-by-term grid evaluation of sparse splines in long double, and the
long-double L2 error that the Smolyak-difference norm is gated against), the
recursive enumerator of level sets, the three-pass tensor projection, the
paper's identities as residuals, the dense generalized
sparse pencil and its gathered Hadamard norm matrix, a one-pass build of
the constrained increment chain, the span equality of the combination and
hierarchical constructions by brute force, in level-(n, ..., n) tensor
coefficients (capped in size) and on collocation rows, the grid norms with
every grid-sized array held at once, the mapped pencil's grid arrays from
the full-grid Jacobian, the mapped pencil by grid x N value matrices, slab
by slab, as X^T X and in its earlier generalized form, a
Newton inverse of a geometry map and a writer of the geometry file format.
Test modules import it as ``from oracles import`` (pytest puts ``tests/``
on the path).
"""

import itertools
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import scipy.linalg

from sgsplines.bspline import (
    collocation_matrix,
    greville,
    make_space,
    prolongation,
    refinement_operator,
    vanishing_subspace,
)
from sgsplines.functions import SumOfSeparable, TrigFactor
from sgsplines.geometry import GeometryMap
from sgsplines.indices import (
    build_combination_set,
    build_hier_set,
    cbinom,
)
from sgsplines.quadrature import gram_matrix
from sgsplines.spaces import (
    SVD_TOL,
    SparseGridFunction,
    _entries,
    _span,
    _top_eigenvalue,
    hier_basis,
    stacked_sparse_basis,
)
from sgsplines.tensorops import (
    _norm_axes,
    multi_indices,
    project_direction,
    sample,
    tensor_weights,
    to_coefficients,
)

_NEWTON_LATTICE = 17


def eval_spline(space, coeffs, x, m=0):
    """Evaluate the spline with the given coefficient vector (or stacked
    columns of vectors) at points `x`."""
    return collocation_matrix(space, x, m) @ coeffs


def eval_points(u, pts, alpha=None):
    """Mixed derivative of a `CoefficientTensor`, `SparseGridFunction` or
    `GeometryMap` at scattered points of shape (..., d), by dense rows of
    tensor collocation: O(points x coefficients), for checking `deriv_grid`."""
    if isinstance(u, SparseGridFunction):
        return sum(c * eval_points(ct, pts, alpha) for _, c, ct in u.terms)
    if isinstance(u, GeometryMap):
        u = u.tensor
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, u.d)
    rows = np.ones((len(flat), 1))
    for sp, x, a in zip(u.spaces(), flat.T, alpha or (0,) * u.d):
        B = collocation_matrix(sp, x, a)
        rows = (rows[:, :, None] * B[:, None, :]).reshape(len(flat), -1)
    vals = rows @ u.coeffs.reshape(rows.shape[1], -1)
    return vals.reshape(pts.shape[:-1] + u.coeffs.shape[u.d:])


def jacobian(geom, pts):
    """Jacobians of a geometry map at scattered points; shape (..., d, d),
    J[..., i, j] = dF_i/dxi_j."""
    units = np.eye(geom.d, dtype=int)
    return np.stack([eval_points(geom, pts, tuple(e)) for e in units], axis=-1)


def derivative_transfer_rows(p, level, m, dtype=float):
    """The matrix taking degree-p coefficients to those of the m-th
    derivative in the degree p-m space on the same mesh, built one row at a
    time.  The value rows of degree p-m times it are the reference for the
    derivative rows of `collocation_matrix`, which forms no such matrix.
    With ``dtype=np.longdouble`` it is built in extended precision."""
    knots = make_space(p, level).knots.astype(dtype)
    dim = 2 ** level + p
    D = np.eye(dim, dtype=dtype)
    for j in range(1, m + 1):
        q = p - j + 1
        tj = knots[j - 1:len(knots) - (j - 1)] if j > 1 else knots
        Dj = np.zeros((dim - j, dim - j + 1), dtype=dtype)
        for i in range(dim - j):
            denom = tj[i + q + 1] - tj[i + 1]
            Dj[i, i] = -q / denom
            Dj[i, i + 1] = q / denom
        D = Dj @ D
    return D


def prolongation_by_steps(space, target_level):
    """`sgsplines.bspline.prolongation` as the product of the one-level
    knot insertions from `space` up to `target_level`, seeded by the
    identity."""
    if target_level < space.level:
        raise ValueError("target level must not be coarser")
    R = np.eye(space.dim)
    for lev in range(space.level, target_level):
        R = refinement_operator(make_space(space.degree, lev),
                                make_space(space.degree, lev + 1)) @ R
    return R


def spline_factor(space, coeffs):
    """The spline with the given coefficients as a univariate factor
    ``g(x, m)`` of a `SumOfSeparable`, or as a callable for `project_1d`."""
    return lambda x, m=0: eval_spline(space, coeffs, np.atleast_1d(x), m)


def random_trig(d, seed, terms=3, max_freq=2):
    """Random smooth function: a few separable products of low-frequency
    sines with random phases and coefficients."""
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(terms):
        c = rng.uniform(-1.0, 1.0)
        fs = [TrigFactor(rng.integers(1, max_freq + 1) * math.pi, rng.uniform(0, 2 * math.pi))
              for _ in range(d)]
        entries.append((c, fs))
    return SumOfSeparable(d, entries)


# ---------------------------------------------------------------------------
# telescopic decomposition and combination cancellations


def complement_direction(gs, i):
    """Apply (identity - projector) along axis i of a `GridSample`."""
    proj = project_direction(gs, i)
    return replace(gs, values=gs.values - proj.values)


def l2_norm(gs):
    """L2 norm of the values of a `GridSample` by its own quadrature."""
    return float(np.sqrt(np.sum(tensor_weights(gs.weights) * gs.values ** 2)))


def telescopic_residual(f, level, degree):
    """Max grid discrepancy of the complementary-projector decomposition:
    (I - P)f versus the alternating sum of partial complements over all
    nonempty direction subsets."""
    gs = sample(f, level, degree)
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


def _levels_with_sum(d, total, lam):
    """All d-tuples with entries >= lam summing to `total`, lexicographic."""
    if total < d * lam:
        return []
    if d == 1:
        return [(total,)]
    out = []
    for a in range(lam, total - lam * (d - 1) + 1):
        out.extend((a,) + rest for rest in _levels_with_sum(d - 1, total - a, lam))
    return out


def hier_set_reference(d, n, lam):
    """The hierarchy set by sum, each sum's levels in `_levels_with_sum`
    order."""
    return tuple(lvl for total in range(d * lam, n + (d - 1) * lam + 1)
                 for lvl in _levels_with_sum(d, total, lam))


def combination_set_reference(d, n, lam):
    """The combination technique's layers, top sum first, and its
    (level, coefficient) pairs in layer order."""
    layers = tuple(tuple(_levels_with_sum(d, n + (d - 1) * lam - l, lam))
                   for l in range(d))
    levels = tuple((lvl, (-1) ** l * math.comb(d - 1, l))
                   for l, layer in enumerate(layers) for lvl in layer)
    return layers, levels


def cancellation_constant(d, k, l):
    """Coefficient of the layer-l partial terms after the combination's
    coarse-term cancellations (derived by regrouping the layer sums; the
    completion multiplicities depend only on the layer offset, so the
    constant carries no minimum-level term)."""
    return sum((-1) ** kap * math.comb(d - 1, kap)
               * cbinom(l - kap + d - k - 1, d - k - 1)
               for kap in range(l + 1))


def lemma8_sides(rule, values):
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


def random_values(seed):
    """Values for `lemma8_sides`: one seeded uniform(-1, 1) draw per
    (J, level restriction), in the order of first use."""
    rng = np.random.default_rng(seed)
    cache = {}

    def values(J, sub):
        key = (J, sub)
        if key not in cache:
            cache[key] = rng.uniform(-1.0, 1.0)
        return cache[key]

    return values


def lemma8_residual(rule, values=None, seed=0):
    """|LHS - RHS| of the cancellation identity; with no explicit values,
    those of ``random_values(seed)``."""
    lhs, rhs = lemma8_sides(rule, values or random_values(seed))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# span equality of the combination and hierarchical constructions


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


# largest stack of the brute-force span check, in bytes: (2^n + p)^d rows
_STACK_BYTES_MAX = 2 ** 28


def combination_stack(rule):
    """Level-n coefficients of every univariate level lam..n (its
    prolongation), and every basis function of every combination level
    stacked in level-(n, ..., n) tensor coefficients.  Raises ValueError
    above `_STACK_BYTES_MAX`."""
    P = {lev: prolongation(make_space(rule.p, lev), rule.n)
         for lev in range(rule.lam, rule.n + 1)}
    cs = build_combination_set(rule.d, rule.n, rule.p)
    entries = _entries({lev: M.shape[1] for lev, M in P.items()},
                       [lvl for lvl, _ in cs.levels])
    size = 8 * (2 ** rule.n + rule.p) ** rule.d * len(entries)
    if size > _STACK_BYTES_MAX:
        raise ValueError(f"the brute-force stack of {rule} would take "
                         f"{size / 2 ** 20:.0f} MiB")
    return P, khatri_rao([np.hstack(list(P.values()))] * rule.d, entries.T)


def equivalence_brute_force(rule):
    """`sgsplines.spaces.equivalence_report` by brute force in
    level-(n, ..., n) tensor coefficients: every basis function of both
    constructions is one stacked column, one thin SVD per stack (`_span`)
    gives its rank and span, and each stack's columns are projected
    orthogonally onto the other's span.  The residual is the largest
    relative one of any column."""
    P, lstack = combination_stack(rule)
    sels = hier_basis(rule)
    odd = np.hstack([P[lev][:, sel] for lev, sel in sels.items()])
    entries = _entries({lev: len(sel) for lev, sel in sels.items()},
                       build_hier_set(rule.d, rule.n, rule.p))
    hstack = khatri_rao([odd] * rule.d, entries.T)
    dim_l, Ql = _span(lstack)
    dim_h, Qh = _span(hstack)

    def rel_residual(Q, B):
        res = np.linalg.norm(B - Q @ (Q.T @ B), axis=0)
        return (res / np.linalg.norm(B, axis=0)).max()

    return {
        "dim_L": dim_l,
        "dim_H": dim_h,
        "cross_residual_max": float(max(rel_residual(Ql, hstack),
                                        rel_residual(Qh, lstack))),
    }


def dimension_rank_brute_force(rule):
    """`sgsplines.spaces.dimension_rank` by brute force: the rank of all
    stacked level bases in level-(n, ..., n) tensor coefficients."""
    return _span(combination_stack(rule)[1], basis=False)[0]


def collocation_equivalence(rule):
    """`sgsplines.spaces.equivalence_report` on collocation rows: every basis
    function of both constructions is evaluated at the Greville points of
    level n+1 (unisolvent for every level <= n) in every direction.
    ``dim_L`` is the rank of the combination stack by the `SVD_TOL` rule,
    ``dim_H`` the number of hierarchical columns, and the residual the
    largest relative least-squares (``gelsd``) residual of either stack's
    columns fitted in the other."""
    pts = greville(make_space(rule.p, rule.n + 1))
    V = {lev: collocation_matrix(make_space(rule.p, lev), pts, 0)
         for lev in range(rule.lam, rule.n + 1)}
    cs = build_combination_set(rule.d, rule.n, rule.p)
    entries = _entries({lev: M.shape[1] for lev, M in V.items()},
                       [lvl for lvl, _ in cs.levels])
    lstack = khatri_rao([np.hstack(list(V.values()))] * rule.d, entries.T)
    svals = scipy.linalg.svd(lstack, compute_uv=False)
    sels = hier_basis(rule)
    odd = np.hstack([V[lev][:, sel] for lev, sel in sels.items()])
    entries = _entries({lev: len(sel) for lev, sel in sels.items()},
                       build_hier_set(rule.d, rule.n, rule.p))
    hstack = khatri_rao([odd] * rule.d, entries.T)

    def rel_residuals(A, B):
        sol, *_ = scipy.linalg.lstsq(A, B, lapack_driver="gelsd")
        return (np.linalg.norm(A @ sol - B, axis=0)
                / np.linalg.norm(B, axis=0))

    return {
        "dim_L": int(np.sum(svals > SVD_TOL * svals[0])),
        "dim_H": hstack.shape[1],
        "cross_residual_max": float(max(rel_residuals(lstack, hstack).max(),
                                        rel_residuals(hstack, lstack).max())),
    }


# ---------------------------------------------------------------------------
# the q-vanishing sparse basis and its pencil


def constrained_chain(p, q, lam, n):
    """The univariate q-vanishing chain, levels lam..n, built in one pass from
    the base level: the stack of all increments in level-n coefficients, and
    the increments in their own levels' coefficients.  The reference for the
    level-by-level extension that `sgsplines.spaces._constrained_chain`
    caches."""
    spaces = [make_space(p, lev) for lev in range(lam, n + 1)]
    tilde = [vanishing_subspace(s, q) for s in spaces]
    increments = [tilde[0]]
    acc = tilde[0]
    for j in range(1, len(spaces)):
        acc = refinement_operator(spaces[j - 1], spaces[j]) @ acc
        T = tilde[j]
        Qacc, _ = np.linalg.qr(acc)
        Z = T - Qacc @ (Qacc.T @ T)
        _, _, piv = scipy.linalg.qr(Z, pivoting=True)
        W = T[:, np.sort(piv[:2 ** (spaces[j].level - 1)])]
        acc = np.hstack([acc, W])
        increments.append(W)
    return acc, increments


def hadamard(H, entries):
    """Matrix of prod_i H[e_i, f_i] over all pairs (e, f) of tensor entries,
    gathered whole: the N x N norm matrix that the sparse pencil applies
    direction by direction without forming it."""
    A = H[np.ix_(entries[:, 0], entries[:, 0])]
    for ix in entries.T[1:]:
        A *= H[np.ix_(ix, ix)]
    return A


def dense_rayleigh(rule, q, mode="mix"):
    """The sparse pencil as a dense generalized eigenproblem eigh(A, B) on the
    stacked basis, without orthonormalization: A sums the Hadamard products
    of the 1D Gram matrices over every derivative multi-index of the norm,
    and B is the L2 Gram matrix of the stacked tensor functions."""
    basis = stacked_sparse_basis(rule, q)
    space_n = make_space(rule.p, rule.n)
    G = {a: basis.V.T @ gram_matrix(space_n, a) @ basis.V for a in range(q + 1)}
    sub = [{a: G[a][np.ix_(ix, ix)] for a in range(q + 1)}
           for ix in basis.entries.T]
    A = np.zeros((basis.size, basis.size))
    for alpha in multi_indices(rule.d, q, mode):
        A += reduce(np.multiply, (sub[i][a] for i, a in enumerate(alpha)))
    B = reduce(np.multiply, (sub[i][0] for i in range(rule.d)))
    return float(np.sqrt(scipy.linalg.eigh(A, B, eigvals_only=True)[-1]))


# ---------------------------------------------------------------------------
# geometry maps


def _mapped_value_slabs(rule, q, geom):
    """The mapped pencil's weights W det J, its value matrix U and its d
    physical gradients, each summed over the parameter gradients by a
    generator, all held at once on one slab of the quadrature grid (one
    point of the first direction) at a time: the grid x N route."""
    basis = stacked_sparse_basis(rule, q)
    p, n, d = rule.p, rule.n, rule.d
    axes, weights = _norm_axes((n,) * d, p + 3)
    W = tensor_weights(weights)
    space_n = make_space(p, n)
    E0 = collocation_matrix(space_n, axes[0], 0) @ basis.V
    E1 = collocation_matrix(space_n, axes[0], 1) @ basis.V
    for x in range(len(axes[0])):
        J = geom.jacobian_grid((axes[0][x:x + 1],) + axes[1:])
        Wphys = (W[x] * np.linalg.det(J)).ravel()
        Jinv = np.linalg.inv(J).reshape(-1, d, d)

        def values(j=None):
            mats = [E1 if i == j else E0 for i in range(d)]
            return khatri_rao([mats[0][x:x + 1]] + mats[1:], basis.entries.T)

        U = values()
        grads_param = [values(j) for j in range(d)]
        grads = [sum(Jinv[:, j, i][:, None] * grads_param[j] for j in range(d))
                 for i in range(d)]
        yield Wphys, U, grads


def mapped_grams_reference(rule, q, geom):
    """The mapped pencil's Gram matrices (A, B) by the grid x N route: each
    value matrix scaled by sqrt(W det J), and its Gram matrix X^T X, summed
    over the slabs of `_mapped_value_slabs`."""
    A = B = 0.0
    for Wphys, U, grads in _mapped_value_slabs(rule, q, geom):
        root_w = np.sqrt(Wphys)[:, None]
        X = U * root_w
        B = B + X.T @ X
        for Gi in grads:
            X = Gi * root_w
            A = A + X.T @ X
    return A, B


def mapped_rayleigh_reference(rule, q, geom):
    """The mapped pencil of `mapped_grams_reference`, whose top eigenvalue
    comes from the package's one eigenvalue routine."""
    A, B = mapped_grams_reference(rule, q, geom)
    return float(np.sqrt(_top_eigenvalue(A, len(B), B)))


def mapped_rayleigh_generalized(rule, q, geom):
    """The mapped pencil in an independent formulation: Gram matrices
    M^T (W M) with the weighted copy, and the whole generalized spectrum
    of eigh(A, B)."""
    A = B = 0.0
    for Wphys, U, grads in _mapped_value_slabs(rule, q, geom):
        B = B + U.T @ (Wphys[:, None] * U)
        A = A + sum(Gi.T @ (Wphys[:, None] * Gi) for Gi in grads)
    return float(np.sqrt(scipy.linalg.eigh(A, B, eigvals_only=True)[-1]))


def inverse(geom, x, tol=1e-12, maxiter=50):
    """Parameter preimage of physical points under ``geom`` by Newton
    iteration.

    Starts from the preimage, on a 17^d parameter lattice, nearest each
    target; iterates are clamped to the unit box.  Raises if the residual does
    not reach `tol` or a singular Jacobian is met.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x.reshape(-1, geom.d)
    pts1 = np.linspace(0.0, 1.0, _NEWTON_LATTICE)
    params = np.stack(np.meshgrid(*([pts1] * geom.d), indexing="ij"),
                      axis=-1).reshape(-1, geom.d)
    values = eval_points(geom, params)
    d2 = ((values[None, :, :] - pts[:, None, :]) ** 2).sum(-1)
    xi = params[np.argmin(d2, axis=1)].copy()
    best = np.inf
    for _ in range(maxiter):
        r = eval_points(geom, xi) - pts
        res = np.linalg.norm(r, axis=-1)
        best = min(best, res.max())
        if res.max() < tol:
            break
        J = jacobian(geom, xi)
        det = np.linalg.det(J)
        if np.any(np.abs(det) < 1e-14):
            raise RuntimeError("singular Jacobian during Newton inversion")
        step = np.linalg.solve(J, r[..., None])[..., 0]
        xi = np.clip(xi - step, 0.0, 1.0)
    else:
        raise RuntimeError(f"Newton inversion did not converge "
                           f"(best residual {best:.3e})")
    return xi[0] if single else xi.reshape(x.shape)


def save_geometry(geom, path):
    """Write a map in the plain-text geometry format that
    `sgsplines.geometry.load_geometry` reads."""
    with open(path, "w") as fh:
        fh.write(f"degree {geom.degree}\n")
        fh.write("dims " + " ".join(str(s) for s in geom.ctrl.shape[:-1]) + "\n")
        fh.write("control_points\n")
        for idx in itertools.product(*(range(s) for s in geom.ctrl.shape[:-1])):
            fh.write(" ".join(repr(float(c)) for c in geom.ctrl[idx]) + "\n")


# ---------------------------------------------------------------------------
# sparse-grid evaluation term by term in long double, and grid norms with
# every grid-sized array held at once


def _basis_rows_longdouble(space, x):
    """Values of every basis function of ``space`` at the points ``x`` (in
    [0, 1)), by the Cox-de Boor recursion over all functions in
    np.longdouble; shape (len(x), space.dim)."""
    t = space.knots.astype(np.longdouble)
    x = np.asarray(x, dtype=np.longdouble)[:, None]
    N = ((t[:-1] <= x) & (x < t[1:])).astype(np.longdouble)
    for k in range(1, space.degree + 1):
        left, right = t[k:-1] - t[:-k - 1], t[k + 1:] - t[1:-k]
        a = np.divide(x - t[:-k - 1], left, out=np.zeros_like(N[:, :-1]),
                      where=left > 0)
        b = np.divide(t[k + 1:] - x, right, out=np.zeros_like(N[:, :-1]),
                      where=right > 0)
        N = a * N[:, :-1] + b * N[:, 1:]
    return N


def deriv_grid_longdouble(u, axes, alpha=None):
    """`deriv_grid` of a `SparseGridFunction` term by term in np.longdouble:
    degree p - a basis rows by Cox-de Boor and the derivative transfer, both
    in extended precision, contracted and summed in extended precision.
    The reference for the float64 evaluations; ``axes`` must avoid the
    point 1."""
    alpha = alpha or (0,) * u.d
    out = np.longdouble(0)
    for level, c, ct in u.terms:
        X = ct.coeffs.astype(np.longdouble)
        for l, a, ax in zip(level, alpha, axes):
            E = _basis_rows_longdouble(make_space(u.degree - a, l), ax)
            if a:
                E = E @ derivative_transfer_rows(u.degree, l, a, np.longdouble)
            X = _contract_banded(X, *_band(E, u.degree + 1))
        out = out + np.longdouble(c) * X
    return out


def _band(E, width):
    """Rows ``E`` whose nonzeros lie in ``width`` consecutive columns, as
    the indices and the values of those columns, ``(cols, band)``."""
    start = np.minimum(np.argmax(E != 0, axis=1), E.shape[1] - width)
    cols = start[:, None] + np.arange(width)
    band = np.take_along_axis(E, cols, axis=1)
    assert np.count_nonzero(band) == np.count_nonzero(E)
    return cols, band


def _contract_banded(X, cols, band):
    """``np.tensordot(X, E.T, axes=([0], [0]))`` for rows ``E`` given by
    `_band`, summed over their band only, in column order: O(rows x width)
    per entry of X's other axes instead of O(rows x columns)."""
    shape = (-1,) + (1,) * (X.ndim - 1)
    out = X[cols[:, 0]]
    out *= band[:, 0].reshape(shape)
    for r in range(1, cols.shape[1]):
        term = X[cols[:, r]]
        term *= band[:, r].reshape(shape)
        out += term
    return np.moveaxis(out, 0, -1)


def eval_grid_longdouble(f, axes):
    """Values of a `SumOfSeparable` on a tensor grid from the float64 values
    of its factors, with every product and sum in np.longdouble."""
    out = np.longdouble(0)
    for c, fs in f.terms:
        term = np.longdouble(c)
        for g, ax in zip(fs, axes):
            term = np.multiply.outer(term, g(ax, 0).astype(np.longdouble))
        out = out + term
    return out


def error_norm_longdouble(f, u):
    """The L2 `error_norm` of a `SumOfSeparable` ``f`` against a
    `SparseGridFunction` ``u``, on the same grid, in np.longdouble: u's
    float64 coefficients by the arithmetic of `deriv_grid_longdouble` and
    f's float64 factor values, with every later product, sum and square in
    extended precision.  One slab of the first axis, about 2^21 grid points,
    at a time; the banded rows of each level on each axis are built once,
    and those of the first axis are sliced per slab."""
    p = u.degree
    axes, weights = _norm_axes(u.finest_level, p + 3)
    keys = {(i, l) for level, _, _ in u.terms for i, l in enumerate(level)}
    bands = {(i, l): _band(_basis_rows_longdouble(make_space(p, l), axes[i]),
                           p + 1) for i, l in keys}
    rest = tensor_weights(weights[1:]).astype(np.longdouble)
    step = max(1, 2 ** 21 // rest.size)
    total = np.longdouble(0)
    for s in range(0, len(axes[0]), step):
        slab = (axes[0][s:s + step],) + axes[1:]
        diff = None
        for level, c, ct in u.terms:
            X = ct.coeffs.astype(np.longdouble)
            for i, l in enumerate(level):
                cols, band = bands[i, l]
                if i == 0:
                    cols, band = cols[s:s + step], band[s:s + step]
                X = _contract_banded(X, cols, band)
            X *= np.longdouble(c)
            if diff is None:
                diff = X
            else:
                diff += X
        np.subtract(eval_grid_longdouble(f, slab), diff, out=diff)
        diff **= 2
        diff *= np.multiply.outer(weights[0][s:s + step], rest)
        total += np.sum(diff)
    return np.sqrt(total)


def project_tensor_three_pass(f, level, degree):
    """Tensor L2 projection as `project_direction` along every axis (each
    pass projects and evaluates back on the nodes), then `to_coefficients`:
    the three-pass form that the single pass replaced."""
    gs = sample(f, level, degree)
    for i in range(gs.d):
        gs = project_direction(gs, i)
    return to_coefficients(gs)


def _eval_grid_all_held(f, axes, alpha=None, start=None):
    """`SumOfSeparable.eval_grid` with a fresh array per step, summed from
    ``start`` (zeros by default)."""
    alpha = alpha or (0,) * f.d
    shape = tuple(len(np.atleast_1d(ax)) for ax in axes)
    out = np.zeros(shape) if start is None else start
    for c, fs in f.terms:
        term = np.array(c)
        for g, ax, a in zip(fs, axes, alpha):
            term = np.multiply.outer(term, g(np.atleast_1d(ax), a))
        out = out + term
    return out


def _eval_points_all_held(f, pts):
    """`SumOfSeparable.eval_points` of values, summed into a zero array with
    a fresh product per factor."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[:-1])
    for c, fs in f.terms:
        term = np.full(pts.shape[:-1], c)
        for i, g in enumerate(fs):
            term = term * g(pts[..., i], 0)
        out += term
    return out


def error_norm_all_held(f, u, mode, order):
    """`sgsplines.tensorops.error_norm` with the weights, the negated spline
    values, each partial sum of the target's terms added to them, and the
    square each in a fresh array: the arithmetic that the in-place norm must
    reproduce bit for bit."""
    degree = u.degree
    if order > degree:
        raise ValueError(f"norm order {order} exceeds spline degree {degree}")
    level = u.finest_level
    axes, weights = _norm_axes(level, degree + 3)
    W = tensor_weights(weights)
    total = 0.0
    for alpha in multi_indices(len(level), order, mode):
        diff = u.deriv_grid(axes, alpha)
        if f is not None:
            diff = _eval_grid_all_held(f, axes, alpha, start=-diff)
        total += float(np.sum(W * diff ** 2))
    return float(np.sqrt(total))


def function_norm_all_held(f, d, mode, order):
    """`sgsplines.tensorops.function_norm` as one sum over its quadrature
    grid, with fresh arrays throughout and every grid-sized array held at
    once."""
    level = 6 if d <= 2 else 4
    axes, weights = _norm_axes((level,) * d, 6)
    W = tensor_weights(weights)
    total = 0.0
    for alpha in multi_indices(d, order, mode):
        total += float(np.sum(W * _eval_grid_all_held(f, axes, alpha) ** 2))
    return float(np.sqrt(total))


def pullback_weighted_squares_all_held(f_phys, u, geom):
    """The terms (W det J) (f - u)^2 of `sgsplines.geometry.pullback_error_norm`
    on the whole grid, with the Jacobian stacked from its columns and fresh
    arrays throughout."""
    degree = u.degree
    axes, weights = _norm_axes(u.finest_level, degree + 3)
    units = np.eye(geom.d, dtype=int)
    J = np.stack([geom.tensor.deriv_grid(axes, tuple(e)) for e in units], axis=-1)
    Wphys = tensor_weights(weights) * np.linalg.det(J)
    diff = (_eval_points_all_held(f_phys, geom.eval_grid(axes))
            - u.deriv_grid(axes))
    return Wphys * diff ** 2


def pullback_error_norm_all_held(f_phys, u, geom):
    """`sgsplines.geometry.pullback_error_norm` as one sum over the whole
    grid: the bits of the norm on a grid of one slab."""
    return float(np.sqrt(np.sum(pullback_weighted_squares_all_held(f_phys, u, geom))))


def mapped_kernels_full_grid(geom, level, qpts):
    """The grid arrays of `sgsplines.geometry._mapped_kernels` from the
    Jacobian, its determinant, its inverse and the metric J^-1 J^-T, each
    held on the full grid at once: W det J / 2, and for j <= k
    W det J (J^-1 J^-T)_jk / 2, doubled at j < k."""
    axes, weights = _norm_axes(level, qpts)
    J = geom.jacobian_grid(axes)
    half = tensor_weights(weights) * np.linalg.det(J) / 2
    Jinv = np.linalg.inv(J)
    metric = Jinv @ np.swapaxes(Jinv, -1, -2)
    d = len(level)
    return half, {(j, k): half * metric[..., j, k] * (1 if j == k else 2)
                  for j in range(d) for k in range(j, d)}

"""B-spline geometry maps from the unit parameter box to a physical domain.

The geometry lives on a coarse mesh (single element by default) and is checked
at build time to have degree at least 1, finite control points and a positive
Jacobian determinant inside and at the ends of every cell.  It is evaluated,
like every spline member, only on tensor grids (`CoefficientTensor.deriv_grid`).
The physical-domain L2 norm and the mapped inverse-inequality pencil are
computed by parameter-space quadrature with Jacobian weights, in one slab
loop (`_jacobian_slabs`) over whole cells (`tensorops.cell_slabs`, whose
docstring gives the rule and why it keeps the bits), never holding the
Jacobian on the full grid.

Each Gram matrix of the mapped pencil is a sum over the quadrature grid of a
grid array times a product of one row and one column factor per direction.
It is assembled by sum factorization (Antolin, Buffa, Calabro, Martinelli
and Sangalli, CMAME 285, 2015), one direction at a time, the last first,
over the pairs of the suffix set: the entries projected onto the directions
not yet contracted.  The hierarchy set is downward closed, so each level
block of a suffix set is the product of that level's stacked columns and a
set of shorter suffixes, and each step is one GEMM per pair of level blocks.
With g points per direction, the peak is O(N^2 + max_k g^k |suffixes_k|^2)
doubles; no grid x N value matrix is formed.
"""

from __future__ import annotations

import numpy as np

from .bspline import _frozen, _space, collocation_matrix, greville, make_space
from .spaces import _top_eigenvalue, stacked_sparse_basis
from .tensorops import (
    CoefficientTensor,
    _norm_axes,
    _weighted_square_sum,
    cell_slabs,
    tensor_weights,
)

# the diffeomorphism check's points per direction, at least 5 per cell
_DIFFEO_GRID = 33


def _is_pow2(m):
    return m >= 1 and (m & (m - 1)) == 0


def _unit(d, j):
    """Multi-index of the first derivative in direction j."""
    return tuple(int(j == k) for k in range(d))


class GeometryMap:
    """Tensor-product B-spline map with a control-point grid.

    `ctrl` has shape (n_1, ..., n_d, d) with n_i = 2**level + degree; control
    points are immutable after the build-time diffeomorphism check.  `tensor`
    holds them as a vector-valued `CoefficientTensor`, which evaluates the map.
    """

    def __init__(self, degree, ctrl):
        # a copy: freezing the caller's own array would be a side effect
        ctrl = np.array(ctrl, dtype=float)
        self.degree = int(degree)
        if self.degree < 1:
            raise ValueError(f"geometry degree {self.degree} is below 1; a map "
                             f"needs degree >= 1 to have a Jacobian")
        self.d = ctrl.ndim - 1
        if self.d < 1 or ctrl.shape[-1] != self.d:
            raise ValueError("control grid must have shape dims + (d,)")
        sizes = ctrl.shape[:-1]
        if len(set(sizes)) != 1:
            raise ValueError("control grid must have equal extent per direction")
        ncells = sizes[0] - self.degree
        if not _is_pow2(ncells):
            raise ValueError(f"control extent {sizes[0]} incompatible with "
                             f"degree {self.degree} on a dyadic mesh")
        self.level = ncells.bit_length() - 1
        self.ctrl = _frozen(ctrl)
        self.tensor = CoefficientTensor((self.level,) * self.d, self.degree, ctrl)
        # a clamped tensor map interpolates its corner control points by
        # construction, so only non-finite control points can spoil it
        if not np.isfinite(ctrl).all():
            raise ValueError("control points must be finite")
        self._check_jacobian()

    # -- build-time checks

    def _check_jacobian(self):
        """Refuse det J <= 0 at k equispaced points per direction in every
        cell of the mesh, ends included, with k = 32 / cells + 1 but at
        least 5, so that a fold inside a cell shows; slab by slab."""
        cells = 2 ** self.level
        k = max(5, (_DIFFEO_GRID - 1) // cells + 1)
        ax = (np.arange(cells)[:, None] + np.linspace(0.0, 1.0, k)).ravel() / cells
        low = min(np.linalg.det(self.jacobian_grid(slab)).min()
                  for _, slab in cell_slabs([ax] * self.d, k))
        if low <= 0.0:
            raise ValueError(f"Jacobian determinant not positive on sample grid "
                             f"(min {low:.3e})")

    # -- evaluation

    def eval_grid(self, axes):
        """Map values on a tensor grid; shape grid + (d,)."""
        return self.tensor.deriv_grid(axes)

    def jacobian_grid(self, axes):
        """Jacobians on a tensor grid; shape grid + (d, d), J[..., i, j] =
        dF_i/dxi_j."""
        J = np.empty(tuple(len(ax) for ax in axes) + (self.d, self.d))
        for j in range(self.d):
            J[..., j] = self.tensor.deriv_grid(axes, _unit(self.d, j))
        return J


# ---------------------------------------------------------------------------
# built-in geometries


def identity_geometry(d, degree=1):
    """Control points at the Greville abscissae: F(xi) = xi exactly."""
    g = greville(_space(degree, 0))
    axes = np.meshgrid(*([g] * d), indexing="ij")
    return GeometryMap(degree, np.stack(axes, axis=-1))


def shear_geometry():
    """Planar affine shear x -> x + 0.4 y."""
    A = np.array([[1.0, 0.4], [0.0, 1.0]])
    base = identity_geometry(2, degree=1)
    return GeometryMap(1, base.ctrl @ A.T)


def distorted_square_geometry(shift=0.15):
    """Quadratic map of the unit square with the interior control point
    displaced; boundary edges stay straight, the parametrization does not."""
    base = identity_geometry(2, degree=2)
    ctrl = base.ctrl.copy()
    ctrl[1, 1] += shift
    return GeometryMap(2, ctrl)


_BUILTINS = {
    "identity": lambda: identity_geometry(2, degree=1),
    "shear": shear_geometry,
    "distorted-square": distorted_square_geometry,
}


def builtin_geometry(name):
    if name not in _BUILTINS:
        raise ValueError(f"unknown geometry '{name}'; available: {sorted(_BUILTINS)}")
    return _BUILTINS[name]()


# ---------------------------------------------------------------------------
# geometry specification files


def load_geometry(path):
    """Read the plain-text geometry format.

    Keys: ``degree <int>``, ``dims <n_1> ... <n_d>``, then a
    ``control_points`` line followed by one point per line (d whitespace
    separated coordinates) in row-major multi-index order (last index
    fastest).  Each key appears once, with exactly its values.
    """
    degree = None
    dims = None
    points = []
    seen = {}  # key -> line number
    in_points = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if in_points:
                try:
                    points.append([float(tok) for tok in line.split()])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad control point line "
                                     f"{line!r}") from exc
                if dims is not None and len(points[-1]) != len(dims):
                    raise ValueError(f"{path}:{lineno}: a control point needs "
                                     f"{len(dims)} coordinates, got {line!r}")
                continue
            key, *rest = line.split()
            if key not in ("degree", "dims", "control_points"):
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats "
                                 f"line {seen[key]}")
            seen[key] = lineno
            if (key == "control_points" and rest
                    or key == "degree" and len(rest) > 1):
                raise ValueError(f"{path}:{lineno}: too many values for key "
                                 f"{key!r}: {line!r}")
            if key == "control_points":
                in_points = True
                continue
            if not rest:
                raise ValueError(f"{path}:{lineno}: key {key!r} needs a value")
            try:
                values = [int(tok) for tok in rest]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: key {key!r} needs "
                                 f"integers, got {line!r}") from exc
            if key == "degree":
                degree = values[0]
            else:
                dims = values
                if min(dims) < 1:
                    raise ValueError(f"{path}:{lineno}: every 'dims' entry "
                                     f"must be at least 1")
    if degree is None or dims is None:
        raise ValueError(f"{path}: missing required keys 'degree' and 'dims'")
    expect = int(np.prod(dims))
    if len(points) != expect:
        raise ValueError(f"{path}: expected {expect} control points, "
                         f"got {len(points)}")
    return GeometryMap(degree, np.reshape(points, (*dims, len(dims))))


# ---------------------------------------------------------------------------
# physical-domain norms


class PullbackFunction:
    """Composition f(F(.)) of a physical function with the geometry map,
    sampled on parameter tensor grids: values only, which is all that
    `sample` and `pullback_error_norm` read."""

    def __init__(self, f_phys, geom):
        self.f_phys = f_phys
        self.geom = geom
        self.d = geom.d

    def eval_grid(self, axes):
        """Values on the tensor grid, in a fresh array."""
        return self.f_phys.eval_points(self.geom.eval_grid(axes))


def _jacobian_slabs(geom, level, qpts, metric=False):
    """The slab loop of the mapped kinds on the level's tensor Gauss grid,
    ``qpts`` points per cell: each slab's slice of axis 0, its axes, its
    weights W det J and, with ``metric``, its J^-1 J^-T, J[..., i, j] =
    dF_i/dxi_j.  A slab's Jacobian is dropped before the yield."""
    axes, weights = _norm_axes(level, qpts)
    for s, slab in cell_slabs(axes, qpts):
        J = geom.jacobian_grid(slab)
        Wphys = np.linalg.det(J)
        Wphys *= tensor_weights((weights[0][s],) + weights[1:])
        G = None
        if metric:
            Jinv = np.linalg.inv(J)
            G = Jinv @ np.swapaxes(Jinv, -1, -2)
        del J
        yield s, slab, Wphys, G


def pullback_error_norm(f_phys, u, geom):
    """Physical-domain L2 error norm of f_phys minus the push-forward of u,
    read as ``u.as_tensor()`` as `tensorops.error_norm` reads it.

    Integrates over the parameter domain with det J weights (degree + 3
    Gauss points per cell of that tensor's level), one slab at a time.  Per
    slab the target is evaluated before the spline, and the difference and
    its weighted square are formed in the spline values' buffer.  On a grid
    of one slab the bits are those of ``np.sum((W * det J) * (f - u) ** 2)``.
    """
    ct = u.as_tensor()
    pull = PullbackFunction(f_phys, geom)
    total = 0.0
    for _, slab, Wphys, _ in _jacobian_slabs(geom, ct.level, ct.degree + 3):
        fv = pull.eval_grid(slab)
        diff = ct.deriv_grid(slab)
        np.subtract(fv, diff, out=diff)
        total += _weighted_square_sum(diff, Wphys)
    return float(np.sqrt(total))


def _factorized_gram(entries, levels):
    """The function (K, factors) -> out of

        out[e, f] = sum_x K(x) prod_i a_i[x_i, e_i] b_i[x_i, f_i]

    over the rows e, f of `entries`, by sum factorization (module
    docstring).  K is an array on the tensor grid, `factors` one pair
    (a_i, b_i) of (points, stacked columns) matrices per direction, and
    `levels` the level of each stacked column, which are in level order.
    F, the sum over the grid directions contracted so far for every pair of
    the sorted suffix set, is held with the grid direction contracted next
    last.  A suffix set whose level blocks are not products raises
    RuntimeError.
    """
    N, d = entries.shape
    plan = []
    tail = np.zeros(N, dtype=np.intp)  # each entry's suffix past k, as a position
    for k in reversed(range(d)):
        width = tail.max() + 1
        keys, tail = np.unique(entries[:, k] * width + tail, return_inverse=True)
        col, pos = np.divmod(keys, width)
        blocks = []
        for l in np.unique(levels[col]):
            rows = np.flatnonzero(levels[col] == l)
            cols, tails = np.unique(col[rows]), np.unique(pos[rows])
            if len(rows) != len(cols) * len(tails):
                raise RuntimeError(f"the suffixes past direction {k} of level "
                                   f"{l} are not a product of its columns and "
                                   f"a suffix set: the entry set is not "
                                   f"downward closed")
            blocks.append((rows[0], cols, tails))
        plan.append((len(keys), blocks))

    def gram(K, factors):
        F = K.reshape(-1, 1, 1, K.shape[-1])
        for k, (size, blocks) in zip(reversed(range(d)), plan):
            a, b = factors[k]
            h = K.shape[k - 1] if k else 1  # the grid direction contracted next
            out = np.empty((len(F) // h, size, size, h))
            for r, cl, tl in blocks:
                for c, cm, tm in blocks:
                    P = (a[:, cl, None] * b[:, None, cm]).reshape(len(a), -1)
                    Y = F[:, tl[:, None], tm].reshape(-1, len(a)) @ P
                    out[:, r:r + cl.size * tl.size, c:c + cm.size * tm.size] = (
                        Y.reshape(-1, h, tl.size, tm.size, cl.size, cm.size)
                        .transpose(0, 4, 2, 5, 3, 1)
                        .reshape(-1, cl.size * tl.size, cm.size * tm.size, h))
            F = out
        return F[0, tail[:, None], tail, 0]

    return gram


def _mapped_kernels(geom, level, qpts):
    """The grid arrays K of the mapped pencil on the level's tensor Gauss
    grid, filled slab by slab: W det J / 2, and for j <= k the metric term
    W det J (J^-1 J^-T)_jk / 2, doubled at j < k."""
    shape = tuple(len(ax) for ax in _norm_axes(level, qpts)[0])
    d = len(shape)
    half = np.empty(shape)
    metric = {(j, k): np.empty(shape) for j in range(d) for k in range(j, d)}
    for s, _, Wphys, G in _jacobian_slabs(geom, level, qpts, metric=True):
        half[s] = Wphys / 2
        for (j, k), K in metric.items():
            K[s] = half[s] * G[..., j, k] * (1 if j == k else 2)
    return half, metric


def mapped_rayleigh(rule, q, geom):
    """Largest physical H^1-seminorm vs L2 Rayleigh quotient over the mapped
    q-vanishing sparse basis, by quadrature-assembled Gram matrices.

    Both Gram matrices are sums over the level-n quadrature grid of
    K(x) prod_i a_i[x_i, e_i] b_i[x_i, f_i], assembled by sum factorization
    (`_factorized_gram`): B with K = W det J / 2 and value factors in every
    direction; A as the sum over j <= k of the terms with
    K = W det J (J^-1 J^-T)_jk, halved at j = k, and derivative factors in
    directions j (row) and k (column), filled slab by slab
    (`_mapped_kernels`).  Each sum is C, and the Gram matrix C + C^T, which
    is exactly symmetric.  No grid x N value matrix is formed.  The top
    eigenvalue comes from `spaces._top_eigenvalue`.
    """
    if geom.d != rule.d:
        raise ValueError("geometry dimension does not match the level rule")
    basis = stacked_sparse_basis(rule, q)
    p, n, d = rule.p, rule.n, rule.d
    half, metric = _mapped_kernels(geom, (n,) * d, p + 3)

    space_n = make_space(p, n)
    nodes = _norm_axes((n,), p + 3)[0][0]
    E0 = collocation_matrix(space_n, nodes, 0) @ basis.V
    E1 = collocation_matrix(space_n, nodes, 1) @ basis.V
    gram = _factorized_gram(basis.entries, basis.levels)
    C = gram(half, [(E0, E0)] * d)
    B = C + C.T
    C = np.zeros_like(B)
    for (j, k), K in metric.items():
        C += gram(K, [(E1 if i == j else E0, E1 if i == k else E0)
                      for i in range(d)])
    return float(np.sqrt(_top_eigenvalue(C + C.T, basis.size, B)))

"""Sparse-grid level index sets, combination coefficients, and exact
combinatorial oracles.

The minimum-level threshold keeps every admissible level at mesh size
h * degree < 1 (strictly), which the univariate approximation theory needs;
for degrees that are powers of two the logarithm lands on an integer that
violates strictness, so the threshold rounds up past it.

`_levels_of_sum` is the one enumeration of levels, lexicographic within one
sum.  `build_hier_set` concatenates it from the lowest sum up;
`build_combination_set` takes its top d sums from the top down.  That order
is the order of every combination sum and stack.

All identity oracles run in exact integer arithmetic.  Binomials appearing
inside the identities use the generalized (signed polynomial) convention
``C(x, m) = x(x-1)...(x-m+1)/m!`` for possibly negative upper index; binomials
that count set cardinalities use the combinatorial convention (zero when the
upper index is smaller than the lower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations


def lambda_eff(p):
    """Smallest admissible level for degree p: 1 for p <= 1, else the least
    integer lam with 2**lam > p."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if p <= 1:
        return 1
    lam = 1
    while 2 ** lam <= p:
        lam += 1
    return lam


def gbinom(x, m):
    """Generalized binomial coefficient of integer x over m >= 0 (exact)."""
    num = 1
    for j in range(m):
        num *= x - j
    return num // math.factorial(m)


def cbinom(x, m):
    """Combinatorial binomial: zero for x < m or negative x."""
    return math.comb(x, m) if 0 <= m <= x else 0


@dataclass(frozen=True)
class LevelRule:
    """Parameters of a sparse-grid construction: dimension d, maximum level n,
    degree p, and the effective minimum level."""

    d: int
    n: int
    p: int
    lam: int = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "lam", lambda_eff(self.p))
        if self.n < self.lam:
            raise ValueError(
                f"maximum level {self.n} below minimum admissible level "
                f"{self.lam} for degree {self.p}")


@dataclass(frozen=True)
class CombinationSet:
    """Admissible levels of the combination technique with their integer
    coefficients (-1)^l * C(d-1, l) per layer l."""

    rule: LevelRule
    layers: tuple  # tuple of tuples of level multi-indices, layer l = 0..d-1
    levels: tuple  # flattened ((level, coefficient), ...)

    def coefficient_sum(self):
        return sum(c for _, c in self.levels)


def layer_cardinality(d, n, p, l):
    """Closed-form size of layer l (counted in the coefficient-sum proof)."""
    return cbinom(n + d - 1 - lambda_eff(p) - l, d - 1)


def _levels_of_sum(d, s, lam):
    """The d-tuples with entries >= lam and sum d*lam + s, lexicographic: each
    is read off d-1 bars among s+d-1 slots, which `combinations` yields in
    lexicographic order.  Each tuple is made from a list, at its exact size."""
    return [tuple([lam + b - a - 1 for a, b in zip((-1, *bars), (*bars, s + d - 1))])
            for bars in combinations(range(s + d - 1), d - 1)]


@lru_cache(maxsize=None)
def build_hier_set(d, n, p):
    """Levels of the hierarchical construction: |level|_1 <= n + (d-1)*lam
    with every component >= lam, by sum, then lexicographic."""
    lam = LevelRule(d, n, p).lam
    return tuple(lvl for s in range(n - lam + 1) for lvl in _levels_of_sum(d, s, lam))


@lru_cache(maxsize=None)
def build_combination_set(d, n, p):
    """Layer l: the levels of sum n + (d-1)*lam - l, in the hierarchy set's
    order, with coefficient (-1)^l * C(d-1, l); `levels` runs through the
    layers from the top down."""
    rule = LevelRule(d, n, p)
    layers = tuple(tuple(_levels_of_sum(d, n - rule.lam - l, rule.lam))
                   for l in range(d))
    coefficients = [(-1) ** l * math.comb(d - 1, l) for l in range(d)]
    levels = tuple((lvl, c) for c, layer in zip(coefficients, layers) for lvl in layer)
    return CombinationSet(rule, layers, levels)


def lemma1_deviation(d):
    """Largest |sum_l (-1)^l C(d-1,l) l^i| over 0 <= i <= d-2 (exact)."""
    if d < 2:
        raise ValueError("requires d >= 2")
    return max(abs(sum((-1) ** l * math.comb(d - 1, l) * l ** i for l in range(d)))
               for i in range(d - 1))


def lemma3_oracle(d, n, p, ell, k):
    """Exact value of the alternating binomial sum; equals 1 for k = 0 and 0
    for 1 <= k <= d-1 across the admissible grid."""
    lam = lambda_eff(p)
    return sum((-1) ** l * math.comb(d - 1, l)
               * gbinom(n + d - 1 - lam - l - ell, d - 1 - k)
               for l in range(d))


def increment_dim(p, level, lam):
    """Number of univariate basis functions added at `level` in a hierarchy
    based at `lam` (the base level carries the whole space)."""
    if level == lam:
        return 2 ** lam + p
    return 2 ** (level - 1)


def sparse_dimension(d, n, p):
    """Dimension of the sparse-grid space (increment sum) and of the full
    tensor-product space at level n."""
    lam = lambda_eff(p)
    sparse = sum(math.prod(increment_dim(p, li, lam) for li in lvl)
                 for lvl in build_hier_set(d, n, p))
    full = (2 ** n + p) ** d
    return sparse, full


# Closed-form constants from the approximation and inverse estimates.  Only
# the four explicitly printed closed forms are implemented; the
# analysis-internal constants with reused names are not exposed.


def c1(q, r):
    return math.sqrt(2.0) ** (q - r)


def c2(q):
    return (2.0 * math.sqrt(3.0)) ** q


def c10(d, q, r):
    """Constant of the sparse-grid approximation estimate.

    The layer sum is the triangle-inequality form
    sum_{l=0}^{d-2} C(d-1, l) 2^{-(q-r)(d-1-l)}, which is positive for every
    d; the alternating form is negative for d = 3.  Both agree at d = 2, where
    the constant is (r+1) / ln 2.
    """
    front = (d - 1) ** (d - 1) / (math.factorial(d - 1) * math.log(2) ** (d - 1))
    s = sum(2.0 ** (-(q - r) * (d - 1 - l)) * math.comb(d - 1, l)
            for l in range(d - 1))
    return front * s * (r + 1) ** (d / 2) * math.sqrt(2.0) ** (d * (q - r))


def c11(d, q):
    return ((q + 1) ** (d / 2) * (2.0 * math.sqrt(3.0)) ** (d * q)
            * 2.0 ** (d - 1) * 2.0 ** (d / 2)
            / (math.factorial(d) * math.log(2) ** (d / 2)))

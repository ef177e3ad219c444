"""Sparse-grid tensor products of maximally smooth B-splines.

Univariate spline spaces on dyadic meshes, anisotropic tensor products and
their seminorm-orthogonal projections, sparse-grid spaces built by the
combination technique or by hierarchical increments, B-spline geometry maps,
and a study runner that verifies dimension counts, identities, convergence
rates, and inverse inequalities at desk scale.

The package exports the names the README's library tour uses; everything
else is imported from its submodule.
"""

from . import functions
from .bspline import make_space
from .geometry import PullbackFunction, builtin_geometry, pullback_error_norm
from .indices import LevelRule, sparse_dimension
from .quadrature import project_1d
from .spaces import combination_project
from .tensorops import error_norm

__all__ = [
    "LevelRule",
    "PullbackFunction",
    "builtin_geometry",
    "combination_project",
    "error_norm",
    "functions",
    "make_space",
    "project_1d",
    "pullback_error_norm",
    "sparse_dimension",
]

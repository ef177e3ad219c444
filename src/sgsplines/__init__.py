"""Sparse-grid tensor products of maximally smooth B-splines.

Univariate spline spaces on dyadic meshes, anisotropic tensor products and
their seminorm-orthogonal projections, sparse-grid spaces built by the
combination technique or by hierarchical increments, B-spline geometry maps,
and a study runner that verifies dimension counts, identities, convergence
rates, and inverse inequalities at desk scale.
"""

from .bspline import (
    ConstrainedSubspace1D,
    SplineSpace1D,
    collocation_matrix,
    eval_basis,
    eval_spline,
    greville,
    make_space,
    prolongation,
    refinement_operator,
    vanishing_subspace,
)
from .quadrature import (
    QuadratureRule,
    gauss_rule,
    l2_error_1d,
    project_1d,
)
from .indices import (
    CombinationSet,
    HierSet,
    LevelRule,
    build_combination_set,
    build_hier_set,
    lambda_eff,
    lemma1_oracle,
    lemma3_oracle,
    sparse_dimension,
)
from .tensorops import (
    CoefficientTensor,
    GridSample,
    error_norm,
    function_norm,
    project_tensor,
    sample,
    to_coefficients,
)
from .spaces import (
    HierFunction,
    SparseGridFunction,
    combination_project,
    equivalence_report,
    hier_basis,
    lemma8_residual,
    sparse_rayleigh,
    telescopic_residual,
)
from .geometry import (
    GeometryMap,
    PullbackFunction,
    builtin_geometry,
    load_geometry,
    mapped_rayleigh,
    pullback_error_norm,
    save_geometry,
)
from .studies import StudyConfig, StudyReport, fit_rate, run_study
from . import functions

__all__ = [name for name in dir() if not name.startswith("_")]

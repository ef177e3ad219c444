"""Sparse-grid tensor products of maximally smooth B-splines.

Univariate spline spaces on dyadic meshes, anisotropic tensor products and
their seminorm-orthogonal projections, sparse-grid spaces built by the
combination technique or by hierarchical increments, B-spline geometry maps,
and a study runner that verifies dimension counts, identities, convergence
rates, and inverse inequalities at desk scale.

The package exports the names the README's library tour uses; everything
else is imported from its submodule.
"""

import os

# numpy and scipy each bundle an OpenBLAS with its own pool of worker
# threads.  The study rows run one at a time, so these two pools are the
# program's only parallelism, yet on a 2-CPU host they still take the cores
# from each other: after every call the workers of each busy-wait for 2**28
# cycles (OpenBLAS's default THREAD_TIMEOUT, about 0.1 s) before they sleep.
# A spin of 2**4 cycles takes the benchmark's `refine-1d` workload (`study
# run` of `inverse-inequality variant=sparse d=1 n=6..8`) from a median of
# 1.43 s wall and 2.62 s CPU to 0.79 s and 0.88 s (3 runs each on 2 CPUs,
# OpenBLAS 0.3.31), with the same CSV bytes.  The setting moves no number:
# thread counts and OpenBLAS's work partitioning stay as they are.  OpenBLAS
# reads it once, when it loads, so this must run before numpy is imported;
# a value already in the environment is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import functions  # noqa: E402
from .bspline import make_space  # noqa: E402
from .geometry import (  # noqa: E402
    PullbackFunction,
    builtin_geometry,
    pullback_error_norm,
)
from .indices import LevelRule, sparse_dimension  # noqa: E402
from .quadrature import project_1d  # noqa: E402
from .spaces import combination_error, combination_project  # noqa: E402
from .tensorops import error_norm  # noqa: E402

__all__ = [
    "LevelRule",
    "PullbackFunction",
    "builtin_geometry",
    "combination_error",
    "combination_project",
    "error_norm",
    "functions",
    "make_space",
    "project_1d",
    "pullback_error_norm",
    "sparse_dimension",
]

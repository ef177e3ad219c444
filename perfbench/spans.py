"""Outside-in span tracing of sgsplines, installed from the benchmark's code.

`Tracer.install()` replaces the traced functions in every sgsplines module
namespace that holds them (``studies.combination_project`` as well as
``spaces.combination_project``), a few class methods, the ``scipy.linalg`` and
``numpy.linalg`` attributes the program calls, and ``studies.ThreadPoolExecutor``
(a subclass that carries the submitting span into the worker, because
executors do not copy ``contextvars``).  Spans stay in memory until `write()`.

A span is ``[name, start, end, thread, parent, attrs]``; ``parent`` is the
index of the enclosing span, or -1.  `summarize()` turns the spans of the
traced processes of one workload into the per-layer metrics.
"""

import contextvars
import functools
import json
import math
import threading
import time

# span name -> traced callables, as (module, attribute) under sgsplines or as
# (module, class, method).  The span name is the metric prefix; several
# callables may share one.
FUNCTIONS = {
    "bspline.collocation_matrix": [("bspline", "collocation_matrix")],
    "bspline.refine": [("bspline", "refinement_operator"),
                       ("bspline", "prolongation")],
    "bspline.vanishing_subspace": [("bspline", "vanishing_subspace")],
    "quadrature.projection_matrices": [("quadrature", "projection_matrices")],
    "quadrature.gram_matrix": [("quadrature", "gram_matrix")],
    "quadrature.project_1d": [("quadrature", "project_1d")],
    "indices": [("indices", "build_combination_set"),
                ("indices", "build_hier_set"),
                ("indices", "sparse_dimension"),
                ("indices", "lemma3_oracle")],
    "functions.eval_grid": [("functions", "SumOfSeparable", "eval_grid")],
    "tensorops.sample": [("tensorops", "sample")],
    "tensorops.project_direction": [("tensorops", "project_direction")],
    "tensorops.to_coefficients": [("tensorops", "to_coefficients")],
    # the tensor kernel and the sparse-grid sum over its terms
    "tensorops.deriv_grid": [("tensorops", "CoefficientTensor", "deriv_grid"),
                             ("spaces", "SparseGridFunction", "deriv_grid")],
    "tensorops.error_norm": [("tensorops", "error_norm")],
    "tensorops.function_norm": [("tensorops", "function_norm")],
    "spaces.combination_project": [("spaces", "combination_project")],
    "spaces.stacked_sparse_basis": [("spaces", "stacked_sparse_basis")],
    "spaces.sparse_rayleigh": [("spaces", "sparse_rayleigh")],
    "spaces.equivalence_report": [("spaces", "equivalence_report")],
    "spaces.dimension_rank": [("spaces", "dimension_rank")],
    "spaces.hier_basis": [("spaces", "hier_basis")],
    "geometry.grid_eval": [("geometry", "GeometryMap", "eval_grid"),
                           ("geometry", "GeometryMap", "jacobian_grid")],
    "geometry.pullback_error_norm": [("geometry", "pullback_error_norm")],
    "geometry.mapped_rayleigh": [("geometry", "mapped_rayleigh")],
    "studies.run_study": [("studies", "run_study")],
}

# span name -> solver attributes, as (library module, attribute)
LINALG = {
    "linalg.eigh": [("scipy.linalg", "eigh")],
    "linalg.svd": [("scipy.linalg", "svd"), ("numpy.linalg", "matrix_rank")],
    "linalg.lstsq": [("scipy.linalg", "lstsq")],
    "linalg.cholesky": [("scipy.linalg", "cho_factor"),
                        ("scipy.linalg", "cho_solve")],
    "linalg.solve": [("scipy.linalg", "solve"), ("numpy.linalg", "solve")],
    "linalg.qr": [("scipy.linalg", "qr"), ("numpy.linalg", "qr")],
    "linalg.null_space": [("scipy.linalg", "null_space")],
    "linalg.det_inv": [("numpy.linalg", "det"), ("numpy.linalg", "inv")],
}

MODULES = ("bspline", "quadrature", "indices", "functions", "tensorops",
           "spaces", "geometry", "studies", "cli")


def _grid_points(axes):
    return math.prod(len(ax) for ax in axes)


def _mapped_grid(args, kwargs):
    rule = args[0]
    qpts = kwargs.get("qpts") or (args[3] if len(args) > 3 else None)
    return {"grid": (2 ** rule.n * (qpts or rule.p + 3)) ** rule.d,
            "d": rule.d}


# span name -> attrs(args, kwargs, result): counts computed from argument and
# result shapes, not measured
ATTRS = {
    "indices": lambda a, k, r: (
        {"levels": len(r.levels)} if hasattr(r, "coefficient_sum") else None),
    "functions.eval_grid": lambda a, k, r: {"points": r.size},
    "tensorops.sample": lambda a, k, r: {"points": _grid_points(r.axes)},
    "tensorops.deriv_grid": lambda a, k, r: {"points": _grid_points(a[1])},
    "spaces.combination_project": lambda a, k, r: {"terms": len(r.terms)},
    "spaces.stacked_sparse_basis": lambda a, k, r: {"size": r.size},
    "geometry.mapped_rayleigh": lambda a, k, r: _mapped_grid(a, k),
    "linalg.eigh": lambda a, k, r: {"order": a[0].shape[0]},
}

# lru caches whose statistics are reported, as (module, attribute)
CACHES = {
    "refine": ("bspline", "_refinement_matrix"),
    "projection_matrices": ("quadrature", "projection_matrices"),
    "gram_matrix": ("quadrature", "_gram_cached"),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._caches = {}

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records a span."""
        current = self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.monotonic(), 0.0, threading.get_ident(),
                   current.get(), None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(rec)
            token = current.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                current.reset(token)
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch sgsplines, the solvers it calls and its thread pool."""
        import importlib

        modules = {m: importlib.import_module(f"sgsplines.{m}") for m in MODULES}
        namespaces = list(modules.values()) + [importlib.import_module("sgsplines")]
        self._caches = {key: getattr(modules[m], attr)
                        for key, (m, attr) in CACHES.items()}
        for name, targets in FUNCTIONS.items():
            for target in targets:
                owner = modules[target[0]]
                if len(target) == 3:
                    cls = getattr(owner, target[1])
                    setattr(cls, target[2],
                            self.wrap(name, getattr(cls, target[2]), ATTRS.get(name)))
                    continue
                orig = getattr(owner, target[1])
                traced = self.wrap(name, orig, ATTRS.get(name))
                for ns in namespaces:
                    if getattr(ns, target[1], None) is orig:
                        setattr(ns, target[1], traced)
        for name, targets in LINALG.items():
            for lib, attr in targets:
                owner = importlib.import_module(lib)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                               ATTRS.get(name)))
        studies = modules["studies"]
        studies.ThreadPoolExecutor = self._executor(studies.ThreadPoolExecutor)

    def _executor(self, base):
        tracer = self

        class TracedExecutor(base):
            """Runs each task as a ``studies.task`` span under the span that
            submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                ctx = contextvars.copy_context()
                return super().submit(ctx.run, tracer.wrap("studies.task", fn),
                                      *args, **kwargs)

        return TracedExecutor

    def write(self, path, **extra):
        caches = {}
        for key, fn in self._caches.items():
            info = fn.cache_info()
            caches[key] = [info.hits, info.misses]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "caches": caches,
                       "main_thread": threading.main_thread().ident, **extra}, fh)


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Per-span self time: duration minus the part covered by child spans on
    the same thread.  Spans started from another thread (pool tasks) are
    not subtracted from their parent."""
    children = [[] for _ in spans]
    for s in spans:
        parent = s[4]
        if parent >= 0 and spans[parent][3] == s[3]:
            children[parent].append((s[1], s[2]))
    return [s[2] - s[1] - _union_length(children[i])
            for i, s in enumerate(spans)]


def thread_busy(spans):
    """Per thread: length of the union of its top-level span intervals, i.e.
    of spans whose parent is absent or on another thread."""
    tops = {}
    for s in spans:
        parent = s[4]
        if parent < 0 or spans[parent][3] != s[3]:
            tops.setdefault(s[3], []).append((s[1], s[2]))
    return {t: _union_length(iv) for t, iv in tops.items()}


# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "bspline.collocation_matrix.calls": "count",
    "bspline.collocation_matrix.self_s": "s",
    "bspline.refine.self_s": "s",
    "bspline.refine.cache_misses": "count",
    "bspline.refine.cache_hit_ratio": "ratio",
    "bspline.vanishing_subspace.self_s": "s",
    "quadrature.projection_matrices.calls": "count",
    "quadrature.projection_matrices.self_s": "s",
    "quadrature.projection_matrices.cache_hit_ratio": "ratio",
    "quadrature.gram_matrix.self_s": "s",
    "quadrature.gram_matrix.cache_hit_ratio": "ratio",
    "quadrature.project_1d.self_s": "s",
    "indices.self_s": "s",
    "indices.combination_levels": "count",
    "functions.eval_grid.self_s": "s",
    "functions.eval_grid.points": "count",
    "tensorops.sample.self_s": "s",
    "tensorops.sample.points": "count",
    "tensorops.project_direction.calls": "count",
    "tensorops.project_direction.self_s": "s",
    "tensorops.to_coefficients.self_s": "s",
    "tensorops.deriv_grid.calls": "count",
    "tensorops.deriv_grid.self_s": "s",
    "tensorops.deriv_grid.points": "count",
    "tensorops.deriv_grid.bytes_computed": "bytes",
    "tensorops.error_norm.calls": "count",
    "tensorops.error_norm.self_s": "s",
    "tensorops.function_norm.self_s": "s",
    "spaces.combination_project.self_s": "s",
    "spaces.combination_project.terms": "count",
    "spaces.stacked_sparse_basis.self_s": "s",
    "spaces.stacked_sparse_basis.max_size": "count",
    "spaces.sparse_rayleigh.self_s": "s",
    "spaces.equivalence_report.self_s": "s",
    "spaces.dimension_rank.self_s": "s",
    "spaces.hier_basis.self_s": "s",
    "geometry.grid_eval.self_s": "s",
    "geometry.pullback_error_norm.self_s": "s",
    "geometry.mapped_rayleigh.self_s": "s",
    "geometry.mapped_rayleigh.dense_bytes": "bytes",
    "linalg.eigh.calls": "count",
    "linalg.eigh.self_s": "s",
    "linalg.eigh.max_order": "count",
    "linalg.svd.self_s": "s",
    "linalg.lstsq.self_s": "s",
    "linalg.cholesky.self_s": "s",
    "linalg.solve.self_s": "s",
    "linalg.qr.self_s": "s",
    "linalg.null_space.self_s": "s",
    "linalg.det_inv.self_s": "s",
    "studies.run_study.s": "s",
    "studies.task.calls": "count",
    "studies.task.busy_s": "s",
    "studies.pool_utilization": "ratio",
    "studies.trace_overhead_s": "s",
}


def summarize(traces, workers):
    """Per-layer metrics (without ``studies.trace_overhead_s``) from the
    span files of one traced round; ``workers`` is the study pool size."""
    calls, self_s, wall, attr = {}, {}, {}, {}
    hits, misses = {}, {}
    max_size = max_order = 0
    dense_bytes = 0
    for tr in traces:
        spans = tr["spans"]
        own = self_times(spans)
        for i, (name, start, end, _, parent, attrs) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            wall[name] = wall.get(name, 0.0) + end - start
            for key, val in (attrs or {}).items():
                attr[name, key] = attr.get((name, key), 0) + val
            if name == "spaces.stacked_sparse_basis":
                max_size = max(max_size, attrs["size"])
                if parent >= 0 and spans[parent][0] == "geometry.mapped_rayleigh":
                    grid = spans[parent][5]
                    dense_bytes += grid["grid"] * attrs["size"] * 8 * (grid["d"] + 1)
            elif name == "linalg.eigh":
                max_order = max(max_order, attrs["order"])
        for key, (h, m) in tr["caches"].items():
            hits[key] = hits.get(key, 0) + h
            misses[key] = misses.get(key, 0) + m

    def ratio(key):
        total = hits.get(key, 0) + misses.get(key, 0)
        return hits.get(key, 0) / total if total else 0.0

    out = {}
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = self_s.get(name, 0.0)
        elif field == "calls":
            out[metric] = calls.get(name, 0)
        elif field in ("points", "terms"):
            out[metric] = attr.get((name, field), 0)
    out["bspline.refine.cache_misses"] = misses.get("refine", 0)
    out["bspline.refine.cache_hit_ratio"] = ratio("refine")
    out["quadrature.projection_matrices.cache_hit_ratio"] = ratio("projection_matrices")
    out["quadrature.gram_matrix.cache_hit_ratio"] = ratio("gram_matrix")
    out["indices.combination_levels"] = attr.get(("indices", "levels"), 0)
    out["tensorops.deriv_grid.bytes_computed"] = 8 * out["tensorops.deriv_grid.points"]
    out["spaces.stacked_sparse_basis.max_size"] = max_size
    out["geometry.mapped_rayleigh.dense_bytes"] = dense_bytes
    out["linalg.eigh.max_order"] = max_order
    out["studies.run_study.s"] = wall.get("studies.run_study", 0.0)
    out["studies.task.busy_s"] = wall.get("studies.task", 0.0)
    study_wall = out["studies.run_study.s"]
    out["studies.pool_utilization"] = (
        out["studies.task.busy_s"] / (study_wall * workers) if study_wall else 0.0)
    return out

"""Configuration-driven verification studies with CSV reports.

Each study emits rows (one per parameter combination, plus rate-fit summary
rows) with a fixed column set: kind, d, p, n, level, r, q, value, bound,
ratio, pass, source, seconds.  The source column tags the estimate a bound
check instantiates (L2, L6, L10, L12, T1, T2, T3, P1; identity rows use L1,
L3, L4).  Reports are deterministic for a given config; the ``seed`` key is
accepted and unused, because no study kind makes random draws (the benchmark
sets it).  Per-row timing is written only when `timing=on` so default CSV
output is byte-identical across runs.

`_KINDS`, at the end of this module, is the one place where a study kind is
declared: its note, its runner and the defaults of every key it reads.
`validate_config` refuses any other key that is set away from its default.
"""

from __future__ import annotations

import os
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import product
from math import comb

import numpy as np

from . import functions as fn
from .bspline import make_space
from .geometry import (
    PullbackFunction,
    builtin_geometry,
    load_geometry,
    mapped_rayleigh,
    pullback_error_norm,
)
from .indices import (
    LevelRule,
    build_combination_set,
    c1,
    c2,
    c10,
    c11,
    lambda_eff,
    layer_cardinality,
    lemma1_deviation,
    lemma3_oracle,
    sparse_dimension,
)
from .quadrature import MAX_GAUSS_POINTS, project_1d
from .spaces import (
    combination_error,
    combination_project,
    dimension_rank,
    equivalence_report,
    sparse_rayleigh,
)
from .tensorops import CoefficientTensor, error_norm, function_norm

CSV_COLUMNS = ("kind", "d", "p", "n", "level", "r", "q", "value", "bound",
               "ratio", "pass", "source", "seconds")


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent study configurations."""


@dataclass(frozen=True)
class StudyConfig:
    """One study; the field order is the key order of `study gen-config`."""

    kind: str
    d: int = 2
    p: tuple = (1,)
    n: tuple = ()
    d_max: int = 6
    n_max: int = 12
    target: str = ""
    geometry: str = ""
    q: tuple = ()
    variant: str = ""
    rank_max: int = 5
    r: int = 0
    out: str = ""
    seed: int = 0
    timing: str = "off"


def _parse_ints(text):
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(","))


def default_config(kind):
    if kind not in KINDS:
        raise ConfigError(f"unknown study kind '{kind}'; known: {', '.join(KINDS)}")
    return StudyConfig(kind=kind, **_KINDS[kind].defaults)


# each key is parsed by the type of its StudyConfig default
_PARSERS = {tuple: _parse_ints, int: int, str: str}


def parse_config(path, overrides=()):
    """Read a flat key=value config file, in which each key appears once,
    and apply --set overrides, which replace the file's values.

    Only the syntax and the value types are checked here; `run_study`
    validates the config as a whole.
    """
    kv = {}  # key -> (value, where it was set)
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, "
                                      f"got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in kv:
                    raise ConfigError(f"{path}:{lineno}: key '{key}' repeats "
                                      f"{kv[key][1]}")
                kv[key] = (value, f"{path}:{lineno}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        kv[key.strip()] = (value.strip(), "--set")
    if "kind" not in kv:
        raise ConfigError(f"{path}: missing required key 'kind'")
    cfg = default_config(kv.pop("kind")[0])
    parsers = {f.name: _PARSERS[type(f.default)] for f in fields(StudyConfig)
               if f.name != "kind"}
    for key, (value, where) in kv.items():
        if key not in parsers:
            raise ConfigError(f"{where}: unknown config key '{key}'")
        try:
            cfg = replace(cfg, **{key: parsers[key](value)})
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for '{key}': {value!r}") from exc
    return cfg


# The largest peak memory a study may plan for: half of the 8 GB host the
# project targets, the rest left to the interpreter and the system.
MEMORY_BUDGET = 4 * 2 ** 30

# Peak memory of an `identities` run per cached level: 600 to 740 bytes
# were measured (peak RSS less the 58 MB of the bare interpreter, Python
# 3.11) from d_max=6 n_max=12 up to d_max=9 n_max=15 (1561 MB at the
# default degrees) and d_max=10 n_max=12.
_IDENTITIES_BYTES_PER_LEVEL = 800


def identities_peak_bytes(cfg):
    """Estimated peak memory of an `identities` study, from closed forms
    only.  Its combination sets of every d <= d_max and n <= n_max stay
    cached, one family per degree; they hold about as many levels as the
    hierarchy set at d_max and n_max, C(n_max - lam + d_max, d_max)."""
    return _IDENTITIES_BYTES_PER_LEVEL * sum(
        comb(cfg.n_max - lambda_eff(p) + cfg.d_max, cfg.d_max) for p in cfg.p)


def validate_config(cfg):
    """Raise `ConfigError` for an inconsistent config; return the study's
    target function and the geometry of a mapped study (None for the kinds
    without one), which the runner then uses."""
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown study kind '{cfg.kind}'")
    # besides its own keys, every kind takes kind, out, seed and timing
    defaults = _KINDS[cfg.kind].defaults
    stray = [f.name for f in fields(cfg) if getattr(cfg, f.name) != f.default
             and f.name not in (*defaults, "kind", "out", "seed", "timing")]
    if stray:
        raise ConfigError(f"{cfg.kind} does not read {', '.join(map(repr, stray))}"
                          f"; its keys are {', '.join(defaults)}, out, seed "
                          f"and timing")
    if cfg.kind == "univariate-convergence" and cfg.d != 1:
        raise ConfigError(f"univariate-convergence is one-dimensional: key "
                          f"'d' must be 1, got {cfg.d}")
    for key, default in defaults.items():
        values = getattr(cfg, key)
        if isinstance(default, tuple) and not values:
            raise ConfigError(f"key '{key}' lists no values; a range lo..hi "
                              f"needs lo <= hi")
        if isinstance(default, tuple) and len(set(values)) != len(values):
            raise ConfigError(f"key '{key}' repeats a value in {values}")
    if "d_max" in defaults and cfg.d_max < 2:
        raise ConfigError(f"key 'd_max' is {cfg.d_max}, but the L3 and L4 rows "
                          f"check d = 2..d_max, so it must be at least 2")
    if cfg.timing not in ("on", "off"):
        raise ConfigError("timing must be 'on' or 'off'")
    if cfg.d < 1:
        raise ConfigError(f"dimension d must be at least 1, got {cfg.d}")
    if cfg.kind == "sparse-convergence" and cfg.d == 1:
        raise ConfigError("sparse-convergence needs d >= 2, or its bound is 0; "
                          "at d=1 run univariate-convergence")
    if cfg.r < 0 or any(q < 0 for q in cfg.q):
        raise ConfigError("derivative orders r and q must be nonnegative")
    mapped = cfg.kind == "mapped-convergence" or (
        cfg.kind == "inverse-inequality" and cfg.variant == "mapped")
    fits_rate = mapped or cfg.kind in ("univariate-convergence",
                                       "sparse-convergence")
    # Gauss points per cell: the projections and norms take p + 3, the
    # Gram matrices of the pencils p + 1
    extra = 3 if fits_rate else 1 if cfg.kind == "inverse-inequality" else None
    for p in cfg.p:
        if p < 0:
            raise ConfigError("degrees must be nonnegative")
        if extra is not None and p + extra > MAX_GAUSS_POINTS:
            raise ConfigError(f"degree {p} needs a {p + extra}-point Gauss rule, "
                              f"above the limit of {MAX_GAUSS_POINTS} points")
        lam = lambda_eff(p)
        if cfg.kind in ("sparse-convergence", "mapped-convergence",
                        "equivalence", "dimensions", "inverse-inequality"):
            low = [n for n in cfg.n if n < lam]
            if low:
                raise ConfigError(f"levels {low} below the admissible minimum "
                                  f"{lam} for degree {p}")
        if "n_max" in defaults and cfg.n_max < lam:
            raise ConfigError(f"key 'n_max' is {cfg.n_max}, below the minimum "
                              f"level {lam} of degree {p}, so its L3 and L4 "
                              f"rows would check no level")
        kept = [n for n in cfg.n if n >= lam]
        if fits_rate and len(kept) < 2:
            raise ConfigError(f"a rate fit needs at least two distinct levels "
                              f">= {lam} for degree {p}, got {kept}")
        if cfg.r > p:
            raise ConfigError(f"projection order r={cfg.r} exceeds degree {p}")
        for q in cfg.q:
            if q > p:
                raise ConfigError(f"inverse inequality needs q <= p, "
                                  f"got q={q}, p={p}")
    if cfg.kind == "identities":
        need = identities_peak_bytes(cfg)
        if need > MEMORY_BUDGET:
            raise ConfigError(f"identities with 'd_max' {cfg.d_max} and 'n_max' "
                              f"{cfg.n_max} would hold an estimated "
                              f"{need / 2 ** 30:.1f} GiB of level sets, above "
                              f"the budget of {MEMORY_BUDGET / 2 ** 30:.0f} GiB")
    if any(q < 1 for q in cfg.q):
        raise ConfigError("inverse inequality needs q >= 1: at q=0 it bounds "
                          "the L2 norm by itself")
    if cfg.kind == "inverse-inequality":
        if cfg.variant not in ("univariate", "sparse", "mapped"):
            raise ConfigError("variant must be univariate, sparse, or mapped")
        if cfg.variant == "mapped" and set(cfg.q) != {1}:
            raise ConfigError("the mapped variant measures the first-order "
                              "physical seminorm; set q=1")
    f = geom = None
    try:
        if cfg.kind in ("univariate-convergence", "sparse-convergence",
                        "mapped-convergence"):
            f = fn.target_function(cfg.target, cfg.d)
        if mapped:
            name = cfg.geometry or "distorted-square"
            geom = (load_geometry(name) if os.path.exists(name)
                    else builtin_geometry(name))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if geom is not None and geom.d != cfg.d:
        raise ConfigError(f"the geometry is {geom.d}-dimensional, but d={cfg.d}")
    return f, geom


@dataclass(frozen=True)
class Row:
    kind: str
    d: int
    p: object
    n: object
    level: str = ""
    r: object = ""
    q: object = ""
    value: float = None
    bound: float = None
    ratio: float = None
    passed: bool = True
    source: str = ""
    seconds: float = 0.0

    def csv_cells(self):
        def num(x):
            if x is None or x == "":
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            if isinstance(x, (int, np.integer)):
                return str(int(x))
            return f"{float(x):.12g}"

        return (self.kind, num(self.d), num(self.p), num(self.n), self.level,
                num(self.r), num(self.q), num(self.value), num(self.bound),
                num(self.ratio), "true" if self.passed else "false",
                self.source, f"{self.seconds:.3f}")


@dataclass
class StudyReport:
    config: StudyConfig
    rows: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(row.csv_cells()) + "\n")

    def summary_lines(self):
        out = []
        for row in self.rows:
            status = "pass" if row.passed else "FAIL"
            val = "" if row.value is None else f" value={row.value:.6g}"
            bnd = "" if row.bound is None else f" bound={row.bound:.6g}"
            out.append(f"[{status}] {row.kind} {row.source} d={row.d} "
                       f"p={row.p} n={row.n} level={row.level} r={row.r} "
                       f"q={row.q}{val}{bnd}")
        n_fail = sum(not r.passed for r in self.rows)
        out.append(f"{len(self.rows)} rows, {n_fail} failing")
        return out


def fit_rate(pairs, log_power=0):
    """Least-squares slope of log(error / |log h|^log_power) against log h.

    Needs at least two pairs with strictly decreasing h and positive errors.
    """
    if len(pairs) < 2:
        raise ValueError("rate fit needs at least two (h, error) pairs")
    h = np.array([a for a, _ in pairs], dtype=float)
    e = np.array([b for _, b in pairs], dtype=float)
    if np.any(np.diff(h) >= 0):
        raise ValueError("mesh sizes must be strictly decreasing")
    if np.any(e <= 0):
        raise ValueError("errors must be positive for a log fit")
    y = np.log(e) - log_power * np.log(np.abs(np.log(h)))
    return float(np.polyfit(np.log(h), y, 1)[0])


def _run_tasks(tasks, timing):
    """Run row-producing callables one after another on one worker thread,
    so that OpenBLAS's threads are the program's only parallelism.  The
    benchmark's tracer (`perfbench/spans.py`) times each task through this
    module's `ThreadPoolExecutor`."""

    def timed(task):
        t0 = time.perf_counter()
        rows = task()
        dt = time.perf_counter() - t0
        if timing == "on":
            rows = [replace(r, seconds=dt / max(1, len(rows))) for r in rows]
        return rows

    with ThreadPoolExecutor(max_workers=1) as pool:
        chunks = list(pool.map(timed, tasks))
    return [row for chunk in chunks for row in chunk]


def _numkey(v):
    if isinstance(v, (int, float, np.integer, np.floating)):
        return (0, float(v), "")
    return (1, 0.0, str(v))


def _sorted_rows(rows):
    def key(row):
        return (row.kind, str(row.source), _numkey(row.d), _numkey(row.p),
                _numkey(row.n), row.level, _numkey(row.r), _numkey(row.q))

    return sorted(rows, key=key)


# ---------------------------------------------------------------------------
# study kinds


def _grid(cfg, row, *axes):
    """The rows of ``row(*args)`` for every combination of the axes, one task
    per combination, all in one batch."""
    return _run_tasks([partial(row, *args) for args in product(*axes)],
                      cfg.timing)


# errors below this multiple of the target's L2 norm are roundoff
_ROUNDOFF_FLOOR = 1e3 * np.finfo(float).eps


def _fitted(cfg, groups, row, fit, floor=0.0):
    """For each group (a degree, or a degree and an order q), the rows of
    ``row(*group, n)`` over the levels n, run as one batch, then the fit row
    ``fit(*group, pairs)`` of their (h, value) pairs with h decreasing.

    Levels whose value lies below ``floor`` are left out of the fit, because
    a rate fitted to roundoff means nothing.  When fewer than two levels are
    left, the target is reproduced to roundoff: the group ends with a passing
    ``exact`` row holding the finest level's value against the floor.
    """
    out = []
    for group in groups:
        # levels with h*p >= 1 fall outside the estimates' hypothesis
        levels = [n for n in cfg.n if n >= lambda_eff(group[0])]
        rows = _grid(cfg, row, *([g] for g in group), levels)
        pairs = sorted(((2.0 ** -x.n, x.value) for x in rows
                        if x.value >= floor), reverse=True)
        if len(pairs) >= 2:
            out += rows + [fit(*group, pairs)]
        else:
            finest = max(rows, key=lambda x: x.n)
            out += rows + [replace(finest, n="", level="exact", bound=floor,
                                   ratio=finest.value / floor, passed=True,
                                   seconds=0.0)]
    return out


def _study_identities(cfg, f, geom):
    def lemma1(d):
        dev = lemma1_deviation(d)
        return [Row(cfg.kind, d, "", "", value=dev, bound=0, passed=dev == 0,
                    source="L1")]

    def lemmas3_4(d, p):
        lam = lambda_eff(p)
        dev3 = 0
        dev4 = 0
        devcard = 0
        for n in range(lam, cfg.n_max + 1):
            for ell in range(0, n + 1):
                for k in range(0, d):
                    want = 1 if k == 0 else 0
                    dev3 = max(dev3, abs(lemma3_oracle(d, n, p, ell, k) - want))
            cs = build_combination_set(d, n, p)
            dev4 = max(dev4, abs(cs.coefficient_sum() - 1))
            for l, layer in enumerate(cs.layers):
                devcard = max(devcard, abs(len(layer)
                                           - layer_cardinality(d, n, p, l)))
        return [
            Row(cfg.kind, d, p, cfg.n_max, value=dev3, bound=0,
                passed=dev3 == 0, source="L3"),
            Row(cfg.kind, d, p, cfg.n_max, value=dev4, bound=0,
                passed=dev4 == 0, source="L4"),
            Row(cfg.kind, d, p, cfg.n_max, level="layer-count",
                value=devcard, bound=0, passed=devcard == 0, source="L4"),
        ]

    return (_grid(cfg, lemma1, range(2, max(cfg.d_max, 8) + 1))
            + _grid(cfg, lemmas3_4, range(2, cfg.d_max + 1), cfg.p))


def _study_dimensions(cfg, f, geom):
    d = cfg.d

    def row(p, n):
        sparse, full = sparse_dimension(d, n, p)
        ok = True
        lvl = ""
        if n <= cfg.rank_max:
            rank = dimension_rank(LevelRule(d, n, p))
            ok = rank == sparse
            lvl = f"rank {rank}"
        return [Row(cfg.kind, d, p, n, level=lvl, value=sparse, bound=full,
                    ratio=sparse / full, passed=ok, source="P1")]

    return _grid(cfg, row, cfg.p, cfg.n)


def _study_univariate(cfg, f, geom):
    r = cfg.r
    seminorms = {p: function_norm(f, 1, "semi", p + 1) for p in cfg.p}
    for p, seminorm in seminorms.items():
        if seminorm == 0:
            raise ConfigError(f"target '{cfg.target}' has a zero H^{p + 1} "
                              f"seminorm, so the bound for degree {p} is 0 "
                              f"and no rate can be fitted")

    def row(p, n):
        q = p + 1
        space = make_space(p, n)
        u = CoefficientTensor((n,), p, project_1d(space, f, r))
        err = error_norm(f, u, "semi", r)
        bound = c1(q, r) * space.h ** (q - r) * seminorms[p]
        # an empty r column reads as the L2 error, which keeps the r=0 bytes
        return [Row(cfg.kind, 1, p, n, r=r if r >= 1 else "", value=err,
                    bound=bound, ratio=err / bound, passed=err <= bound,
                    source="L2")]

    def fit(p, pairs):
        order = fit_rate(pairs, log_power=0)
        target = p + 1 - r
        return Row(cfg.kind, 1, p, "", level="fit", r=r, value=order,
                   bound=target, passed=abs(order - target) <= 0.1, source="L2")

    floor = _ROUNDOFF_FLOOR * function_norm(f, 1, "semi", r)
    return _fitted(cfg, [(p,) for p in cfg.p], row, fit, floor)


def _study_sparse(cfg, f, geom):
    d = cfg.d
    mixnorms = {p: function_norm(f, d, "mix", p + 1) for p in cfg.p}

    def row(p, n):
        q = p + 1
        err = combination_error(f, LevelRule(d, n, p))
        h = 2.0 ** -n
        bound = c10(d, q, 0) * h ** q * abs(np.log(h)) ** (d - 1) * mixnorms[p]
        return [Row(cfg.kind, d, p, n, value=err, bound=bound,
                    ratio=err / bound, passed=err <= bound, source="L6")]

    def fit(p, pairs):
        order = fit_rate(pairs, log_power=d - 1)
        return Row(cfg.kind, d, p, "", level="fit", value=order,
                   bound=p + 1 - 0.15, passed=order >= p + 1 - 0.15, source="L6")

    floor = _ROUNDOFF_FLOOR * function_norm(f, d, "semi", 0)
    return _fitted(cfg, [(p,) for p in cfg.p], row, fit, floor)


def _study_mapped(cfg, f_phys, geom):
    d = cfg.d
    pull = PullbackFunction(f_phys, geom)

    def row(p, n):
        sg = combination_project(pull, LevelRule(d, n, p))
        err = pullback_error_norm(f_phys, sg, geom)
        return [Row(cfg.kind, d, p, n, value=err, source="T1")]

    def fit(p, pairs):
        order = fit_rate(pairs, log_power=d - 1)
        return Row(cfg.kind, d, p, "", level="fit", value=order,
                   bound=p + 1 - 0.2, passed=order >= p + 1 - 0.2, source="T1")

    floor = _ROUNDOFF_FLOOR * function_norm(f_phys, d, "semi", 0)
    return _fitted(cfg, [(p,) for p in cfg.p], row, fit, floor)


def _study_equivalence(cfg, f, geom):
    d = cfg.d

    def row(p, n):
        rep = equivalence_report(LevelRule(d, n, p))
        formula = sparse_dimension(d, n, p)[0]
        dims_ok = rep["dim_L"] == rep["dim_H"] == formula
        res = rep["cross_residual_max"]
        return [
            Row(cfg.kind, d, p, n, level="dims", value=rep["dim_L"],
                bound=rep["dim_H"], passed=dims_ok, source="T2"),
            Row(cfg.kind, d, p, n, level="residual", value=res, bound=1e-9,
                ratio=res / 1e-9, passed=res < 1e-9, source="T2"),
        ]

    return _grid(cfg, row, cfg.p, cfg.n)


def _study_inverse(cfg, f, geom):
    if cfg.variant == "mapped":
        return _study_inverse_mapped(cfg, f, geom)
    # the univariate pencil is the d = 1 sparse pencil of the q-th seminorm
    if cfg.variant == "univariate":
        d, mode, source = 1, "mix-semi", "L12"
    else:
        d, mode, source = cfg.d, "mix", "L10"

    def row(p, q, n):
        val = sparse_rayleigh(LevelRule(d, n, p), q, mode)
        h = 2.0 ** -n
        if source == "L12":
            b = c2(q) * h ** -q
        else:
            b = c11(d, q) * h ** -q * abs(np.log(h)) ** (d / 2)
        return [Row(cfg.kind, d, p, n, q=q, value=val, bound=b, ratio=val / b,
                    passed=val <= b, source=source)]

    return _grid(cfg, row, cfg.p, cfg.q, cfg.n)


def _study_inverse_mapped(cfg, f, geom):
    d = cfg.d

    def row(p, q, n):
        val = mapped_rayleigh(LevelRule(d, n, p), q, geom)
        return [Row(cfg.kind, d, p, n, q=q, value=val, source="T3")]

    def fit(p, q, pairs):
        # growth no faster than h^-q |log h|^{d/2}: the fitted exponent of the
        # quotients against that envelope stays at most one
        hs, vals = np.array(pairs).T
        envelope = hs ** -float(q) * np.abs(np.log(hs)) ** (d / 2)
        slope = float(np.polyfit(np.log(envelope), np.log(vals), 1)[0])
        return Row(cfg.kind, d, p, "", level="fit", q=q, value=slope,
                   bound=1.05, passed=slope <= 1.05, source="T3")

    return _fitted(cfg, product(cfg.p, cfg.q), row, fit)


_Kind = namedtuple("_Kind", "note run defaults")

# The one place where a study kind is declared: the note printed by `study
# list-kinds` and atop its `study gen-config` template, the runner (called
# with the config and the target and geometry that `validate_config`
# resolved), and the defaults of every key the kind reads besides kind,
# out, seed and timing; any other key must keep its StudyConfig default.
_KINDS = {
    "univariate-convergence": _Kind(
        "L2 projection error vs the univariate bound", _study_univariate,
        dict(d=1, p=(1, 2, 3), n=tuple(range(3, 8)), target="sin-2pi", r=0)),
    "sparse-convergence": _Kind(
        "sparse-grid L2 error vs the log-corrected bound", _study_sparse,
        dict(d=2, p=(1, 2), n=tuple(range(3, 9)), target="sinpi-prod")),
    "mapped-convergence": _Kind(
        "pullback L2 error rate on a geometry map", _study_mapped,
        dict(d=2, p=(2,), n=tuple(range(3, 8)), target="sinpi-prod",
             geometry="distorted-square")),
    "equivalence": _Kind(
        "combination vs hierarchical span equality", _study_equivalence,
        dict(d=2, p=(1, 2), n=tuple(range(2, 6)))),
    "identities": _Kind(
        "exact combinatorial identities of the level sets", _study_identities,
        dict(p=(1, 2, 3, 4), d_max=6, n_max=12)),
    "inverse-inequality": _Kind(
        "Rayleigh-quotient pencils vs inverse-inequality bounds", _study_inverse,
        dict(d=2, p=(2, 3), q=(1, 2), n=(3, 4, 5, 6), variant="univariate",
             geometry="distorted-square")),
    "dimensions": _Kind(
        "sparse and full dimension counts", _study_dimensions,
        dict(d=2, p=(1,), n=tuple(range(3, 11)), rank_max=5)),
}

KINDS = tuple(_KINDS)


def run_study(cfg):
    """Validate a config, execute its study and return the report.

    The report is deterministic given the config.  ``seed`` is accepted and
    unused: no study kind makes random draws; the benchmark sets it.
    """
    f, geom = validate_config(cfg)
    rows = _KINDS[cfg.kind].run(cfg, f, geom)
    report = StudyReport(cfg, _sorted_rows(rows))
    if cfg.out:
        report.to_csv(cfg.out)
    return report

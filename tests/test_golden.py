"""Golden CSVs: study configs reproduce the bytes under `tests/golden/`.

`tests/golden/<workload>/<process>.csv` holds the CSV of every default study
config (workload ``defaults``, one file per kind) and of the benchmark's
pencil and grid-norm workloads, whose overrides are restated from
`WORKLOADS` in `perfbench/run.py`.  A change that moves any printed digit of
these studies fails here; a change that moves them on purpose rewrites the
goldens and lists every changed value.

The goldens were written at OpenBLAS's default thread count on a 2-CPU host
(OpenBLAS 0.3.31, numpy 2.4.6, scipy 1.17.1), one ``study run`` process per
file, each from a config file that holds only ``kind=<kind>``, with the
overrides listed below:

    PYTHONPATH=src python -m sgsplines.cli run <cfg> --set <override> ... \\
        --set timing=off --out tests/golden/<workload>/<process>.csv

Six of them, the ``dimensions``, ``identities`` and ``inverse-inequality``
defaults and the three pencil files, are byte-identical to the benchmark's
`perfbench/reference/`.  The ``equivalence`` file differs from it in its
eight ``residual`` rows, each below 4e-13 absolute.  They were rewritten
when the check moved from least-squares fits on collocation rows to
orthogonal projections on level-n coefficient rows, and again, by the
command above, when it moved from those tensor stacks to 1D certificates
(`sgsplines.spaces.equivalence_report`): seven of them moved, each by less
than 4e-15 absolute, and the p=2, n=2 row prints 0 as before.  Its ``dims``
rows kept their bytes both times.  The norm kinds'
files differ from it in their last printed digits, and
``grid-norms/sparse-d3`` also in its ``bound``, ``ratio`` and ``pass``
columns, which the benchmark reference wrote before the d=3 ``c10`` constant
became positive.  The ``sparse-convergence`` files (``defaults`` and
``grid-norms/sparse-d2``; ``sparse-d3`` kept its bytes) were rewritten, by
the command above, when their error moved from the grid quadrature of u to
1D Smolyak differences (`sgsplines.spaces.combination_error`): eight
``value`` or ``ratio`` cells and the p=2 fit moved in the last digits
(relative 2e-12 to 8e-12), and the p=2, n=9 value by 6.3e-11.

Every golden is also checked at ``OPENBLAS_NUM_THREADS=1``: the seven
default CSVs, the three grid-norm CSVs and the three pencil CSVs.  Their
bytes do not depend on the BLAS thread count, whether a pencil's top
eigenvalue comes from the dense ``eigh`` or from Lanczos.  The
``equivalence`` residuals did while they were taken from tensor stacks of
up to 1156 rows (p=2, n=5 printed 8.16428576978e-15 at the default count
and 7.37252190023e-15 at one); the 1D certificates work on matrices of at
most 34 rows, and print the same bytes at both counts.
"""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from sgsplines.studies import KINDS, default_config, parse_config, run_study

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

# (workload, process, kind, overrides) of the benchmark's pencil workloads
PENCILS = [
    ("refine-1d", "sparse-d1", "inverse-inequality",
     ("variant=sparse", "d=1", "n=6..8")),
    ("pencils", "sparse", "inverse-inequality", ("variant=sparse", "n=3..7")),
    ("pencils", "mapped", "inverse-inequality",
     ("variant=mapped", "p=2", "q=1", "n=3..5")),
]

# (workload, process, kind, overrides) of the benchmark's grid-norms workload
GRID_NORMS = [
    ("grid-norms", "sparse-d2", "sparse-convergence", ("n=3..9",)),
    ("grid-norms", "sparse-d3", "sparse-convergence", ("d=3", "p=1", "n=3..5")),
    ("grid-norms", "mapped", "mapped-convergence", ("n=3..8",)),
]

# the default configs of the three norm kinds
NORMS = [("defaults", kind, kind, ()) for kind in
         ("univariate-convergence", "sparse-convergence", "mapped-convergence")]


def _golden(workload, process):
    with open(os.path.join(GOLDEN, workload, f"{process}.csv"), "rb") as fh:
        return fh.read()


def _run(kind, overrides, tmp_path):
    """CSV bytes of a `kind` study run with the given overrides."""
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"kind={kind}\n")
    out = tmp_path / "study.csv"
    run_study(replace(parse_config(str(cfg), overrides), timing="off", out=str(out)))
    return out.read_bytes()


def _run_single_blas_thread(kind, overrides, tmp_path):
    """CSV bytes of a `kind` study run at ``OPENBLAS_NUM_THREADS=1``.
    OpenBLAS reads its thread count once, at load, so the setting needs a
    fresh interpreter."""
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"kind={kind}\n")
    out = tmp_path / "study.csv"
    sets = [arg for o in overrides for arg in ("--set", o)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "sgsplines.cli", "run", str(cfg), *sets,
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.exists(), proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize("kind", KINDS)
def test_default_study_csv_matches_reference(kind, tmp_path):
    out = tmp_path / f"{kind}.csv"
    run_study(replace(default_config(kind), timing="off", out=str(out)))
    assert out.read_bytes() == _golden("defaults", kind)


@pytest.mark.parametrize("workload,process,kind,overrides", PENCILS,
                         ids=[f"{w}/{p}" for w, p, _, _ in PENCILS])
def test_pencil_workload_csv_matches_reference(workload, process, kind,
                                               overrides, tmp_path):
    assert _run(kind, overrides, tmp_path) == _golden(workload, process)


@pytest.mark.parametrize("workload,process,kind,overrides", GRID_NORMS,
                         ids=[f"{w}/{p}" for w, p, _, _ in GRID_NORMS])
def test_grid_norms_workload_csv_matches_reference(workload, process, kind,
                                                   overrides, tmp_path):
    assert _run(kind, overrides, tmp_path) == _golden(workload, process)


@pytest.mark.parametrize("workload,process,kind,overrides", PENCILS,
                         ids=[f"{w}/{p}" for w, p, _, _ in PENCILS])
def test_pencil_csv_unchanged_by_single_blas_thread(workload, process, kind,
                                                    overrides, tmp_path):
    assert (_run_single_blas_thread(kind, overrides, tmp_path)
            == _golden(workload, process))


@pytest.mark.parametrize("kind", [k for k in KINDS
                                  if k not in {p for _, p, _, _ in NORMS}])
def test_default_csv_unchanged_by_single_blas_thread(kind, tmp_path):
    assert _run_single_blas_thread(kind, (), tmp_path) == _golden("defaults", kind)


@pytest.mark.parametrize("workload,process,kind,overrides", NORMS + GRID_NORMS,
                         ids=[p for _, p, _, _ in NORMS]
                         + [f"{w}/{p}" for w, p, _, _ in GRID_NORMS])
def test_norm_csv_unchanged_by_single_blas_thread(workload, process, kind,
                                                  overrides, tmp_path):
    assert (_run_single_blas_thread(kind, overrides, tmp_path)
            == _golden(workload, process))

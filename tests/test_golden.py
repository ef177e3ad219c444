"""Golden CSVs: study configs reproduce the benchmark's reference bytes.

The references are the benchmark's `perfbench/reference/<workload>/*.csv`,
read in place.  Every default study config is checked, and so are the pencil
workloads, whose overrides are restated from `WORKLOADS` in
`perfbench/run.py`.  A refactor that changes any printed digit of these
studies fails here.

The `grid-norms` workload is checked too.  Its ``sparse-d3`` reference
predates the positive d=3 ``c10`` constant, so that file's ``bound``,
``ratio`` and ``pass`` columns are skipped and every other byte is compared.

The references were written at OpenBLAS's default thread count on a 2-CPU
host, and the default-config and `grid-norms` checks hold only there: with
``OPENBLAS_NUM_THREADS=1`` the ``univariate-convergence``,
``sparse-convergence``, ``mapped-convergence`` and ``equivalence`` CSVs differ
in their trailing printed digits (``univariate-convergence``:
3.73694582489e-09 becomes 3.73694582684e-09; ``equivalence``: its roundoff
residuals).  The two pencil workloads checked under that setting below do
not move.
"""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from sgsplines.studies import KINDS, default_config, parse_config, run_study

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference")

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
STALE_COLUMNS = {"sparse-d3": ("bound", "ratio", "pass")}


def _reference(workload, process):
    with open(os.path.join(REFERENCE, workload, f"{process}.csv"), "rb") as fh:
        return fh.read()


def _run(kind, overrides, tmp_path):
    """CSV bytes of a `kind` study run with the given overrides."""
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"kind={kind}\n")
    out = tmp_path / "study.csv"
    run_study(replace(parse_config(str(cfg), overrides), timing="off", out=str(out)))
    return out.read_bytes()


@pytest.mark.parametrize("kind", KINDS)
def test_default_study_csv_matches_reference(kind, tmp_path):
    out = tmp_path / f"{kind}.csv"
    run_study(replace(default_config(kind), timing="off", out=str(out)))
    assert out.read_bytes() == _reference("defaults", kind)


@pytest.mark.parametrize("workload,process,kind,overrides", PENCILS,
                         ids=[f"{w}/{p}" for w, p, _, _ in PENCILS])
def test_pencil_workload_csv_matches_reference(workload, process, kind,
                                               overrides, tmp_path):
    assert _run(kind, overrides, tmp_path) == _reference(workload, process)


def _cells(csv_bytes, skip):
    """CSV cells row by row, without the columns named in `skip`."""
    header, *rows = [line.split(",") for line in csv_bytes.decode().splitlines()]
    keep = [i for i, name in enumerate(header) if name not in skip]
    return [[row[i] for i in keep] for row in [header, *rows]]


@pytest.mark.parametrize("workload,process,kind,overrides", GRID_NORMS,
                         ids=[f"{w}/{p}" for w, p, _, _ in GRID_NORMS])
def test_grid_norms_workload_csv_matches_reference(workload, process, kind,
                                                   overrides, tmp_path):
    got, ref = _run(kind, overrides, tmp_path), _reference(workload, process)
    skip = STALE_COLUMNS.get(process)
    if skip:
        got, ref = _cells(got, skip), _cells(ref, skip)
    assert got == ref


@pytest.mark.parametrize("workload,process,kind,overrides",
                         [c for c in PENCILS if c[1] in ("sparse-d1", "mapped")],
                         ids=["refine-1d/sparse-d1", "pencils/mapped"])
def test_pencil_csv_unchanged_by_single_blas_thread(workload, process, kind,
                                                    overrides, tmp_path):
    # OpenBLAS reads its thread count once, at load, so the setting needs
    # a fresh interpreter
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"kind={kind}\n")
    out = tmp_path / f"{process}.csv"
    sets = [arg for o in overrides for arg in ("--set", o)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "sgsplines.cli", "run", str(cfg), *sets,
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.exists(), proc.stderr
    assert out.read_bytes() == _reference(workload, process)

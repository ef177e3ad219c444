"""Golden CSVs: study configs reproduce the benchmark's reference bytes.

The references are the benchmark's `perfbench/reference/<workload>/*.csv`,
read in place.  Every default study config is checked, and so are the pencil
workloads, whose overrides are restated from `WORKLOADS` in
`perfbench/run.py`.  A refactor that changes any printed digit of these
studies fails here.

The references were written at OpenBLAS's default thread count on a 2-CPU
host, and the default-config checks hold only there: with
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


def _reference(workload, process):
    with open(os.path.join(REFERENCE, workload, f"{process}.csv"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("kind", KINDS)
def test_default_study_csv_matches_reference(kind, tmp_path):
    out = tmp_path / f"{kind}.csv"
    run_study(replace(default_config(kind), timing="off", out=str(out)))
    assert out.read_bytes() == _reference("defaults", kind)


@pytest.mark.parametrize("workload,process,kind,overrides", PENCILS,
                         ids=[f"{w}/{p}" for w, p, _, _ in PENCILS])
def test_pencil_workload_csv_matches_reference(workload, process, kind,
                                               overrides, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"kind={kind}\n")
    out = tmp_path / f"{process}.csv"
    run_study(replace(parse_config(str(cfg), overrides), timing="off", out=str(out)))
    assert out.read_bytes() == _reference(workload, process)


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

"""Golden CSVs: study configs reproduce the benchmark's reference bytes.

The references are the benchmark's `perfbench/reference/<workload>/*.csv`,
read in place.  Every default study config is checked, and so are the pencil
workloads, whose overrides are restated from `WORKLOADS` in
`perfbench/run.py`.  A refactor that changes any printed digit of these
studies fails here.
"""

import os
from dataclasses import replace

import pytest

from sgsplines.studies import KINDS, default_config, parse_config, run_study

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference")

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

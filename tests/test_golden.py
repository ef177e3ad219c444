"""Golden CSVs: every default study config reproduces its reference bytes.

The references are the benchmark's `perfbench/reference/defaults/<kind>.csv`,
read in place.  A refactor that changes any printed digit of any default
study fails here.
"""

import os
from dataclasses import replace

import pytest

from sgsplines.studies import KINDS, default_config, run_study

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference", "defaults")


@pytest.mark.parametrize("kind", KINDS)
def test_default_study_csv_matches_reference(kind, tmp_path):
    out = tmp_path / f"{kind}.csv"
    run_study(replace(default_config(kind), timing="off", out=str(out)))
    with open(os.path.join(REFERENCE, f"{kind}.csv"), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected

"""The benchmark's configs: every process of every workload in
`perfbench/run.py` runs `study gen-config <kind>` plus its `--set` keys,
`timing=off` and a seed.  Each kind refuses the keys it does not read, so
every one of those configs must pass `validate_config`, or its benchmark
process exits 2.
"""

import importlib.util
import os

import pytest

from sgsplines.cli import main as cli_main
from sgsplines.studies import parse_config, validate_config

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "run.py")


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PROCESSES = [(workload, *spec) for workload, specs in
             _run_module().WORKLOADS.items() for spec in specs]


@pytest.mark.parametrize("workload,ident,kind,sets", PROCESSES,
                         ids=[f"{w}/{i}" for w, i, _, _ in PROCESSES])
def test_benchmark_config_is_valid(tmp_path, capsys, workload, ident, kind,
                                   sets):
    assert cli_main(["gen-config", kind]) == 0
    path = tmp_path / f"{kind}.cfg"
    path.write_text(capsys.readouterr().out)
    cfg = parse_config(str(path), [*sets, "timing=off", "seed=1"])
    validate_config(cfg)

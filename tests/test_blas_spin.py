"""The OpenBLAS spin setting: applied before numpy loads, and moves no byte.

``sgsplines`` sets ``OPENBLAS_THREAD_TIMEOUT`` (how long idle OpenBLAS
workers busy-wait before they sleep) unless the environment already sets it.
OpenBLAS reads it once, when it loads, so each check runs in a fresh
interpreter.
"""

import os
import subprocess
import sys

import pytest

from test_golden import PENCILS, ROOT, _golden

# records the setting at the moment numpy is first imported
_PROBE = """
import os, sys

seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Probe())
import sgsplines.cli
print(seen[0])
"""


def _env(timeout):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    return env


@pytest.mark.parametrize("given,seen", [(None, "4"), ("12", "12")])
def test_spin_is_set_before_numpy_loads(given, seen):
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=_env(given), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == seen


CASES = [("defaults", "sparse-convergence", "sparse-convergence", ())]
CASES += [c for c in PENCILS if c[1] == "sparse-d1"]


@pytest.mark.parametrize("timeout", ["4", "30"])
@pytest.mark.parametrize("workload,process,kind,overrides", CASES,
                         ids=[f"{w}/{p}" for w, p, _, _ in CASES])
def test_csv_bytes_do_not_depend_on_the_spin(workload, process, kind,
                                             overrides, timeout, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"kind={kind}\n")
    out = tmp_path / f"{process}.csv"
    sets = [arg for o in overrides for arg in ("--set", o)]
    proc = subprocess.run(
        [sys.executable, "-m", "sgsplines.cli", "run", str(cfg), *sets,
         "--out", str(out)],
        capture_output=True, text=True, env=_env(timeout), timeout=300)
    assert out.exists(), proc.stderr
    assert out.read_bytes() == _golden(workload, process)

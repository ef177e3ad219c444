"""Study runner: rate fitting, config parsing, CSV output, CLI contract."""

import os
import subprocess
import sys

import numpy as np
import pytest

from sgsplines import studies
from sgsplines.cli import main as cli_main
from sgsplines.geometry import builtin_geometry
from sgsplines.studies import (
    CSV_COLUMNS,
    ConfigError,
    StudyConfig,
    default_config,
    fit_rate,
    parse_config,
    run_study,
)


def test_fit_rate_exact_halving():
    assert fit_rate([(0.1, 0.1), (0.05, 0.025)]) == pytest.approx(2.0)


def test_fit_rate_log_correction():
    hs = 2.0 ** -np.arange(3, 9)
    errs = hs ** 2 * np.abs(np.log(hs))
    pairs = list(zip(hs, errs))
    assert fit_rate(pairs, log_power=1) == pytest.approx(2.0, abs=0.01)
    assert fit_rate(pairs, log_power=0) < 2.0


def test_fit_rate_validations():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.1), (0.1, 0.05)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.1), (0.05, 0.0)])


def _write(tmp_path, text, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_with_overrides(tmp_path):
    path = _write(tmp_path, "kind=dimensions\nd=2\np=1\nn=3..5\n# comment\n")
    cfg = parse_config(path, overrides=["n=3,4", "rank_max=3"])
    assert cfg.kind == "dimensions"
    assert cfg.n == (3, 4)
    assert cfg.rank_max == 3


def test_parse_config_diagnostics(tmp_path):
    with pytest.raises(ConfigError, match="missing required key 'kind'"):
        parse_config(_write(tmp_path, "d=2\n"))
    with pytest.raises(ConfigError, match=":2: expected key=value"):
        parse_config(_write(tmp_path, "kind=dimensions\nnonsense\n"))
    with pytest.raises(ConfigError, match="unknown config key 'shape'"):
        parse_config(_write(tmp_path, "kind=dimensions\nshape=3\n"))
    with pytest.raises(ConfigError, match="bad value for 'n'"):
        parse_config(_write(tmp_path, "kind=dimensions\nn=three\n"))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="below the admissible minimum"):
        run_study(StudyConfig(kind="equivalence", p=(2,), n=(1, 2)))
    with pytest.raises(ConfigError, match="q <= p"):
        run_study(StudyConfig(kind="inverse-inequality", p=(2,), q=(3,),
                              n=(3,), variant="univariate"))
    with pytest.raises(ConfigError, match="variant"):
        run_study(StudyConfig(kind="inverse-inequality", p=(2,), q=(1,),
                              n=(3,), variant="sideways"))


def test_identities_study_passes():
    cfg = StudyConfig(kind="identities", p=(1, 2), d_max=3, n_max=6)
    report = run_study(cfg)
    assert report.passed
    assert {row.source for row in report.rows} == {"L1", "L3", "L4"}


def test_dimensions_study_values():
    cfg = StudyConfig(kind="dimensions", d=2, p=(1,), n=(3,), rank_max=3)
    report = run_study(cfg)
    row = report.rows[0]
    assert (row.value, row.bound) == (49, 81)
    assert row.source == "P1"
    assert report.passed


def test_reports_are_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cfg = StudyConfig(kind="univariate-convergence", d=1, p=(2,), n=(3, 4, 5),
                      target="sin-2pi")
    run_study(cfg).to_csv(out1)
    run_study(cfg).to_csv(out2)
    with open(out1, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()


def test_csv_columns_and_sources(tmp_path):
    out = str(tmp_path / "u.csv")
    cfg = StudyConfig(kind="univariate-convergence", d=1, p=(1,), n=(3, 4, 5),
                      target="sin-2pi", out=out)
    report = run_study(cfg)
    assert report.passed
    with open(out) as fh:
        header = fh.readline().strip().split(",")
        assert tuple(header) == CSV_COLUMNS
        lines = fh.read().splitlines()
    assert all(line.split(",")[11] == "L2" for line in lines)
    assert all(line.split(",")[-1] == "0.000" for line in lines)


def test_cli_list_and_gen_config(tmp_path, capsys):
    assert cli_main(["list-kinds"]) == 0
    out = capsys.readouterr().out
    assert "dimensions" in out
    from sgsplines.studies import KINDS
    for kind in KINDS:
        assert cli_main(["gen-config", kind]) == 0
        path = tmp_path / f"{kind}.cfg"
        path.write_text(capsys.readouterr().out)
        cfg = parse_config(str(path))
        assert cfg.kind == kind


def test_cli_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.cfg"
    ok.write_text("kind=dimensions\nn=3,4\nrank_max=3\n")
    out = tmp_path / "r.csv"
    assert cli_main(["run", str(ok), "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("kind=dimensions\nn=three\n")
    assert cli_main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    # a failing bound check exits 1: the quadratic space with q = p has an
    # empty constraint set and violates the stated pencil bound
    fail = tmp_path / "fail.cfg"
    fail.write_text("kind=inverse-inequality\nvariant=univariate\n"
                    "p=2\nq=2\nn=3\n")
    assert cli_main(["run", str(fail)]) == 1
    capsys.readouterr()


def test_cli_thread_cap_respected(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("kind=dimensions\nn=3,4\nrank_max=2\n")
    env = dict(os.environ, STUDY_THREADS="1", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "sgsplines.cli", "run", str(cfg)],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)) or ".")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_cli_rejects_bad_thread_count(tmp_path, capsys, monkeypatch, value):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("kind=dimensions\nn=3\nrank_max=2\n")
    monkeypatch.setenv("STUDY_THREADS", value)
    assert cli_main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "STUDY_THREADS" in err


def test_mapped_study_reads_geometry_file(tmp_path, capsys):
    from sgsplines.geometry import distorted_square_geometry, save_geometry
    geo = tmp_path / "dist.geo"
    save_geometry(distorted_square_geometry(), geo)
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"kind=mapped-convergence\np=2\nn=3,4,5\nmin_order=2.5\n"
                   f"geometry={geo}\n")
    assert cli_main(["run", str(cfg)]) == 0
    assert "T1" in capsys.readouterr().out


def test_default_configs_are_valid():
    for kind in ("univariate-convergence", "sparse-convergence", "equivalence",
                 "identities", "dimensions", "inverse-inequality",
                 "mapped-convergence"):
        cfg = default_config(kind)
        assert cfg.kind == kind


def _bad_geometry(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("kind,overrides", [
    ("sparse-convergence", ["target=nope"]),
    ("sparse-convergence", ["target=sin-2pi"]),
    ("mapped-convergence", ["geometry=nope"]),
    ("mapped-convergence", ["geometry={few}"]),
    ("mapped-convergence", ["geometry={nodegree}"]),
    ("sparse-convergence", ["d=0"]),
    ("univariate-convergence", ["n=5"]),
    ("sparse-convergence", ["n=5"]),
    ("mapped-convergence", ["n=4,4"]),
    ("inverse-inequality", ["variant=mapped", "q=1", "n=3"]),
    ("inverse-inequality", ["variant=mapped", "q=1", "d=3"]),
    ("mapped-convergence", ["d=3"]),
    ("univariate-convergence", ["r=-1"]),
    ("inverse-inequality", ["q=-1"]),
    ("univariate-convergence", ["p=0", "target=one"]),
], ids=["unknown-target", "target-dimension", "unknown-geometry",
        "few-control-points", "degree-without-value", "d0", "univariate-one-level",
        "sparse-one-level", "repeated-level", "mapped-pencil-one-level",
        "pencil-geometry-dimension", "geometry-dimension", "negative-r",
        "negative-q", "zero-seminorm-bound"])
def test_cli_rejects_bad_input(tmp_path, capsys, kind, overrides):
    geometries = {
        "few": _bad_geometry(tmp_path, "few.geo",
                             ["degree 2", "dims 3 3", "control_points", "0 0"]),
        "nodegree": _bad_geometry(tmp_path, "nodeg.geo",
                                  ["degree", "dims 3 3", "control_points"]),
    }
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"kind={kind}\n")
    args = ["run", str(cfg)]
    for item in overrides:
        args += ["--set", item.format(**geometries)]
    assert cli_main(args) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_mapped_study_builds_one_geometry(tmp_path, monkeypatch):
    built = []

    def counting(name):
        built.append(name)
        return builtin_geometry(name)

    monkeypatch.setattr(studies, "builtin_geometry", counting)
    cfg = tmp_path / "mapped.cfg"
    cfg.write_text("kind=mapped-convergence\np=2\nn=3,4\n")
    cli_main(["run", str(cfg)])
    assert built == ["distorted-square"]

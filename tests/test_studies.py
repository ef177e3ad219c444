"""Study runner: rate fitting, config parsing, CSV output, CLI contract."""

import csv
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from sgsplines import functions as fn
from sgsplines import studies
from sgsplines.cli import main as cli_main
from sgsplines.geometry import builtin_geometry
from sgsplines.quadrature import MAX_GAUSS_POINTS
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


def test_config_file_refuses_a_repeated_key(tmp_path, capsys):
    # within one file a repeated key is refused, where the last would win
    # silently; --set still replaces a file's value
    path = _write(tmp_path, "kind=dimensions\nn=3..4\n# more\nn=3..5\n")
    assert cli_main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{path}:4: key 'n' repeats {path}:2" in err
    path = _write(tmp_path, "kind=dimensions\nn=3..4\nrank_max=3\n")
    assert parse_config(path, overrides=["n=3", "n=3..5"]).n == (3, 4, 5)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="below the admissible minimum"):
        run_study(StudyConfig(kind="equivalence", p=(2,), n=(1, 2)))
    with pytest.raises(ConfigError, match="q <= p"):
        run_study(StudyConfig(kind="inverse-inequality", p=(2,), q=(3,),
                              n=(3,), variant="univariate"))
    with pytest.raises(ConfigError, match="variant"):
        run_study(StudyConfig(kind="inverse-inequality", p=(2,), q=(1,),
                              n=(3,), variant="sideways"))


def test_run_study_refuses_an_unknown_kind():
    with pytest.raises(ConfigError, match="unknown study kind 'bogus'"):
        run_study(StudyConfig(kind="bogus"))


def test_run_study_refuses_keys_the_kind_does_not_read():
    # a key the kind does not read is refused once it leaves its default
    with pytest.raises(ConfigError, match="dimensions does not read 'target'"):
        run_study(StudyConfig(kind="dimensions", n=(3,), target="sin-2pi"))
    cfg = StudyConfig(kind="identities", p=(1,), d_max=2, n_max=3, d=2)
    assert run_study(cfg).passed


@pytest.mark.parametrize("kind,overrides,keys", [
    ("identities", ["variant=bogus", "q=1,1", "geometry=nope", "r=7"],
     ["geometry", "q", "variant", "r"]),
    ("sparse-convergence", ["r=1", "n=3..5"], ["r"]),
    ("univariate-convergence", ["d=2"], ["d"]),
    ("equivalence", ["target=sin-2pi"], ["target"]),
    ("mapped-convergence", ["q=1"], ["q"]),
    ("dimensions", ["geometry=distorted-square"], ["geometry"]),
], ids=["identities", "sparse-r", "univariate-d", "equivalence-target",
        "mapped-q", "dimensions-geometry"])
def test_cli_refuses_keys_the_kind_does_not_read(tmp_path, capsys, kind,
                                                 overrides, keys):
    # from the kind's own template, as a user starts
    assert cli_main(["gen-config", kind]) == 0
    cfg = tmp_path / "study.cfg"
    cfg.write_text(capsys.readouterr().out)
    args = ["run", str(cfg)] + [a for item in overrides for a in ("--set", item)]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and kind in err
    assert all(f"'{key}'" in err for key in keys)


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


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


def test_equivalence_at_d3_n5_runs_in_seconds(tmp_path):
    # the brute-force stacks of this config grew to 5.5 GB and ended in a
    # MemoryError; the 1D certificates run it in a fraction of a second,
    # here in a child limited to 2 GiB of address space
    cfg = tmp_path / "equivalence.cfg"
    cfg.write_text("kind=equivalence\n")
    out = tmp_path / "equivalence.csv"
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sgsplines.cli", "run", str(cfg), "--set", "d=3",
         "--set", "p=1", "--set", "n=4..5", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_two_gib_address_space)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - t0 < 10
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    dims = [(r["n"], r["value"]) for r in rows if r["level"] == "dims"]
    assert dims == [("4", "593"), ("5", "1505")]
    assert all(r["pass"] == "true" for r in rows)


_SCIPY_PROBE = """
import sys
from dataclasses import replace
import sgsplines.cli
from sgsplines.studies import default_config, run_study
print("scipy" in sys.modules)
for kind in ("identities", "dimensions", "equivalence", "sparse-convergence"):
    run_study(replace(default_config(kind), timing="off"))
    print("scipy" in sys.modules)
"""


def test_scipy_loads_only_in_a_study_that_calls_it():
    # the certificate kinds take their SVDs from numpy; the convergence
    # kinds' banded Cholesky solve loads scipy
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "src"))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "False", "True"]


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


def test_mapped_study_reads_geometry_file(tmp_path, capsys):
    from oracles import save_geometry
    from sgsplines.geometry import distorted_square_geometry
    geo = tmp_path / "dist.geo"
    save_geometry(distorted_square_geometry(), geo)
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"kind=mapped-convergence\np=2\nn=3,4,5\n"
                   f"geometry={geo}\n")
    assert cli_main(["run", str(cfg)]) == 0
    assert "T1" in capsys.readouterr().out


@pytest.mark.parametrize("p,bound", [(1, 1.8), (3, 3.8)])
def test_mapped_fit_bound_follows_the_degree(p, bound):
    cfg = replace(default_config("mapped-convergence"), p=(p,), n=(3, 4, 5))
    fit = run_study(cfg).rows[-1]
    assert fit.level == "fit"
    assert fit.bound == pytest.approx(bound)
    assert fit.passed


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
    ("mapped-convergence", ["geometry={nodims}"]),
    ("mapped-convergence", ["geometry={negdegree}"]),
    ("mapped-convergence", ["geometry={zerodegree}"]),
    ("sparse-convergence", ["d=0"]),
    # its bound's layer sum is empty at d = 1, so every bound reads 0
    ("sparse-convergence", ["d=1", "p=1", "n=3..5"]),
    ("univariate-convergence", ["n=5"]),
    ("sparse-convergence", ["n=5"]),
    ("mapped-convergence", ["n=4,4"]),
    ("inverse-inequality", ["variant=mapped", "q=1", "n=3"]),
    ("inverse-inequality", ["variant=mapped", "q=1", "d=3"]),
    ("mapped-convergence", ["d=3"]),
    ("univariate-convergence", ["r=-1"]),
    ("inverse-inequality", ["q=-1"]),
    ("univariate-convergence", ["p=0", "target=one"]),
    ("inverse-inequality", ["q=0"]),
    # degrees whose Gauss rule would pass the quadrature limit
    ("univariate-convergence", ["p=14", "n=5..6"]),
    ("sparse-convergence", ["p=14", "n=5..6"]),
    ("mapped-convergence", ["p=14", "n=5..6"]),
    ("inverse-inequality", ["variant=mapped", "p=14", "q=1", "n=5..6"]),
    ("inverse-inequality", ["variant=univariate", "p=16", "q=1", "n=5"]),
    ("inverse-inequality", ["variant=sparse", "d=1", "p=16", "q=1", "n=5"]),
    # empty ranges, and identities bounds that leave nothing to check
    ("equivalence", ["n=5..3"]),
    ("sparse-convergence", ["p=3..2"]),
    ("inverse-inequality", ["q=2..1"]),
    ("identities", ["n_max=2"]),
    ("identities", ["d_max=1"]),
    # repeated list values, which would repeat rows
    ("dimensions", ["n=3,3", "p=1,1"]),
    ("identities", ["p=2,2"]),
    # geometry files with a non-integer key value or a short control point
    ("mapped-convergence", ["geometry={badint}"]),
    ("mapped-convergence", ["geometry={ragged}"]),
    # geometry files with extra tokens on a key line, or a repeated key line
    ("mapped-convergence", ["geometry={extradegree}"]),
    ("mapped-convergence", ["geometry={extrapoints}"]),
    ("mapped-convergence", ["geometry={twodegree}"]),
    ("mapped-convergence", ["geometry={twodims}"]),
    # level sets estimated above the memory budget
    ("identities", ["d_max=11", "n_max=17"]),
], ids=["unknown-target", "target-dimension", "unknown-geometry",
        "few-control-points", "degree-without-value", "zero-dims",
        "negative-degree", "zero-degree", "d0", "sparse-one-dimension",
        "univariate-one-level", "sparse-one-level", "repeated-level",
        "mapped-pencil-one-level", "pencil-geometry-dimension",
        "geometry-dimension", "negative-r", "negative-q", "zero-seminorm-bound",
        "zero-order-inverse", "univariate-degree-14", "sparse-degree-14",
        "mapped-degree-14", "mapped-pencil-degree-14", "univariate-pencil-degree-16",
        "sparse-pencil-degree-16", "empty-levels", "empty-degrees",
        "empty-orders", "identities-level-below-minimum",
        "identities-no-dimension", "repeated-dimensions", "repeated-degree",
        "non-integer-dims", "ragged-control-points", "degree-extra-token",
        "control-points-token", "repeated-degree-line", "repeated-dims-line",
        "identities-too-large"])
def test_cli_rejects_bad_input(tmp_path, capsys, kind, overrides):
    geometries = {
        "few": _bad_geometry(tmp_path, "few.geo",
                             ["degree 2", "dims 3 3", "control_points", "0 0"]),
        "nodegree": _bad_geometry(tmp_path, "nodeg.geo",
                                  ["degree", "dims 3 3", "control_points"]),
        "nodims": _bad_geometry(tmp_path, "nodims.geo",
                                ["degree 2", "dims 0 0", "control_points"]),
        # extents that fit a dyadic mesh, so only the degree is wrong
        "negdegree": _bad_geometry(tmp_path, "negdeg.geo",
                                   ["degree -1", "dims 3 3", "control_points"]
                                   + [f"{i} {j}" for i in range(3)
                                      for j in range(3)]),
        "zerodegree": _bad_geometry(tmp_path, "zerodeg.geo",
                                    ["degree 0", "dims 2 2", "control_points",
                                     "0 0", "0 1", "1 0", "1 1"]),
        "badint": _bad_geometry(tmp_path, "badint.geo",
                                ["degree 1", "dims 2 x", "control_points"]),
        "ragged": _bad_geometry(tmp_path, "ragged.geo",
                                ["degree 1", "dims 2 2", "control_points",
                                 "0 0", "0 1", "1", "1 1"]),
        "extradegree": _bad_geometry(tmp_path, "extradegree.geo",
                                     ["degree 1 7", "dims 2 2", "control_points",
                                      "0 0", "0 1", "1 0", "1 1"]),
        "extrapoints": _bad_geometry(tmp_path, "extrapoints.geo",
                                     ["degree 1", "dims 2 2", "control_points 5",
                                      "0 0", "0 1", "1 0", "1 1"]),
        # the later lines would override the earlier ones, and the run fail
        # later on the control extent
        "twodegree": _bad_geometry(tmp_path, "twodegree.geo",
                                   ["degree 1", "dims 2 2", "degree 2",
                                    "control_points", "0 0", "0 1", "1 0",
                                    "1 1"]),
        "twodims": _bad_geometry(tmp_path, "twodims.geo",
                                 ["degree 1", "dims 3 3", "dims 2 2",
                                  "control_points", "0 0", "0 1", "1 0", "1 1"]),
    }
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"kind={kind}\n")
    args = ["run", str(cfg)]
    for item in overrides:
        args += ["--set", item.format(**geometries)]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    # the message names a geometry file's bad degree
    if any("degree" in item for item in overrides):
        assert "degree" in err
    # so does the message refusing a degree above the quadrature limit, with
    # the limit
    if any(item in ("p=14", "p=16") for item in overrides):
        assert "degree 1" in err and f"limit of {MAX_GAUSS_POINTS}" in err
    # the message refusing a one-dimensional sparse study names the kind to
    # run instead
    if kind == "sparse-convergence" and "d=1" in overrides:
        assert "univariate-convergence" in err
    # and the message refusing an empty range or a vacuous identities bound
    # names the key
    for item in overrides:
        key, value = item.split("=", 1)
        lo, _, hi = value.partition("..")
        if key in ("n_max", "d_max") or hi and int(lo) > int(hi):
            assert f"'{key}'" in err
    # so does the message refusing a repeated value, for one of the keys
    repeated = [key for key, value in (item.split("=", 1) for item in overrides)
                if len(set(value.split(","))) <= value.count(",")]
    assert not repeated or any(f"'{key}'" in err for key in repeated)
    # and the message refusing a geometry file names the file and the line
    for name, lineno in (("badint", 2), ("ragged", 6), ("extradegree", 1),
                         ("extrapoints", 3), ("twodegree", 3), ("twodims", 3)):
        if f"geometry={{{name}}}" in overrides:
            assert f"{name}.geo:{lineno}: " in err


def test_identities_bounds_bind_only_identities(tmp_path, capsys):
    # dimensions reads neither n_max nor d_max, so their defaults, n_max=12
    # below the minimum level 13 of degree 4096, do not refuse it
    cfg, out = tmp_path / "dims.cfg", tmp_path / "dims.csv"
    cfg.write_text("kind=dimensions\n")
    assert cli_main(["run", str(cfg), "--set", "p=4096", "--set", "n=13",
                     "--out", str(out)]) == 0
    assert ",P1," in out.read_text()
    capsys.readouterr()


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


@pytest.mark.parametrize("kind", ["univariate-convergence", "sparse-convergence",
                                  "mapped-convergence"])
def test_study_builds_one_target(tmp_path, monkeypatch, kind):
    built = []
    target_function = fn.target_function

    def counting(name, d):
        built.append(name)
        return target_function(name, d)

    monkeypatch.setattr(fn, "target_function", counting)
    cfg = tmp_path / "target.cfg"
    cfg.write_text(f"kind={kind}\np=2\nn=3,4\n")
    assert cli_main(["run", str(cfg)]) == 0
    assert len(built) == 1


def test_sparse_convergence_passes_in_three_dimensions(tmp_path, capsys):
    # every d = 3 row passes: the log-corrected bound of the L6 estimate is
    # positive, because c10 sums its layers by the triangle inequality
    cfg = tmp_path / "d3.cfg"
    cfg.write_text("kind=sparse-convergence\nd=3\np=1\nn=3..4\n")
    assert cli_main(["run", str(cfg)]) == 0
    assert "0 failing" in capsys.readouterr().out


def _last_row(tmp_path, text):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(text + "target=one\np=1\nn=3..4\n")
    out = tmp_path / "one.csv"
    assert cli_main(["run", str(cfg), "--out", str(out)]) == 0
    return out.read_text().splitlines()[-1].split(",")


@pytest.mark.parametrize("kind", [
    "kind=sparse-convergence\n",
    "kind=mapped-convergence\ngeometry=identity\n",
    "kind=mapped-convergence\ngeometry=shear\n",
], ids=["sparse-convergence", "mapped-identity", "mapped-shear"])
def test_target_in_the_space_gives_an_exact_row(tmp_path, capsys, kind):
    # errors near 1e-15 are roundoff: no rate is fitted to them
    last = _last_row(tmp_path, kind)
    assert last[CSV_COLUMNS.index("level")] == "exact"
    assert last[CSV_COLUMNS.index("pass")] == "true"
    assert "FAIL" not in capsys.readouterr().out
    # the floor is a multiple of the target's own norm, whatever the map
    sparse = _last_row(tmp_path, "kind=sparse-convergence\n")
    assert (last[CSV_COLUMNS.index("bound")]
            == sparse[CSV_COLUMNS.index("bound")])


def test_fit_leaves_out_levels_below_the_floor():
    errors = {3: 1e-2, 4: 2.5e-3, 5: 6.25e-4, 6: 1e-17}

    def row(p, n):
        return [studies.Row("sparse-convergence", 1, p, n, value=errors[n])]

    def fit(p, pairs):
        return studies.Row("sparse-convergence", 1, p, "", level="fit",
                           value=fit_rate(pairs), source=len(pairs))

    cfg = StudyConfig(kind="sparse-convergence", n=(3, 4, 5, 6))
    rows = studies._fitted(cfg, [(1,)], row, fit, floor=1e-13)
    assert rows[-1].level == "fit" and rows[-1].source == 3
    assert rows[-1].value == pytest.approx(2.0)
    rows = studies._fitted(cfg, [(1,)], row, fit, floor=5e-3)
    assert rows[-1].level == "exact" and rows[-1].passed
    assert rows[-1].value == 1e-17 and rows[-1].bound == 5e-3


def test_each_chain_level_is_built_once_across_pool_threads(tmp_path,
                                                            monkeypatch):
    # the chain cache extends each chain by one level, so every (degree,
    # level, q) is built once per study; a sleep in every level build would
    # widen the window in which two overlapping tasks both miss the cache
    import time

    from sgsplines import spaces

    builds = []
    build = spaces.vanishing_subspace

    def slow_build(space, q):
        builds.append((space.degree, space.level, q))
        time.sleep(0.01)
        return build(space, q)

    monkeypatch.setattr(spaces, "vanishing_subspace", slow_build)
    cfg = tmp_path / "refine.cfg"
    cfg.write_text("kind=inverse-inequality\n")
    spaces._constrained_chain.cache_clear()
    try:
        code = cli_main(["run", str(cfg), "--set", "variant=sparse",
                         "--set", "d=1", "--set", "n=6..8",
                         "--out", str(tmp_path / "refine.csv")])
    finally:
        spaces._constrained_chain.cache_clear()
    assert code == 0
    assert builds and len(builds) == len(set(builds))


@pytest.mark.parametrize("overrides", [("r=1",), ("r=2", "p=2,3")],
                         ids=["r1", "r2"])
def test_univariate_fit_at_seminorm_order(tmp_path, overrides):
    # at r >= 1 the rate p + 1 - r belongs to the H^r seminorm of the error,
    # and every row, data and fit, names that r
    cfg = tmp_path / "uni.cfg"
    cfg.write_text("kind=univariate-convergence\n")
    out = tmp_path / "uni.csv"
    sets = [arg for o in overrides for arg in ("--set", o)]
    assert cli_main(["run", str(cfg), *sets, "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    r = overrides[0].split("=")[1]
    assert {row[header.index("r")] for row in rows} == {r}
    assert any(row[header.index("level")] == "" for row in rows)


def test_identities_too_large_is_refused_before_any_level_set(monkeypatch):
    # d_max=11 n_max=17 would need about 24 GiB; the refusal comes from the
    # closed-form estimate alone
    def no_level_sets(*args):
        raise AssertionError("a level set was built")

    monkeypatch.setattr(studies, "build_combination_set", no_level_sets)
    monkeypatch.setattr(studies, "lemma3_oracle", no_level_sets)
    cfg = replace(default_config("identities"), d_max=11, n_max=17)
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="GiB"):
        run_study(cfg)
    assert time.perf_counter() - t0 < 1.0


def test_identities_estimate_bounds_the_default_and_the_largest_run_measured():
    # the default runs (its golden is compared byte for byte); d_max=9
    # n_max=15 at the default degrees peaked at 1561 MB of RSS, which the
    # estimate of 1.68 GB bounds and the budget admits
    assert studies.identities_peak_bytes(default_config("identities")) < 30e6
    big = replace(default_config("identities"), d_max=9, n_max=15)
    assert 1561 * 2 ** 20 < studies.identities_peak_bytes(big) < studies.MEMORY_BUDGET

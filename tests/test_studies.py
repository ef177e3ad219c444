"""Study runner: rate fitting, config parsing, CSV output, CLI contract."""

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
], ids=["unknown-target", "target-dimension", "unknown-geometry",
        "few-control-points", "degree-without-value", "zero-dims",
        "negative-degree", "zero-degree", "d0",
        "univariate-one-level", "sparse-one-level", "repeated-level",
        "mapped-pencil-one-level", "pencil-geometry-dimension",
        "geometry-dimension", "negative-r", "negative-q", "zero-seminorm-bound",
        "zero-order-inverse", "univariate-degree-14", "sparse-degree-14",
        "mapped-degree-14", "mapped-pencil-degree-14", "univariate-pencil-degree-16",
        "sparse-pencil-degree-16", "empty-levels", "empty-degrees",
        "empty-orders", "identities-level-below-minimum",
        "identities-no-dimension"])
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
    # and the message refusing an empty range or a vacuous identities bound
    # names the key
    for item in overrides:
        key, value = item.split("=", 1)
        lo, _, hi = value.partition("..")
        if key in ("n_max", "d_max") or hi and int(lo) > int(hi):
            assert f"'{key}'" in err


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


def test_target_in_the_space_gives_an_exact_row(tmp_path, capsys):
    # errors near 1e-15 are roundoff: no rate is fitted to them
    cfg = tmp_path / "one.cfg"
    cfg.write_text("kind=sparse-convergence\ntarget=one\np=1\nn=3..4\n")
    out = tmp_path / "one.csv"
    assert cli_main(["run", str(cfg), "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert last[CSV_COLUMNS.index("level")] == "exact"
    assert last[CSV_COLUMNS.index("pass")] == "true"
    assert "FAIL" not in capsys.readouterr().out


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

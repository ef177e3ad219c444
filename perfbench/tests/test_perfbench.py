"""Tests of the benchmark itself: reference check, per-child accounting and
span self times.  Run with ``python3 -m pytest perfbench/tests -q``."""

import json
import os
import resource
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _reference(workload, ident):
    with open(os.path.join(run.REFERENCE, workload, ident + ".csv")) as fh:
        return fh.read()


def _perturb_value(text, row, factor):
    lines = text.splitlines(keepends=True)
    cells = lines[row + 1].split(",")
    col = lines[0].split(",").index("value")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row + 1] = ",".join(cells)
    return "".join(lines)


def test_reference_check_rejects_perturbed_value():
    ref = _reference("grid-norms", "sparse-d2")
    problems, _, identical = refcheck.compare(_perturb_value(ref, 3, 1 + 1e-3), ref)
    assert len(problems) == 1 and "value" in problems[0]
    assert not identical


def test_reference_check_rejects_missing_row():
    ref = _reference("grid-norms", "sparse-d2")
    lines = ref.splitlines(keepends=True)
    problems, _, _ = refcheck.compare("".join(lines[:4] + lines[5:]), ref)
    assert problems


def test_reference_check_tolerates_roundoff():
    ref = _reference("grid-norms", "sparse-d2")
    problems, _, identical = refcheck.compare(_perturb_value(ref, 3, 1 + 1e-9), ref)
    assert problems == [] and not identical


@pytest.fixture(scope="module")
def defaults(tmp_path_factory):
    return run.Workload("defaults", seed=0, work=str(tmp_path_factory.mktemp("w")))


def test_reference_check_accepts_seed_output(defaults):
    rdir = os.path.join(defaults.dir, "accept")
    os.makedirs(rdir)
    res = defaults.run_process(rdir, "inverse-inequality", "inverse-inequality", ())
    defaults._check(res, traced=False)
    assert res["code"] == 1  # the by-design p=2, q=2 rows fail
    assert res["problems"] == []
    assert res["identical"]
    assert res["rows_failing"] > 0
    assert 0 < res["setup_s"] < res["exit"] - res["spawn"]


def test_crash_counts_as_failed(defaults):
    rdir = os.path.join(defaults.dir, "crash")
    os.makedirs(rdir)
    # an unknown target escapes run_study as a traceback, which Python
    # itself would report as exit 1, the status of a failed check
    res = defaults.run_process(rdir, "sparse-convergence", "sparse-convergence",
                               ("target=no-such-target",))
    defaults._check(res, traced=False)
    assert res["code"] not in (0, 1)
    assert res["problems"]


def test_peak_rss_is_per_child(tmp_path):
    big = run.run_child([sys.executable, "-c", "b = b'x' * (150 << 20)"],
                        str(tmp_path / "big.log"))
    small = run.run_child([sys.executable, "-c", "pass"], str(tmp_path / "small.log"))
    assert big["code"] == small["code"] == 0
    assert big["rss_mb"] > 150
    assert small["rss_mb"] < 60
    # the cumulative figure would have stamped the big child on the small one
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 > 150


def test_self_times_exclude_same_thread_children_only():
    # [name, start, end, thread, parent, attrs]
    recs = [
        ["root", 0.0, 10.0, 1, -1, None],
        ["a", 1.0, 4.0, 1, 0, None],
        ["b", 2.0, 3.0, 1, 1, None],
        ["task", 2.0, 9.0, 2, 0, None],   # another thread: not subtracted
        ["c", 5.0, 6.0, 2, 3, None],
    ]
    assert spans.self_times(recs) == pytest.approx([7.0, 2.0, 1.0, 6.0, 1.0])
    assert spans.thread_busy(recs) == {1: 10.0, 2: 7.0}


def test_traced_self_times_sum_to_wall(defaults):
    rdir = os.path.join(defaults.dir, "traced")
    os.makedirs(rdir)
    res = defaults.run_process(rdir, "t", "sparse-convergence", ("n=3..6",),
                               traced=True)
    assert res["code"] == 0
    with open(res["base"] + ".spans.json") as fh:
        trace = json.load(fh)
    recs = trace["spans"]
    own = spans.self_times(recs)
    busy = spans.thread_busy(recs)
    per_thread = {}
    for rec, t in zip(recs, own):
        per_thread[rec[3]] = per_thread.get(rec[3], 0.0) + t
    assert per_thread == pytest.approx(busy, abs=1e-9)
    assert len(busy) > 1  # the study pool ran tasks on worker threads

    root = [r for r in recs if r[0] == "cli.main"]
    assert len(root) == 1 and root[0][3] == trace["main_thread"]
    wall = res["exit"] - res["spawn"]
    gap = (root[0][1] - res["spawn"]) + (res["exit"] - root[0][2])
    assert per_thread[trace["main_thread"]] == pytest.approx(wall - gap, abs=1e-9)
    # the untraced gap is interpreter start, import, tracer set-up and exit
    assert trace["ready"] - res["spawn"] <= gap < wall
    assert gap - (trace["ready"] - res["spawn"]) < 1.0
    # pool tasks are the top-level spans of the workers
    tasks = [r for r in recs if r[0] == "studies.task"]
    assert sum(r[2] - r[1] for r in tasks) == pytest.approx(
        sum(b for t, b in busy.items() if t != trace["main_thread"]), abs=1e-9)

#!/usr/bin/env python3
"""Benchmark of the ``study run`` command (workloads and metrics: README.md).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload <name|all> --write-reference

Run from the root of a checkout.  A workload is a fixed list of ``study run``
processes, run one after another (closed loop, one client), each in a fresh
child that imports ``sgsplines`` from the checkout's ``src/``.  A run repeats
the workload in rounds until ``--seconds`` would be exceeded, then reports the
median over rounds.  With ``--trace 1`` the last round runs traced and the
per-layer metrics come from its spans.  Every CSV is checked against
``reference/``.  The last line of output is one JSON object.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import refcheck  # noqa: E402
import spans  # noqa: E402

# `study list-kinds` order at the commit that defined the benchmark
KINDS = ("univariate-convergence", "sparse-convergence", "mapped-convergence",
         "equivalence", "identities", "inverse-inequality", "dimensions")

# workload -> [(process id, kind, --set overrides)]; why each exists: README.md
WORKLOADS = {
    "defaults": [(kind, kind, ()) for kind in KINDS],
    "grid-norms": [
        ("sparse-d2", "sparse-convergence", ("n=3..9",)),
        ("sparse-d3", "sparse-convergence", ("d=3", "p=1", "n=3..5")),
        ("mapped", "mapped-convergence", ("n=3..8",)),
    ],
    "pencils": [
        ("sparse", "inverse-inequality", ("variant=sparse", "n=3..7")),
        ("mapped", "inverse-inequality",
         ("variant=mapped", "p=2", "q=1", "n=3..5")),
    ],
    "refine-1d": [
        ("sparse-d1", "inverse-inequality", ("variant=sparse", "d=1", "n=6..8")),
    ],
}

# removed from the child environment so the program's own defaults are measured
THREAD_VARS = ("STUDY_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120
# a traced round takes longer than an untraced one; this much is reserved
TRACE_SLOWDOWN = 1.5

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def child_env():
    env = dict(os.environ)
    for key in THREAD_VARS + ("PYTHONPATH",):
        env.pop(key, None)
    return env


def run_child(argv, log_path, env=None, timeout=CHILD_TIMEOUT_S):
    """Run ``argv`` to completion and account for it alone via ``os.wait4``.

    Returns a dict with ``spawn`` and ``exit`` (``time.monotonic()`` just
    before the spawn and just after the reap), ``cpu_s`` (user + system),
    ``rss_mb`` (the child's own ``ru_maxrss``) and ``code``.
    """
    with open(log_path, "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"spawn": spawn, "exit": end, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


class Workload:
    """One workload's processes in a fresh work directory of the checkout."""

    def __init__(self, name, seed, work=WORK):
        self.name = name
        self.seed = seed
        self.specs = WORKLOADS[name]
        self.dir = os.path.join(work, name)
        self.env = child_env()
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.rounds = 0
        kinds = sorted({kind for _, kind, _ in self.specs})
        cfg_dir = os.path.join(self.dir, "configs")
        os.makedirs(cfg_dir)
        res = run_child([sys.executable, CHILD, SRC, cfg_dir, "--configs", *kinds],
                        os.path.join(cfg_dir, "log.txt"), self.env)
        if res["code"] != 0:
            raise BenchError(f"study gen-config failed (exit {res['code']}); "
                             f"see {cfg_dir}/log.txt")
        with open(os.path.join(cfg_dir, "provenance.json")) as fh:
            self.provenance = json.load(fh)
        self.cfg_dir = cfg_dir

    def run_process(self, rdir, ident, kind, sets, traced=False):
        """Run one ``study run`` process; its files are ``<rdir>/<ident>.*``."""
        base = os.path.join(rdir, ident)
        argv = [sys.executable, CHILD, SRC, base + ".stamp",
                base + ".spans.json" if traced else "-", "run",
                os.path.join(self.cfg_dir, f"{kind}.cfg"), "--out", base + ".csv"]
        for item in sets + ("timing=off", f"seed={self.seed}"):
            argv += ["--set", item]
        res = run_child(argv, base + ".log", self.env)
        res["ident"], res["base"] = ident, base
        return res

    def run_round(self, order, traced=False):
        """Run the processes in ``order``; check them once the last exits."""
        self.rounds += 1
        rdir = os.path.join(self.dir, f"round{self.rounds}")
        os.makedirs(rdir)
        procs = [self.run_process(rdir, *spec, traced=traced) for spec in order]
        for res in procs:
            self._check(res, traced)
        return {"wall_s": procs[-1]["exit"] - procs[0]["spawn"],
                "setup_s": sum(r["setup_s"] for r in procs),
                "cpu_s": sum(r["cpu_s"] for r in procs),
                "peak_rss_mb": max(r["rss_mb"] for r in procs),
                "procs": procs}

    def _check(self, res, traced):
        base = res["base"]
        res["problems"], res["rows_failing"], res["identical"] = [], 0, False
        try:
            with open(base + ".stamp") as fh:
                res["setup_s"] = float(fh.read()) - res["spawn"]
        except (OSError, ValueError):
            res["setup_s"] = float("nan")
        if res["code"] not in (0, 1):
            res["problems"].append(f"exit code {res['code']}; see {base}.log")
        try:
            with open(base + ".csv") as fh:
                text = fh.read()
        except OSError:
            res["problems"].append("wrote no CSV")
            return
        with open(os.path.join(REFERENCE, self.name, res["ident"] + ".csv")) as fh:
            problems, res["rows_failing"], res["identical"] = refcheck.compare(
                text, fh.read())
        res["problems"] += problems
        if traced:
            try:
                with open(base + ".spans.json") as fh:
                    res["trace"] = json.load(fh)
            except (OSError, ValueError):
                res["problems"].append(f"wrote no spans; see {base}.log")


def git_commit():
    """Commit of the checkout from its .git files, or None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def bench(name, seed, seconds, trace):
    """Run one workload for about ``seconds``; return its result record."""
    start = time.monotonic()
    wl = Workload(name, seed)
    rng = random.Random(seed)
    rounds = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        rounds.append(wl.run_round(rng.sample(wl.specs, len(wl.specs))))
        longest = max(longest, time.monotonic() - t0)
        reserve = longest * (1 + TRACE_SLOWDOWN) if trace else longest
        if time.monotonic() - start + reserve > seconds:
            break
    traced = wl.run_round(rng.sample(wl.specs, len(wl.specs)), traced=True) \
        if trace else None
    procs = [p for r in rounds + ([traced] if traced else []) for p in r["procs"]]
    failed = [p for p in procs if p["problems"]]
    record = {
        "workload": name,
        "rounds": len(rounds),
        "processes_per_round": len(wl.specs),
        "attempted": len(procs),
        "failed": len(failed),
        "problems": {p["ident"]: p["problems"] for p in failed},
        "rows_failing": sum(p["rows_failing"] for p in rounds[0]["procs"]),
        "identical": sum(p["identical"] for p in procs),
        "metrics": {key: statistics.median(r[key] for r in rounds)
                    for key in END_TO_END},
        "per_round": {key: [r[key] for r in rounds] for key in END_TO_END},
        "provenance": {**wl.provenance, "nproc": len(os.sched_getaffinity(0)),
                       "cpu_count": os.cpu_count(), "commit": git_commit(),
                       "seed": seed},
    }
    if traced:
        layer = spans.summarize([p["trace"] for p in traced["procs"]],
                                traced["procs"][0]["trace"]["cpu_count"])
        layer["studies.trace_overhead_s"] = (traced["wall_s"]
                                             - record["metrics"]["wall_s"])
        record["layers"] = layer
        record["traced_wall_s"] = traced["wall_s"]
    return record


def report(rec, trace):
    """Print a workload record for a reader; return its JSON metrics."""
    n = rec["rounds"]
    print(f"workload {rec['workload']}: {n} round(s) of "
          f"{rec['processes_per_round']} process(es), seed {rec['provenance']['seed']}")
    metrics = {}
    for key, unit in END_TO_END.items():
        val = rec["metrics"][key]
        spread = ", ".join(f"{v:.4f}" for v in rec["per_round"][key])
        print(f"  {key:14s} {val:12.4f} {unit:5s} (median of {n}: {spread})")
        metrics[key] = {"value": val, "unit": unit}
    rate = rec["failed"] / rec["attempted"]
    print(f"  {'error_rate':14s} {rate:12.4f} ratio ({rec['failed']} of "
          f"{rec['attempted']} study processes failed)")
    print(f"  rows_failing {rec['rows_failing']} per round; "
          f"byte-identical CSVs {rec['identical']} of {rec['attempted']}")
    for ident, problems in rec["problems"].items():
        for problem in problems[:5]:
            print(f"  FAILED {ident}: {problem}")
    if trace:
        metrics = {}
        print(f"  traced round wall {rec['traced_wall_s']:.4f} s")
        for key, unit in spans.PER_LAYER.items():
            val = rec["layers"][key]
            print(f"  {key:48s} {val:14.6g} {unit}")
            metrics[key] = {"value": val, "unit": unit}
    print("  provenance " + json.dumps(rec["provenance"], sort_keys=True))
    return metrics


def write_reference(name):
    """Write the CSVs of one round, in list order, as the reference."""
    wl = Workload(name, seed=0)
    out = os.path.join(REFERENCE, name)
    os.makedirs(out, exist_ok=True)
    for ident, kind, sets in wl.specs:
        res = wl.run_process(wl.dir, ident, kind, sets)
        if res["code"] not in (0, 1):
            raise BenchError(f"{name}/{ident} exited {res['code']}")
        shutil.copyfile(res["base"] + ".csv", os.path.join(out, ident + ".csv"))
        print(f"wrote {out}/{ident}.csv (exit {res['code']})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference/ from this checkout's output")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not os.path.isfile(os.path.join(SRC, "sgsplines", "cli.py")):
            raise BenchError(f"no sgsplines sources under {SRC}")
        if args.write_reference:
            for name in names:
                write_reference(name)
            return 0
        for name in names:
            if not os.path.isdir(os.path.join(REFERENCE, name)):
                raise BenchError(f"no reference outputs for {name}")
        records = [bench(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for rec in records:
        own = report(rec, args.trace)
        if len(records) == 1:
            metrics = own
        else:
            metrics.update({f"{rec['workload']}.{k}": v for k, v in own.items()})
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

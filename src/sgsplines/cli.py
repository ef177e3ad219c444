"""Command-line entry point for the study runner.

Subcommands: ``study run <config> [--set k=v]... [--out path]``,
``study list-kinds``, ``study gen-config <kind>``.  Exit status is 0 when
every row passes, 1 when any check fails, and 2 for usage or config errors.
Rows are computed one at a time; OpenBLAS's threads are the only
parallelism.  scipy, with its own OpenBLAS pool, loads only in a process
that calls it: the package imports scipy only inside the functions that call
it, so ``identities``, ``dimensions`` and ``equivalence`` never load it.
Importing the package sets OPENBLAS_THREAD_TIMEOUT=4 unless
the environment already sets it, so that the idle workers of numpy's and
scipy's OpenBLAS sleep after a short spin instead of taking the cores from
each other; thread counts and printed digits stay the same.  Set the
variable before the interpreter imports numpy to override it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .studies import (
    _KINDS,
    KINDS,
    ConfigError,
    default_config,
    parse_config,
    run_study,
)

_KEY_NOTES = {
    "geometry": "builtin name or file path",
    "variant": "univariate | sparse | mapped",
    "timing": "'on' records wall time per row",
}


def _fmt(value):
    if not isinstance(value, tuple):
        return str(value)
    if len(value) > 2 and value == tuple(range(value[0], value[-1] + 1)):
        return f"{value[0]}..{value[-1]}"
    return ",".join(str(v) for v in value)


def _gen_config(kind):
    """Template config: the kind's defaults in StudyConfig field order, then
    the keys every kind takes."""
    cfg = default_config(kind)
    keys = [f.name for f in fields(cfg) if f.name in _KINDS[kind].defaults]
    lines = [f"# {kind}: {_KINDS[kind].note}", f"kind={kind}"]
    for key in keys + ["seed", "timing"]:
        note = f"  # {_KEY_NOTES[key]}" if key in _KEY_NOTES else ""
        lines.append(f"{key}={_fmt(getattr(cfg, key))}{note}")
    return "\n".join(lines + ["# out=report.csv"]) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="study", description="Run sparse-grid spline verification studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a study from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
    p_run.add_argument("--out", default=None, help="CSV output path")

    sub.add_parser("list-kinds", help="list available study kinds")

    p_gen = sub.add_parser("gen-config", help="print a template config")
    p_gen.add_argument("kind", choices=KINDS)

    args = parser.parse_args(argv)

    if args.command == "list-kinds":
        for kind, entry in _KINDS.items():
            print(f"{kind:24s} {entry.note}")
        return 0

    if args.command == "gen-config":
        sys.stdout.write(_gen_config(args.kind))
        return 0

    try:
        cfg = parse_config(args.config, args.overrides)
        if args.out:
            cfg = replace(cfg, out=args.out)
        report = run_study(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

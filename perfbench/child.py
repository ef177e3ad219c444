"""One child process of the benchmark.

    python3 child.py <src-dir> <stamp-file> <spans-file or -> <study args...>

Imports ``sgsplines.cli`` from ``<src-dir>`` (never an installed copy),
writes the ``time.monotonic()`` reading taken right after that import to
``<stamp-file>``, and exits with the status of ``sgsplines.cli.main``.  With a
spans file it first installs the tracer of ``spans.py`` and writes the spans
when ``main`` returns.

    python3 child.py <src-dir> <out-dir> --configs <kind>...

writes ``<kind>.cfg`` from ``study gen-config <kind>`` for each kind, and
``provenance.json`` with library versions and the BLAS in use.
"""

import os
import sys
import time

src, out, spans_path, *argv = sys.argv[1:]
sys.path.insert(0, src)
import sgsplines.cli  # noqa: E402

ready = time.monotonic()
CRASHED = 70


def _configs():
    import contextlib
    import io
    import json
    import platform

    import numpy
    import scipy

    for kind in argv:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sgsplines.cli.main(["gen-config", kind])
        if code != 0:
            return code
        with open(os.path.join(out, f"{kind}.cfg"), "w") as fh:
            fh.write(buf.getvalue())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open(os.path.join(out, "provenance.json"), "w") as fh:
        json.dump({"python": platform.python_version(),
                   "numpy": numpy.__version__, "scipy": scipy.__version__,
                   "blas": f"{blas.get('name')} {blas.get('version')}"}, fh)
    return 0


def _main():
    package = os.path.dirname(os.path.realpath(sgsplines.cli.__file__))
    if package != os.path.realpath(os.path.join(src, "sgsplines")):
        print(f"sgsplines imported from {package}, not {src}", file=sys.stderr)
        return 3
    if spans_path == "--configs":
        return _configs()
    with open(out, "w") as fh:
        fh.write(repr(ready))
    if spans_path == "-":
        return _run(sgsplines.cli.main)
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        return _run(tracer.wrap("cli.main", sgsplines.cli.main))
    finally:
        tracer.write(spans_path, ready=ready, cpu_count=os.cpu_count())


def _run(main):
    """Exit status of ``main``; a traceback becomes CRASHED, since Python
    would report it as 1, the status of a failed check."""
    try:
        return main(argv)
    except Exception:
        import traceback

        traceback.print_exc()
        return CRASHED


sys.exit(_main())

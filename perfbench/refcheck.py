"""Comparison of a study CSV with its committed reference.

A CSV matches when its header and its row keys (kind, d, p, n, level, r, q,
source) equal the reference's in order, and every ``value`` lies within
``REL_TOL`` relative plus ``ABS_FLOOR`` absolute of the reference value.
``bound``, ``ratio`` and ``pass`` come from theory constants, so they are not
compared; the number of rows with ``pass=false`` is reported instead, so a
later fix of a constant still matches.
"""

import csv
import io

KEY = ("kind", "d", "p", "n", "level", "r", "q", "source")
REL_TOL = 1e-6
# below every roundoff-level bound a study checks (the smallest is the 1e-9
# equivalence residual bound), so roundoff values that differ with the BLAS
# thread count still match
ABS_FLOOR = 1e-11


def _rows(text):
    reader = csv.DictReader(io.StringIO(text))
    return reader.fieldnames, list(reader)


def compare(text, ref_text):
    """Return ``(problems, rows_failing, identical)`` for a CSV against its
    reference; the CSV matches when ``problems`` is empty."""
    header, rows = _rows(text)
    ref_header, ref_rows = _rows(ref_text)
    problems = []
    if header != ref_header:
        problems.append(f"header {header} != {ref_header}")
        return problems, 0, False
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        key = tuple(row[k] for k in KEY)
        ref_key = tuple(ref[k] for k in KEY)
        if key != ref_key:
            problems.append(f"row {i}: key {key} != {ref_key}")
            continue
        if not _close(row["value"], ref["value"]):
            problems.append(f"row {i} {key}: value {row['value']} != {ref['value']}")
    failing = sum(row["pass"] != "true" for row in rows)
    return problems, failing, text == ref_text


def _close(text, ref_text):
    if text == ref_text:
        return True
    try:
        a, b = float(text), float(ref_text)
    except ValueError:
        return False
    return abs(a - b) <= ABS_FLOOR + REL_TOL * abs(b)

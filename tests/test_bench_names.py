"""The benchmark's tracer patches sgsplines names from outside; every name it
lists must exist, or each traced benchmark process dies at install time."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _spans()
TARGETS = [target for targets in SPANS_MODULE.FUNCTIONS.values()
           for target in targets]


@pytest.mark.parametrize("target", TARGETS, ids=".".join)
def test_traced_function_resolves(target):
    owner = importlib.import_module(f"sgsplines.{target[0]}")
    for attr in target[1:]:
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("key", sorted(SPANS_MODULE.CACHES))
def test_traced_cache_resolves(key):
    module, attr = SPANS_MODULE.CACHES[key]
    cached = getattr(importlib.import_module(f"sgsplines.{module}"), attr)
    assert callable(cached.cache_info)


def test_traced_thread_pool_is_a_module_attribute():
    studies = importlib.import_module("sgsplines.studies")
    assert isinstance(studies.ThreadPoolExecutor, type)

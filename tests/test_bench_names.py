"""Every eopart name the benchmark's tracer wraps still resolves.

eobench/spans.py lists the traced (module, function) pairs and the verify
functions it wraps; a name removed from eopart would break
`eobench/run.py --trace 1` at install time.  spans.py imports only the
standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "eobench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("eobench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
VERIFY_NAMES = (*spans.VERIFY_FUNCS, "run_suite", "run_all", "worker_count")


@pytest.mark.parametrize("module,name", sorted(spans.TRACED))
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"eopart.{module}"), name))


@pytest.mark.parametrize("name", VERIFY_NAMES)
def test_verify_function_resolves(name):
    assert callable(getattr(importlib.import_module("eopart.verify"), name))

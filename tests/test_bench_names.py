"""Every eopart name the benchmark's tracer wraps still resolves.

eobench/spans.py lists the traced (module, function) pairs and the verify
functions it wraps; a name removed from eopart would break
`eobench/run.py --trace 1` at install time.  spans.py imports only the
standard library, so it is loaded here by path.  One traced run checks the
rest: it exits 0 only when every per-layer metric name got a span.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "eobench" / "spans.py"


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


def test_traced_run_spans_every_layer_metric():
    # one plain round and one traced round of each workload, about 4 s; the
    # "large" eta_factor and divide spans come from `table --series eobar` alone
    argv = ["--workload", "census", "--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run(
        [sys.executable, "eobench/run.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode == 0, run.stderr[-2000:]

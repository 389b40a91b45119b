"""Spans around calls into eopart's layers, recorded from outside the program.

`Tracer.install` replaces each traced function by a wrapper in every eopart
module that holds a reference to it, so calls between modules (verify ->
partitions -> series) are seen too.  Spans are kept in memory and written
out when the round ends, one per line with the fields of SPAN_FIELDS.  A
span's name carries the size class of the input, "small" or "large", with
the bounds in TRACED.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time

SERIES_SMALL = 1000
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "workload", "thread", "count", "error")
VERIFY_FUNCS = ("density_report", "scan_congruences", "check_family", "gamma_count")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _pos(i, name):
    return lambda a, k: _arg(a, k, i, name)


def _series_order(args, kwargs):
    return min(args[0].order, args[1].order)


# (module, function) -> (input size of a call, largest input of the "small"
# class).  The size is the series order, the integer argument, or the
# radicand m of h(-m).
TRACED = {
    ("series", "eta_factor"): (_pos(1, "order"), SERIES_SMALL),
    ("series", "theta"): (_pos(1, "order"), SERIES_SMALL),
    ("series", "mul"): (_series_order, SERIES_SMALL),
    ("series", "divide"): (_series_order, SERIES_SMALL),
    ("series", "eta_quotient_mod"): (_pos(2, "order"), SERIES_SMALL),
    ("partitions", "eobar_count_enum"): (_pos(0, "n"), 40),
    ("partitions", "eobar_series"): (_pos(0, "order"), SERIES_SMALL),
    ("partitions", "eobar_series_mod"): (_pos(0, "order"), SERIES_SMALL),
    ("quadforms", "r113"): (_pos(0, "n"), 10_000),
    ("quadforms", "r133"): (_pos(0, "n"), 10_000),
    ("quadforms", "A_direct"): (_pos(0, "n"), 10_000),
    ("quadforms", "class_number"): (_pos(0, "m"), 10_000),
    ("quadforms", "classify_mod4"): (_pos(0, "n"), 10_000),
    ("quadforms", "f_series"): (_pos(0, "order"), SERIES_SMALL),
    ("quadforms", "b_series"): (_pos(0, "order"), SERIES_SMALL),
    ("arith", "factorize"): (_pos(0, "n"), 10**6),
    ("arith", "is_prime"): (_pos(0, "n"), 10**6),
}


def _result_size(result) -> int:
    """Values a call delivered: coefficients of a series, else one."""
    if hasattr(result, "order") and hasattr(result, "coeffs"):
        return result.order + 1
    if hasattr(result, "shape"):
        return int(result.shape[0])
    return 1


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first span belongs to whatever the main thread
            # has open: the run_all call that submitted it.
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(
                [sid, name, time.perf_counter(), None, parent, self.workload,
                 threading.get_ident(), 0, False]
            )
        stack.append(sid)
        return sid

    def close(self, sid: int, count: int = 0, error: bool = False) -> None:
        span = self.spans[sid]
        span[3] = time.perf_counter()
        span[7] = count
        span[8] = error
        self._stack().pop()

    def _wrap(self, fn, namer, counted: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, error=True)
                raise
            self.close(sid, _result_size(result) if counted else 0)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced eopart function in every module that names it."""
        from eopart import cli, verify  # noqa: F401  (load every layer)

        targets = {}
        for (mod, fn_name), (size, small_max) in TRACED.items():
            full = f"{mod}.{fn_name}"

            def namer(a, k, full=full, size=size, small_max=small_max):
                n = size(a, k)
                if full == "series.eta_quotient_mod":
                    full = f"{full}.m{_arg(a, k, 3, 'm')}"
                return f"{full}.{'small' if n <= small_max else 'large'}"

            fn = getattr(sys.modules[f"eopart.{mod}"], fn_name)
            targets[id(fn)] = self._wrap(fn, namer, counted=mod in ("series", "quadforms"))
        for fn_name in VERIFY_FUNCS:
            fn = getattr(verify, fn_name)
            targets[id(fn)] = self._wrap(fn, lambda a, k, n=fn_name: f"verify.{n}", False)
        targets[id(verify.run_suite)] = self._wrap(
            verify.run_suite, lambda a, k: f"verify.{_arg(a, k, 0, 'name')}", False
        )
        targets[id(verify.run_all)] = self._wrap(
            verify.run_all, lambda a, k: "verify.run_all", False
        )
        for name, module in list(sys.modules.items()):
            if name != "eopart" and not name.startswith("eopart."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    setattr(module, attr, wrapper)

    def write(self, path: str) -> None:
        """Gzipped, one JSON array per line; the first line names the fields."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-name busy time, pool wait and self time per layer from spans."""
    out: dict[str, float] = {}
    children: dict[int, list[list]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    wait = 0.0
    for s in spans:
        name, start, end = s[1], s[2], s[3]
        if end is None:
            continue
        key = f"{name}_s"
        out[key] = out.get(key, 0.0) + (end - start)
        parent = spans[s[4]] if s[4] is not None else None
        if parent is not None and parent[1] == "verify.run_all" and parent[6] != s[6]:
            wait += start - parent[2]
        # self time: the span minus the union of its children's intervals
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s[0], ()), key=lambda c: c[2]):
            lo, hi = max(c[2], start), min(c[3] if c[3] is not None else end, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        layer = f"{name.split('.')[0]}.self_s"
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
        if name.startswith(("series.", "quadforms.")):
            counter = "series.coeffs" if name.startswith("series.") else "quadforms.values"
            out[counter] = out.get(counter, 0) + s[7]
    out["verify.run_all.wait_s"] = wait
    return out

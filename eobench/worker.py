"""One round of one workload in a fresh interpreter (started by run.py).

    python3 eobench/worker.py '{"mode": "run"|"trace"|"setup", "workload": ..., "seed": ...,
                                "spawn": ..., "src": ..., "out_dir": ..., "run_dir": ...}'

`spawn` is run.py's CLOCK_MONOTONIC reading just before it started this
process, so set-up time covers interpreter start-up and `import eopart`.
Prints one JSON object as the last line of stdout.
"""

import json
import sys
import time

import eopart  # timed: nothing heavier may be imported before it

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import importlib.util  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def environment() -> dict:
    from eopart import verify

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "run_all_pool": verify.worker_count(),
        "PCL_THREADS": os.environ.get("PCL_THREADS"),
        "eopart": os.path.dirname(eopart.__file__),
    }


def run_round(args: dict) -> dict:
    workload, seed, traced = args["workload"], args["seed"], args["mode"] == "trace"
    ops = workloads.WORKLOADS[workload](random.Random(seed), args["run_dir"])
    tracer = Tracer(workload) if traced else None
    if tracer:
        tracer.install()
    outputs = []
    t0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        sid = tracer.open(op.name) if tracer and op.cli else None
        try:
            out, err = op.call(), None
        except Exception as exc:  # an operation that raises is a failed operation
            out, err = None, "".join(traceback.format_exception_only(exc)).strip()
        if sid is not None:
            tracer.close(sid, error=err is not None)
        outputs.append((out, err))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    refs = workloads.Refs(os.path.join(args["run_dir"], f"refs-{workload}.pkl"))
    failures, values, wrong, cli_rows = [], 0, 0, 0
    for op, (out, err) in zip(ops, outputs):
        if err is None and op.cli and out.rc != op.expect_rc:
            err = f"exit {out.rc}, expected {op.expect_rc}: {out.stderr.strip()[-300:]}"
            if not out.has_output():
                out = None
        reason = None
        if out is not None:
            try:
                reason = op.check(out, refs)
            except Exception as exc:  # output that cannot be read is wrong output
                reason = f"unreadable output: {exc!r}"
        if reason:
            wrong += 1
            failures.append({"op": op.name, "kind": "wrong", "detail": reason})
            continue
        if err is not None:
            failures.append({"op": op.name, "kind": "error", "detail": err})
            continue
        n = op.values(out)
        values += n
        if op.cli:
            cli_rows += n
    refs.save()
    result = {
        "workload": workload,
        "traced": traced,
        "setup_s": IMPORTED - args["spawn"],
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "values": values,
        "attempted": len(ops),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "env": environment(),
    }
    if tracer:
        path = os.path.join(args["out_dir"], f"spans-{workload}-seed{seed}.jsonl.gz")
        tracer.write(path)
        result["spans_file"] = path
        result["spans"] = len(tracer.spans)
        result["layers"] = {**layer_metrics(tracer.spans), "cli.rows": cli_rows}
    return result


def main() -> None:
    args = json.loads(sys.argv[1])
    if not os.path.abspath(eopart.__file__).startswith(args["src"] + os.sep):
        sys.exit(f"eopart imported from {eopart.__file__}, not from {args['src']}")
    if args["mode"] == "setup":
        result = {"setup_s": IMPORTED - args["spawn"]}
    else:
        result = run_round(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

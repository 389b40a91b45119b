"""eopart benchmark: census, lattice and verify-all workloads.

    python3 eobench/run.py --workload census|lattice|verify-all --seed N --seconds S --trace 0|1

Run from the root of an eopart checkout; the library is imported from its
src/.  Each round runs the workload's whole operation list in a fresh
interpreter (cold caches, one process doing the work), and rounds repeat
until S seconds have passed.  With --trace 0 the last stdout line carries
the end-to-end metrics (medians over rounds); with --trace 1 it carries the
per-layer metrics of one traced round of every workload.  README.md has the
details.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("census", "lattice", "verify-all")
SETUP_PROBES = 5
DEADLINE_S = 170  # every run must end within 180 s
CHILD_ENV = {
    # numpy's BLAS would start its own thread pool; keep run_all's the only one.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    names = []
    for fn in ("eta_quotient_mod.m4", "eta_quotient_mod.m8", "eta_factor", "mul", "divide"):
        names += [f"series.{fn}.small_s", f"series.{fn}.large_s"]
    names += ["series.theta.large_s", "series.coeffs"]
    names += [
        "partitions.eobar_count_enum.small_s",
        "partitions.eobar_count_enum.large_s",
        "partitions.eobar_series.large_s",
        "partitions.eobar_series_mod.large_s",
    ]
    for fn in ("r113", "r133", "A_direct", "class_number"):
        names += [f"quadforms.{fn}.small_s", f"quadforms.{fn}.large_s"]
    names += [
        "quadforms.classify_mod4.large_s",
        "quadforms.f_series.large_s",
        "quadforms.b_series.large_s",
        "quadforms.values",
        "arith.factorize.small_s",
        "arith.factorize.large_s",
        "arith.is_prime.large_s",
    ]
    suites = ("triple-product", "eobar-oracle", "r113-A", "classnumber", "h6p", "genus", "hecke",
              "lemmas33-35", "classification", "eobar-A", "a-eq-b", "families")
    names += [f"verify.{s}_s" for s in suites]
    names += ["verify.run_all.wait_s", "verify.density_report_s", "verify.scan_congruences_s",
              "verify.check_family_s", "verify.gamma_count_s"]
    names += [f"cli.{c}_s" for c in ("density", "scan", "table-r113", "table-r133", "verify-all",
                                     "table-eobar", "table-a", "table-b")]
    names += ["cli.rows"]
    layers = ("series", "partitions", "quadforms", "arith", "verify", "cli")
    names += [f"{layer}.self_s" for layer in layers]
    names += ["trace.overhead_s"]
    return {n: ("count" if n.endswith((".coeffs", ".values", ".rows")) else "s") for n in names}


PER_LAYER = _per_layer()


class BenchError(Exception):
    pass


@dataclass
class Run:
    """Where and until when this run's rounds execute."""

    root: str  # the checkout; eopart comes from root/src
    out_dir: str
    run_dir: str  # private to this run: references its rounds share, CLI output files
    seed: int
    deadline: float

    def spawn(self, mode: str, workload: str | None) -> dict:
        env = dict(os.environ, **CHILD_ENV)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        spec = {
            "mode": mode, "workload": workload, "seed": self.seed, "src": src,
            "out_dir": self.out_dir, "run_dir": self.run_dir,
            "spawn": time.clock_gettime(time.CLOCK_MONOTONIC),
        }
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=self.root,
        )
        try:
            out, err = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} round of {workload} passed the {DEADLINE_S} s deadline")
        if proc.returncode != 0 or not out.strip():
            raise BenchError(
                f"{mode} round of {workload} exited {proc.returncode}: {err.strip()[-2000:]}"
            )
        return json.loads(out.strip().splitlines()[-1])


def measure(run: Run, workload: str, seconds: int) -> tuple[list[dict], dict]:
    setups = [run.spawn("setup", None)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rounds.append(run.spawn("run", workload))
        took = time.monotonic() - began
        if time.monotonic() - start >= seconds or run.deadline - time.monotonic() < 1.5 * took:
            break
    setups += [r["setup_s"] for r in rounds]
    med = lambda key: statistics.median(r[key] for r in rounds)  # noqa: E731
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "values_per_s": statistics.median(r["values"] / r["wall_s"] for r in rounds),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    return rounds, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def trace(run: Run, workload: str, seconds: int) -> tuple[list[dict], dict]:
    plain = run.spawn("run", workload)
    rounds = [plain]
    layers: dict[str, float] = {}
    for w in WORKLOADS:
        r = run.spawn("trace", w)
        rounds.append(r)
        for k, v in r["layers"].items():
            layers[k] = layers.get(k, 0) + v
        if w == workload:
            layers["trace.overhead_s"] = r["wall_s"] - plain["wall_s"]
    missing = [n for n in PER_LAYER if n not in layers]
    if missing:
        raise BenchError(f"traced rounds produced no spans for {missing}")
    return rounds, {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eopart", "__init__.py")):
        print(f"error: no eopart source under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    run = Run(root, out_dir, tempfile.mkdtemp(prefix="run-", dir=out_dir), args.seed, deadline)
    try:
        rounds, metrics = (trace if args.trace else measure)(run, args.workload, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.run_dir)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": rounds[0]["env"], "rounds": rounds, **result,
    }
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(rounds[0]["env"]))
    for r in rounds:
        for f in r["failures"]:
            print(f"failed: {r['workload']} {f['op']} ({f['kind']}): {f['detail'][:200]}")
    print(f"{args.workload}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

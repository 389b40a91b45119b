"""Command-line surface: verification suites, coefficient tables,
congruence scanning, and density reports.

Exit codes are a stable contract: 0 all-pass, 1 counterexample or failed
assertion, 2 usage/configuration error or an allocation refused for want
of memory.  Output is CSV (tables) or a single JSON record; both carry
identical numbers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import partitions, quadforms, verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# The exact series of each table, by name; each builder refuses order < 0.
TABLE_SERIES = {
    "eobar": partitions.eobar_series,
    "A": quadforms.A_series,
    "a": quadforms.f_series,
    "b": quadforms.b_series,
    "r113": lambda order: quadforms.ternary_series(1, order),
    "r133": lambda order: quadforms.ternary_series(3, order),
}


def _emit(record: dict, fmt: str, out: str | None, columns: tuple[str, ...] = ()) -> int:
    if fmt == "json":
        text = json.dumps(record, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        rows = record["rows"]
        # every key gets a column in first-seen order (a row without it leaves
        # the cell empty); with no rows, the command's known columns are the header
        fields = list(dict.fromkeys(k for row in rows for k in row)) or list(columns)
        if fields:
            writer = csv.DictWriter(buf, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _record(args, rows: list[dict], status: str) -> dict:
    skip = ("command", "func", "format", "out")  # command is a top-level field
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    return {"command": args.command, "parameters": params, "rows": rows, "status": status}


def cmd_verify(args) -> int:
    if args.suite == "all":
        reports = verify.run_all(args.limit, args.order)
    else:
        reports = verify.run_suite(args.suite, args.limit, args.order)
    # a JSON record on stdout must be all that stdout carries
    log = sys.stderr if args.format == "json" and not args.out else sys.stdout
    rows = []
    for rep in reports:
        print(rep, file=log)
        rows.append(
            {
                "suite": rep.suite,
                "range": rep.range_checked,
                "passed": rep.passed,
                "counterexample": rep.counterexample,
                **rep.details,
            }
        )
    ok = all(r.passed for r in reports)
    if args.out or args.format == "json":
        rc = _emit(_record(args, rows, "pass" if ok else "fail"), args.format, args.out)
        if rc:
            return rc
    return EXIT_OK if ok else EXIT_FAIL


def cmd_table(args) -> int:
    # the table applies % mod itself, so only the CLI can check the modulus
    if args.mod is not None and args.mod < 2:
        print(f"error: got --mod {args.mod}; the table needs --mod >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.series == "eobar" and args.mod is not None:
        values = [int(v) for v in partitions.eobar_series_mod(args.order, args.mod)]
    else:
        values = TABLE_SERIES[args.series](args.order).coeffs
        if args.mod is not None:
            values = [v % args.mod for v in values]
    rows = [{"n": n, "value": v} for n, v in enumerate(values)]
    return _emit(_record(args, rows, "ok"), args.format, args.out)


def cmd_scan(args) -> int:
    fams = verify.scan_congruences(args.a_max, args.n_max)
    columns = ("A", "B", "trivial")
    rows = [dict(zip(columns, (f.modulus_A, f.residue_B, f.trivial))) for f in fams]
    return _emit(_record(args, rows, "ok"), args.format, args.out, columns)


def cmd_density(args) -> int:
    try:
        checkpoints = [int(x) for x in args.checkpoints.split(",") if x]
    except ValueError:
        print("error: --checkpoints must be a comma list of integers", file=sys.stderr)
        return EXIT_USAGE
    rows = verify.density_report(checkpoints)
    ok = all(r["bound_ok"] for r in rows)
    rc = _emit(_record(args, rows, "pass" if ok else "fail"), args.format, args.out)
    if rc:
        return rc
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eopart",
        description="Partition-congruence toolkit: verify, tabulate, scan, density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", help="a suite name, or 'all'")
    p.add_argument("--limit", type=int, default=None, help="sweep bound override")
    p.add_argument("--order", type=int, default=None, help="series truncation override")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="emit an n,value coefficient table")
    p.add_argument("--series", required=True, choices=TABLE_SERIES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mod", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("scan", help="scan for congruence families mod 4")
    p.add_argument("--a-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("density", help="residue-class density report")
    p.add_argument("--checkpoints", required=True, help="comma list, e.g. 10000,100000")
    common(p)
    p.set_defaults(func=cmd_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # The library refuses out-of-range arguments; a refusal is a usage error.
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message; print the message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # an allocation the machine refused is not a counterexample (exit 1)
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: verification suites, coefficient tables,
congruence scanning, and density reports.

Exit codes are a stable contract: 0 all-pass, 1 counterexample or failed
assertion, 2 usage/configuration error or an allocation refused for want
of memory.  Every command follows one rule.  Its record, CSV or a single
JSON record carrying identical numbers, goes to --out or else to stdout;
verify's report lines go to the other stream.  `main` opens --out before
the command runs, as a shell redirection does, so an unwritable path is
refused before any work and a refused command leaves --out empty.  Every
refusal raises, and `main` prints it as one `error:` line and exits 2.  A
reader that closes stdout early (`| head`) is no refusal: the command ends
quietly, with the exit code of its verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
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


@contextlib.contextmanager
def _reader_may_close(stream):
    """Write to stream in the block, then flush it.  A stdout whose reader has
    closed it ends the block quietly: fd 1 then points at devnull, so later
    writes and the flush at exit go nowhere, and the command goes on."""
    try:
        yield
        stream.flush()
    except BrokenPipeError:
        if stream is not sys.stdout:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(out, args, rows: list[dict], status: str, columns: tuple[str, ...] = ()) -> int:
    """Write the command's record onto out; exit 1 on a "fail" status."""
    with _reader_may_close(out):
        if args.format == "json":
            skip = ("command", "func", "format", "out")  # command is a top-level field
            params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
            record = {"command": args.command, "parameters": params, "rows": rows, "status": status}
            out.write(json.dumps(record, indent=2, default=str) + "\n")
        else:
            # every key gets a column in first-seen order (a row without it leaves
            # the cell empty); with no rows, the command's known columns are the header
            fields = list(dict.fromkeys(k for row in rows for k in row)) or list(columns)
            if fields:
                writer = csv.writer(out)
                writer.writerow(fields)
                writer.writerows([row.get(f, "") for f in fields] for row in rows)
    return EXIT_FAIL if status == "fail" else EXIT_OK


def cmd_verify(args, out) -> int:
    if args.suite == "all":
        reports = verify.run_all(args.limit, args.order)
    else:
        reports = verify.run_suite(args.suite, args.limit, args.order)
    # the report lines take whichever stream the record does not
    log = sys.stderr if out is sys.stdout else sys.stdout
    with _reader_may_close(log):
        for rep in reports:
            print(rep, file=log)
    rows = [
        {
            "suite": rep.suite,
            "range": rep.range_checked,
            "passed": rep.passed,
            "counterexample": rep.counterexample,
            **rep.details,
        }
        for rep in reports
    ]
    return _emit(out, args, rows, "pass" if all(r.passed for r in reports) else "fail")


def cmd_table(args, out) -> int:
    # the table applies % mod itself, so only the CLI can check the modulus
    if args.mod is not None and args.mod < 2:
        raise ValueError(f"got --mod {args.mod}; the table needs --mod >= 2")
    if args.series == "eobar" and args.mod is not None:
        values = [int(v) for v in partitions.eobar_series_mod(args.order, args.mod)]
    else:
        values = TABLE_SERIES[args.series](args.order).coeffs
        if args.mod is not None:
            values = [v % args.mod for v in values]
    return _emit(out, args, [{"n": n, "value": v} for n, v in enumerate(values)], "ok")


def cmd_scan(args, out) -> int:
    fams = verify.scan_congruences(args.a_max, args.n_max)
    columns = ("A", "B", "trivial")
    rows = [dict(zip(columns, (f.modulus_A, f.residue_B, f.trivial))) for f in fams]
    return _emit(out, args, rows, "ok", columns)


def cmd_density(args, out) -> int:
    try:
        checkpoints = [int(x) for x in args.checkpoints.split(",") if x]
    except ValueError:
        raise ValueError("--checkpoints must be a comma list of integers") from None
    rows = verify.density_report(checkpoints)
    return _emit(out, args, rows, "pass" if all(r["bound_ok"] for r in rows) else "fail")


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
        # the record's stream is settled before the command computes
        try:
            with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
                return args.func(args, out)
        except OSError as exc:  # the library does no I/O, so the stream failed
            raise ValueError(f"cannot write {args.out or 'stdout'}: {exc}") from exc
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

"""README's lists of names and the registries they document stay equal."""

import argparse
import csv
import io
import re
import typing
from pathlib import Path

from eopart import cli, series, verify

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_suite_names_are_the_registry():
    listed = re.search(r"^Suite names:(.*?)\.\n\n", README, re.S | re.M).group(1)
    assert [name.strip() for name in listed.split(",")] == list(verify.SUITES)


def test_table_series_are_the_registry():
    listed = re.search(r"--series ([\w|]+)", README).group(1)
    assert listed.split("|") == list(cli.TABLE_SERIES)


def test_theta_kinds_are_the_exponent_table():
    kinds = [k for form in series._THETA_EXPONENTS for k in (form, f"{form}_alt")]
    assert list(typing.get_args(series.ThetaKind)) == kinds


def test_cli_synopsis_is_the_parser():
    # each synopsis line lists its subcommand's own options in parser
    # order; --format and --out are stated once for every command
    block = re.search(r"^## CLI\n\n```\n(.*?)```", README, re.S | re.M).group(1)
    synopsis = {}
    for line in block.splitlines():
        _, command, rest = line.split(maxsplit=2)
        synopsis[command] = re.findall(r"--[\w-]+", rest)
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    shared = {"--help", "--format", "--out"}
    parsed = {
        command: [s for a in p._actions for s in a.option_strings if s.startswith("--")]
        for command, p in sub.choices.items()
    }
    assert synopsis == {c: [s for s in opts if s not in shared] for c, opts in parsed.items()}
    assert all({"--format", "--out"} <= set(opts) for opts in parsed.values())
    assert README.count("All commands accept `--format csv|json` and `--out PATH`") == 1


def _example(command):
    """argv and comment of README's example line for one subcommand."""
    line = re.search(rf"^eopart {command} (.*?)\s+# (.*)$", README, re.M)
    return [command, *line.group(1).split()], line.group(2)


def test_table_example_prints_its_last_row(capsys):
    argv, comment = _example("table")
    assert (argv, comment) == (["table", "--series", "eobar", "--order", "8"], "last row: 8,5")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.split()[-1] == "8,5"


def test_scan_example_finds_its_residues(capsys):
    argv, comment = _example("scan")
    assert (argv, comment) == (
        ["scan", "--a-max", "25", "--n-max", "400"],
        "finds residues 3,13,18,23 mod 25",
    )
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.split()
    assert [r for r in rows if r.startswith("25,")] == [f"25,{b},False" for b in (3, 13, 18, 23)]


def test_verify_example_checks_the_families(capsys):
    argv, comment = _example("verify")
    assert (argv, comment) == (
        ["verify", "--suite", "families"],
        "theorem families to order 150000",
    )
    assert cli.main(argv) == 0
    [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert (row["range"], row["passed"]) == ("order 150000", "True")


def test_density_example_is_the_census_anchor(capsys):
    argv, comment = _example("density")
    assert (argv, comment) == (["density", "--checkpoints", "1000000"], "divisibility-by-4 census")
    assert cli.main(argv) == 0
    [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert (row["odd"], row["two_mod4"], row["zero_mod4"]) == ("577", "62439", "936985")

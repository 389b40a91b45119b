"""README's lists of names and the registries they document stay equal."""

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

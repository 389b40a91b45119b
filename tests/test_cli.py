import csv
import io
import json
import pathlib

import numpy as np
import pytest

from eopart import partitions, quadforms, verify
from eopart.cli import TABLE_SERIES, main
from eopart.quadforms import b_series_theta
from eopart.series import eta_quotient_mod


GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTable:
    def test_eobar_fixture(self, capsys):
        code, out, _ = run(capsys, "table", "--series", "eobar", "--order", "8")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == {"n": "0", "value": "1"}
        assert rows[-1] == {"n": "8", "value": "5"}

    def test_A_mod4(self, capsys):
        code, out, _ = run(
            capsys, "table", "--series", "A", "--order", "14", "--mod", "4"
        )
        assert code == 0
        assert parse_csv(out)[14] == {"n": "14", "value": "2"}

    @pytest.mark.parametrize("series", ["r113", "r133"])
    def test_r113(self, capsys, series):
        # the table is the theta product; every row must equal the lattice loop
        code, out, _ = run(capsys, "table", "--series", series, "--order", "400")
        assert code == 0
        loop = getattr(quadforms, series)
        assert [(int(r["n"]), int(r["value"])) for r in parse_csv(out)] == [
            (n, loop(n)) for n in range(401)
        ]

    def test_csv_json_parity(self, capsys):
        _, csv_out, _ = run(capsys, "table", "--series", "b", "--order", "12")
        _, json_out, _ = run(
            capsys, "table", "--series", "b", "--order", "12", "--format", "json"
        )
        record = json.loads(json_out)
        assert record["command"] == "table"
        assert record["parameters"] == {"series": "b", "order": 12}
        csv_rows = [(int(r["n"]), int(r["value"])) for r in parse_csv(csv_out)]
        json_rows = [(r["n"], r["value"]) for r in record["rows"]]
        assert csv_rows == json_rows

    def test_eobar_mod_fast_path_matches_exact(self, capsys):
        _, exact, _ = run(capsys, "table", "--series", "eobar", "--order", "50")
        _, reduced, _ = run(
            capsys, "table", "--series", "eobar", "--order", "50", "--mod", "4"
        )
        for a, b in zip(parse_csv(exact), parse_csv(reduced)):
            assert int(a["value"]) % 4 == int(b["value"])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, _ = run(
            capsys, "table", "--series", "a", "--order", "5", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert parse_csv(path.read_text())[0]["value"] == "1"

    def test_b_past_the_product_guard(self, capsys):
        code, out, _ = run(capsys, "table", "--series", "b", "--order", "6000")
        assert code == 0
        want = b_series_theta(6000).coeffs
        assert [int(r["value"]) for r in parse_csv(out)] == want

    @pytest.mark.parametrize("series", ["eobar", "A", "a", "b", "r113", "r133"])
    @pytest.mark.parametrize("mod", ["-3", "0", "1"])
    def test_mod_below_two_refused(self, capsys, series, mod):
        code, out, err = run(
            capsys, "table", "--series", series, "--order", "5", "--mod", mod
        )
        assert code == 2
        assert out == "" and "--mod >= 2" in err

    def test_mod_too_large_for_int64_refused(self, capsys):
        code, out, err = run(
            capsys, "table", "--series", "eobar", "--order", "400",
            "--mod", str(2**62 + 1),
        )
        assert code == 2
        assert out == "" and "overflows int64" in err

    def test_lost_exactness_refused(self, capsys, monkeypatch):
        # a product whose rounding distance exceeds 0.25 raises ValueError,
        # which the CLI reports as a refusal (2), not a counterexample (1)
        irfft = np.fft.irfft

        def noisy(*args, **kwargs):
            x = irfft(*args, **kwargs)
            x[0] += 0.4
            return x

        monkeypatch.setattr(np.fft, "irfft", noisy)
        with pytest.raises(ValueError, match="lost exactness"):
            eta_quotient_mod({4: 3}, {2: 2}, 50, 8)
        code, out, err = run(
            capsys, "table", "--series", "eobar", "--order", "50", "--mod", "8"
        )
        assert code == 2
        assert out == "" and "lost exactness" in err

    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch):
        # an allocation the machine refuses must not land on exit 1, the
        # counterexample code, with a traceback
        def refuse(order, m):
            raise MemoryError("Unable to allocate 763. MiB")

        monkeypatch.setattr(partitions, "eobar_series_mod", refuse)
        code, out, err = run(
            capsys, "table", "--series", "eobar", "--order", "100000000", "--mod", "4"
        )
        assert code == 2 and out == ""
        assert err == "error: out of memory: Unable to allocate 763. MiB\n"

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "table", "--series", "a", "--order", "5",
            "--out", str(tmp_path / "no" / "such" / "dir.csv"),
        )
        assert code == 2
        assert "cannot write" in err


class TestVerify:
    def test_families_suite_passes(self, capsys):
        # the CSV record is stdout; the report lines go to stderr
        code, out, err = run(
            capsys, "verify", "--suite", "families", "--order", "20000"
        )
        assert code == 0
        assert "PASS" in err
        [row] = parse_csv(out)
        assert (row["suite"], row["passed"]) == ("families", "True")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "unknown suite" in err

    def test_h6p_counterexample_exit_code(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "h6p", "--limit", "50")
        assert code == 1
        assert "FAIL" in err and "'p': 17" in err
        [row] = parse_csv(out)
        assert row["passed"] == "False" and "'p': 17" in row["counterexample"]

    def test_json_record(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--suite", "triple-product", "--limit", "100",
            "--format", "json",
        )
        assert code == 0
        # stdout is the JSON record alone; the report lines go to stderr
        record = json.loads(out)
        assert record["status"] == "pass"
        assert record["rows"][0]["suite"] == "triple-product"
        assert "[PASS] triple-product" in err

    def test_all_suites_to_csv(self, capsys, tmp_path):
        # suites carry different detail keys; the CSV takes their union
        path = tmp_path / "all.csv"
        code, _, _ = run(
            capsys,
            "verify", "--suite", "all", "--limit", "20", "--order", "100", "--out", str(path),
        )
        assert code == 1
        rows = parse_csv(path.read_text())
        assert len(rows) == 18
        h6p = [r for r in rows if r["suite"] == "h6p"]
        assert h6p[0]["passed"] == "False" and h6p[0]["holds_for_p_1_mod_6"] == "True"
        assert all(r["holds_for_p_1_mod_6"] == "" for r in rows if r["suite"] != "h6p")

    def test_all_suites_json_matches_golden(self, capsys):
        """`verify --suite all --order 10000 --format json` gives, byte for
        byte, the JSON record (stdout), the report lines (stderr) and the exit
        code stored in tests/golden.  Exit 1 is criterion 5's h6p
        counterexample.  Once reports carry stage times (ROADMAP item 2),
        which differ from run to run, this test has to drop the record's
        `timings` key before comparing."""
        code, out, err = run(
            capsys, "verify", "--suite", "all", "--order", "10000", "--format", "json"
        )
        stem = GOLDEN / "verify_all_order10000"
        assert out == stem.with_suffix(".json").read_text()
        assert err == stem.with_suffix(".stderr").read_text()
        assert code == int(stem.with_suffix(".exit").read_text())

    def test_all_suites_csv_matches_golden(self, capsys):
        """With no `--format` and no `--out`, stdout is the CSV record that
        `--out` writes (tests/golden's .csv) and stderr the report lines,
        the same .stderr that the JSON run gives."""
        code, out, err = run(capsys, "verify", "--suite", "all", "--order", "10000")
        stem = GOLDEN / "verify_all_order10000"
        # read as bytes: the csv module ends each line with \r\n
        assert out == stem.with_suffix(".csv").read_bytes().decode()
        assert err == stem.with_suffix(".stderr").read_text()
        assert code == 1

    @pytest.mark.parametrize("bound", ["--limit", "--order"])
    def test_negative_bound_refused(self, capsys, bound):
        code, out, err = run(capsys, "verify", "--suite", "genus", bound, "-5")
        assert code == 2
        assert out == "" and ">= 0" in err


class TestScan:
    def test_mod25(self, capsys):
        code, out, _ = run(capsys, "scan", "--a-max", "25", "--n-max", "400")
        assert code == 0
        rows = parse_csv(out)
        nontrivial = {
            (int(r["A"]), int(r["B"])) for r in rows if r["trivial"] == "False"
        }
        assert {(25, 3), (25, 13), (25, 18), (25, 23)} <= nontrivial

    def test_a_max_one(self, capsys):
        code, out, _ = run(capsys, "scan", "--a-max", "1", "--n-max", "10")
        assert code == 0
        assert parse_csv(out) == []

    def test_no_rows_prints_the_header(self, capsys):
        # EO-bar(0) = 1, so no family holds; the CSV is still a table
        code, out, _ = run(capsys, "scan", "--a-max", "1", "--n-max", "0")
        assert code == 0
        assert out.splitlines() == ["A,B,trivial"]
        _, out, _ = run(capsys, "scan", "--a-max", "1", "--n-max", "0", "--format", "json")
        assert json.loads(out)["rows"] == []

    def test_bad_args(self, capsys):
        code, _, _ = run(capsys, "scan", "--a-max", "0", "--n-max", "10")
        assert code == 2


class TestDensity:
    def test_bound_asserted(self, capsys):
        code, out, _ = run(capsys, "density", "--checkpoints", "100")
        assert code == 0
        row = parse_csv(out)[0]
        assert int(row["odd"]) <= 24
        assert row["bound_ok"] == "True"

    def test_two_checkpoints_ratio_increases(self, capsys):
        code, out, _ = run(capsys, "density", "--checkpoints", "1000,10000")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["ratio_zero_mod4"]) < float(rows[1]["ratio_zero_mod4"])

    def test_bad_checkpoints(self, capsys):
        assert run(capsys, "density", "--checkpoints", "x,y")[0] == 2
        assert run(capsys, "density", "--checkpoints", "1")[0] == 2


# One invocation per command; each prints its record in either format.
PARITY = [
    ["verify", "--suite", "triple-product", "--limit", "100"],
    ["table", "--series", "eobar", "--order", "50"],
    ["scan", "--a-max", "5", "--n-max", "20"],
    ["density", "--checkpoints", "100,1000"],
]


@pytest.mark.parametrize("argv", PARITY, ids=[a[0] for a in PARITY])
def test_stdout_is_the_out_file_and_the_record(capsys, tmp_path, argv):
    """Without --out, stdout is the bytes --out writes; CSV and JSON agree."""
    outs = {}
    for fmt in ("csv", "json"):
        path = tmp_path / f"record.{fmt}"
        code, outs[fmt], _ = run(capsys, *argv, "--format", fmt)
        assert run(capsys, *argv, "--format", fmt, "--out", str(path))[0] == code == 0
        assert path.read_bytes().decode() == outs[fmt]  # keeps CSV's \r\n
    record = json.loads(outs["json"])
    assert record["command"] == argv[0] and record["rows"]
    # CSV writes None as an empty cell and every other value as its str()
    cells = [{k: "" if v is None else str(v) for k, v in row.items()} for row in record["rows"]]
    assert parse_csv(outs["csv"]) == cells


# Every argument the library refuses, with a word its message must carry.
REFUSED = [
    (["verify", "--suite", "bogus"], "unknown suite"),
    (["verify", "--suite", "genus", "--limit", "-5"], "limit must be >= 0"),
    (["verify", "--suite", "genus", "--order", "-5"], "order must be >= 0"),
    (["verify", "--suite", "families", "--limit", "-1", "--order", "10"], "limit must be >= 0"),
    (["verify", "--suite", "all", "--limit", "-1"], "limit must be >= 0"),
    *[(["table", "--series", s, "--order", "-1"], "order must be >= 0")
      for s in ("eobar", "A", "a", "b", "r113", "r133")],
    *[(["table", "--series", s, "--order", "5", "--mod", m], "--mod >= 2")
      for s in ("eobar", "a") for m in ("-3", "0", "1")],
    (["table", "--series", "eobar", "--order", "400", "--mod", str(2**62 + 1)], "modulus"),
    (["scan", "--a-max", "0", "--n-max", "10"], "a_max"),
    (["scan", "--a-max", "3", "--n-max", "-1"], "n_max"),
    *[(["density", "--checkpoints", c], "checkpoints") for c in ("1", "x,y", "")],
    # /dev/null is not a directory, so nothing can be written below it
    (["verify", "--suite", "triple-product", "--limit", "10", "--out", "/dev/null/x.csv"],
     "cannot write"),
    (["table", "--series", "a", "--order", "5", "--out", "/dev/null/x.csv"], "cannot write"),
    (["scan", "--a-max", "5", "--n-max", "20", "--out", "/dev/null/x.csv"], "cannot write"),
    (["density", "--checkpoints", "100", "--out", "/dev/null/x.csv"], "cannot write"),
]


@pytest.mark.parametrize("argv, word", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
def test_refusals_exit_two_with_empty_stdout(capsys, argv, word):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and word in err


class Computed(Exception):
    """Raised by a library entry that a refused command must not reach."""


# One invocation per library entry the commands call.
ENTRIES = [
    ["verify", "--suite", "triple-product", "--limit", "10"],
    ["verify", "--suite", "all", "--limit", "10"],
    ["table", "--series", "eobar", "--order", "50", "--mod", "4"],
    ["table", "--series", "a", "--order", "5"],
    ["scan", "--a-max", "5", "--n-max", "20"],
    ["density", "--checkpoints", "2000000"],
]


@pytest.mark.parametrize("argv", ENTRIES, ids=[" ".join(a) for a in ENTRIES])
def test_unwritable_out_refused_before_any_work(capsys, monkeypatch, argv):
    def work(*args):
        raise Computed

    for name in ("run_suite", "run_all", "scan_congruences", "density_report"):
        monkeypatch.setattr(verify, name, work)
    monkeypatch.setattr(partitions, "eobar_series_mod", work)
    for series in TABLE_SERIES:
        monkeypatch.setitem(TABLE_SERIES, series, work)
    with pytest.raises(Computed):  # without --out the command reaches its entry
        main(argv)
    code, out, err = run(capsys, *argv, "--out", "/dev/null/x.csv")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write /dev/null/x.csv: ") and err.count("\n") == 1


def test_refused_command_leaves_out_empty(capsys, tmp_path):
    """--out is opened before the command runs, as a shell redirection is,
    so a refused command leaves the file there empty."""
    path = tmp_path / "record.csv"
    path.write_text("an earlier record\n")
    code, out, err = run(
        capsys, "verify", "--suite", "genus", "--limit", "-5", "--out", str(path)
    )
    assert code == 2 and out == "" and "limit must be >= 0" in err
    assert path.read_bytes() == b""


# Stored records of table, scan and density, byte for byte.
RECORDS = [
    ("table_eobar_order300.csv", ["table", "--series", "eobar", "--order", "300"]),
    ("table_a_order50.json", ["table", "--series", "a", "--order", "50", "--format", "json"]),
    *[(f"scan_a25_n400.{f}", ["scan", "--a-max", "25", "--n-max", "400", "--format", f])
      for f in ("csv", "json")],
    *[(f"density_10000_100000.{f}", ["density", "--checkpoints", "10000,100000", "--format", f])
      for f in ("csv", "json")],
]


@pytest.mark.parametrize("name, argv", RECORDS, ids=[name for name, _ in RECORDS])
def test_record_matches_golden(capsys, tmp_path, name, argv):
    """stdout and the --out file are the bytes in tests/golden, \\r\\n included."""
    want = (GOLDEN / name).read_bytes().decode()
    assert run(capsys, *argv) == (0, want, "")
    path = tmp_path / name
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes().decode() == want


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_bad_flag(self, capsys):
        assert main(["table", "--series", "nope", "--order", "3"]) == 2

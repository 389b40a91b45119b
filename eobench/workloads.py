"""The three workloads: fixed lists of calls into eopart's public functions,
each with a check against reference.py or a property the paper proves.

Inputs come from the seed only through `random.Random(seed)`; sizes are
fixed so that every seed does the same amount of work (seeded values are
drawn one per stratum of a fixed range).  README.md lists the make-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import pickle
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as R

# Sizes; README.md explains each choice.
CENSUS_TOP = 10_000  # density checkpoints, family coefficients, large eta quotients
CENSUS_SMALL = 1_000  # small eta quotients
SCAN = (25, 400)  # README example: residues 3, 13, 18, 23 mod 25
CLI_DENSITY_TOP = 8_000
CLI_SCAN = (20, 300)
RANGE_N = 1_000  # r113/r133/A_direct over 0..RANGE_N
LARGE_N = (50_000, 100_000)  # seeded large lattice arguments
LARGE_H = (20_000, 60_000)  # seeded large class-number arguments
CLASSIFY_N = (10_000, 100_000)
VERIFY_ORDER = 10_000  # --order of verify --suite all; only the families suite uses it
LATTICE_SUITES = ("r113-A", "classnumber", "genus", "h6p", "hecke", "lemmas33-35", "classification")
SUITE_RANGES = {
    "r113-A": "n <= 5000",
    "classnumber": "n <= 2000",
    "genus": "n <= 2000",
    "h6p": "p <= 500",
    "hecke": "n <= 200",
    "lemmas3.2-3.5": "n <= 50",
    "classification": "n <= 100000",
    "triple-product": "order 2000",
    "eobar-oracle": "n <= 60",
    "eobar-A": "n <= 2000",
    "a-eq-b": "n <= 2000",
    "families": f"order {VERIFY_ORDER}",
}
TABLE_ORDER = 3_000
TABLE_B_ORDER = 6_000  # past the eta_factor ceiling at 5689
EXACT_PREFIX = 1_500


@dataclass
class Op:
    """One call.  `check` returns None when the output is right, else why not."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, "Refs"], str | None]
    values: Callable[[Any], int]
    expect_rc: int | None = None  # CLI operations only

    @property
    def cli(self) -> bool:
        return self.expect_rc is not None


class Refs:
    """Reference results, computed after the timed span.  They depend on the
    seed only, so the first round of a run saves them for the later rounds."""

    def __init__(self, path: str):
        self.path = path
        self._memo: dict = {}
        if os.path.exists(path):
            with open(path, "rb") as fh:
                self._memo = pickle.load(fh)  # written by an earlier round of this run
        self._dirty = False

    def get(self, fn, *args):
        key = (fn.__name__, args)
        if key not in self._memo:
            self._memo[key] = fn(*args)
            self._dirty = True
        return self._memo[key]

    def save(self) -> None:
        if self._dirty:
            with open(self.path, "wb") as fh:
                pickle.dump(self._memo, fh)


def _dirichlet(ms: tuple[int, ...]) -> dict[int, int]:
    return {m: R.class_number(m) for m in ms}


def _certificates(ns: tuple[int, ...]) -> list:
    spf = R.spf_sieve(max(ns) // 2)
    return [R.mod4_certificate(n, spf) for n in ns]


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str
    file_text: str | None = None

    def has_output(self) -> bool:
        return self.file_text is not None or bool(self.stdout.strip())

    def rows(self) -> list[dict]:
        if self.file_text is not None:
            return json.loads(self.file_text)["rows"]
        return list(csv.DictReader(io.StringIO(self.stdout)))


def _cli(argv: list[str], out_path: str | None = None):
    from eopart import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + (["--out", out_path] if out_path else []))
        text = None
        if out_path and os.path.exists(out_path):
            with open(out_path) as fh:
                text = fh.read()
            os.remove(out_path)
        return CliResult(rc, out.getvalue(), err.getvalue(), text)

    return call


def _first_mismatch(got, want) -> str | None:
    got, want = list(map(int, got)), list(map(int, want))
    if len(got) != len(want):
        return f"{len(got)} values, expected {len(want)}"
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"n={n}: got {g}, expected {w}"
    return None


def _stratified(rng: random.Random, lo: int, hi: int, k: int, ok=lambda n: True) -> list[int]:
    """One value per k equal strata of [lo, hi), each satisfying ok."""
    out = []
    width = (hi - lo) // k
    for i in range(k):
        while True:
            n = rng.randrange(lo + i * width, lo + (i + 1) * width)
            if ok(n):
                out.append(n)
                break
    return out


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if _is_prime(n):
            return n


def _squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


# --- census -----------------------------------------------------------------


def _density_check(rows, refs, numeric=lambda r, k: r[k]) -> str | None:
    cls = refs.get(R.eobar_mod4_class, CENSUS_TOP + 100)
    for row in rows:
        N = int(numeric(row, "N"))
        w = cls[: N + 1]
        want = {
            "odd": int(np.count_nonzero(w == R.ODD)),
            "two_mod4": int(np.count_nonzero(w == R.TWO_MOD4)),
            "zero_mod4": int(np.count_nonzero(w == R.ZERO_MOD4)),
            "odd_bound": math.isqrt(6 * N + 1),
        }
        if want["odd"] != R.odd_count_closed_form(N):
            return f"N={N}: sieve odd count disagrees with the closed form"
        for key, value in want.items():
            if int(numeric(row, key)) != value:
                return f"N={N}: {key} = {numeric(row, key)}, expected {value}"
        if str(numeric(row, "bound_ok")) != "True":
            return f"N={N}: bound_ok false"
        if not math.isclose(float(numeric(row, "ratio_zero_mod4")), want["zero_mod4"] / N):
            return f"N={N}: ratio_zero_mod4 wrong"
    return None


def _scan_reference(refs, a_max, n_max):
    cls = refs.get(R.eobar_mod4_class, a_max * n_max + a_max)
    found = []
    for A in range(1, a_max + 1):
        for B in range(A):
            if np.all(cls[A * np.arange(n_max + 1) + B] == R.ZERO_MOD4):
                found.append((A, B, A % 2 == 0 and B % 2 == 1))
    return found


def _mod_check(arr, refs, order, m) -> str | None:
    want = refs.get(R.eobar_mod, CENSUS_TOP, 8)[: order + 1] % m
    return _first_mismatch(arr, want)


def census(rng: random.Random, run_dir: str) -> list[Op]:
    from eopart import series, partitions, verify

    checkpoints = sorted(_stratified(rng, 1_000, CENSUS_TOP, 3)) + [CENSUS_TOP]
    cli_checkpoints = [_stratified(rng, 1_000, CLI_DENSITY_TOP, 1)[0], CLI_DENSITY_TOP]
    fams = [f for f in verify.theorem_families() if f.residue_B <= CENSUS_TOP]

    def families():
        coeffs = partitions.eobar_series_mod(CENSUS_TOP, 4)
        reps = [verify.check_family(f, (CENSUS_TOP - f.residue_B) // f.modulus_A, coeffs)
                for f in fams]
        return coeffs, reps

    def families_check(out, refs):
        coeffs, reps = out
        bad = _mod_check(coeffs, refs, CENSUS_TOP, 4)
        if bad:
            return bad
        cls = refs.get(R.eobar_mod4_class, CENSUS_TOP + 100)
        for f, rep in zip(fams, reps):
            n_max = (CENSUS_TOP - f.residue_B) // f.modulus_A
            args = f.modulus_A * np.arange(n_max + 1) + f.residue_B
            if not rep.passed or rep.range_checked != f"n <= {n_max}":
                return f"{rep}: the theorem family must hold"
            if np.any(cls[args] != R.ZERO_MOD4):
                return f"reference contradicts family {f.modulus_A}n+{f.residue_B}"
        return None

    def eq(order, m):
        return lambda: series.eta_quotient_mod({4: 3}, {2: 2}, order, m)

    def scan_check(found, refs):
        got = [(f.modulus_A, f.residue_B, f.trivial) for f in found]
        return None if got == _scan_reference(refs, *SCAN) else f"scan found {got}"

    def cli_scan_check(res, refs):
        got = [(int(r["A"]), int(r["B"]), r["trivial"] == "True") for r in res.rows()]
        return None if got == _scan_reference(refs, *CLI_SCAN) else f"scan rows {got}"

    return [
        Op("density_report", lambda: verify.density_report(checkpoints),
           lambda rows, refs: _density_check(rows, refs), lambda rows: 3 * len(rows)),
        Op("scan_congruences", lambda: verify.scan_congruences(*SCAN), scan_check, len),
        Op("check_family", families, families_check, lambda out: len(out[0]) + len(out[1])),
        Op("eta_quotient_mod.m4.small", eq(CENSUS_SMALL, 4),
           lambda a, refs: _mod_check(a, refs, CENSUS_SMALL, 4), len),
        Op("eta_quotient_mod.m4.large", eq(CENSUS_TOP, 4),
           lambda a, refs: _mod_check(a, refs, CENSUS_TOP, 4), len),
        Op("eta_quotient_mod.m8.small", eq(CENSUS_SMALL, 8),
           lambda a, refs: _mod_check(a, refs, CENSUS_SMALL, 8), len),
        Op("eta_quotient_mod.m8.large", eq(CENSUS_TOP, 8),
           lambda a, refs: _mod_check(a, refs, CENSUS_TOP, 8), len),
        Op("cli.density",
           _cli(["density", "--checkpoints", ",".join(map(str, cli_checkpoints))]),
           lambda res, refs: _density_check(res.rows(), refs), lambda res: len(res.rows()), 0),
        Op("cli.scan", _cli(["scan", "--a-max", str(CLI_SCAN[0]), "--n-max", str(CLI_SCAN[1])]),
           cli_scan_check, lambda res: len(res.rows()), 0),
    ]


# --- lattice ----------------------------------------------------------------


def _report_rows(reps) -> list[dict]:
    """Reports as the rows `eopart verify` writes."""
    return [{"suite": r.suite, "range": r.range_checked, "passed": r.passed,
             "counterexample": r.counterexample, **r.details} for r in reps]


def _suite_check(rows: list[dict], refs) -> str | None:
    """Proven statements pass on the default range; h6p fails where the
    Dirichlet class number formula says it first does."""
    if not rows:
        return "no reports"
    for row in rows:
        base = row["suite"].split("(")[0]
        if row["range"] != SUITE_RANGES[base]:
            return f"{row['suite']} checked {row['range']}, expected {SUITE_RANGES[base]}"
        if base == "h6p":
            want = refs.get(_h6p_reference)
            if row["passed"] or row["counterexample"] != want["first"] or (
                row["holds_for_p_1_mod_6"] != want["holds_for_p_1_mod_6"]
            ):
                return f"h6p row {row}; reference {want}"
        elif not row["passed"]:
            return f"{row['suite']}: proven statement reported as failing"
    return None


def _h6p_reference():
    return R.h6p_first_failure(500)


def _h_targets():
    """Radicands m of h(-m) met by the classnumber, genus and h6p suites."""
    three_n = [3 * n for n in range(2, 2001, 12) if _squarefree(n)]
    six_p = [6 * p for p in range(5, 501) if p % 3 and _is_prime(p)]
    return three_n, six_p


def lattice(rng: random.Random, run_dir: str) -> list[Op]:
    from eopart import arith, quadforms, verify

    big_r = _stratified(rng, *LARGE_N, 6)
    big_A = _stratified(rng, *LARGE_N, 6, lambda n: n % 12 == 2)
    three_n, six_p = _h_targets()
    h_sample = set(rng.sample(three_n + six_p, 24))
    big_h = _stratified(rng, *LARGE_H, 4, _squarefree)
    classify_n = _stratified(rng, *CLASSIFY_N, 200, lambda n: n % 12 == 2)
    gamma_args = [(25, rng.choice((3, 13, 18, 23)), 3000), (49, rng.choice((23, 30, 44)), 3000)]
    prime = lambda lo, hi: _random_prime(rng, lo, hi)  # noqa: E731
    factor_cases = [
        ((prime(100, 1_000), 1), (prime(1_000, 10_000), 2), (prime(100_000, 1_000_000), 1))
        for _ in range(4)
    ]
    for _ in range(2):
        p = prime(1_000_000, 1_500_000)
        factor_cases.append(((p, 1), (prime(1_500_000, 2_000_000), 1)))
    prime_cases = [(prime(1_000_000, 2_000_000), True) for _ in range(20)]
    prime_cases += [(prime(1_000, 2_000) * prime(1_000, 2_000), False) for _ in range(20)]

    def ref_r113(refs):
        return refs.get(R.r113_table, LARGE_N[1])

    def values_check(fn_ref):
        return lambda got, refs: _first_mismatch(got, fn_ref(refs))

    def a_ref(ns, refs):
        r = ref_r113(refs)
        return [int(r[n]) // 4 if n % 12 == 2 else 0 for n in ns]

    def h_check(got, refs):
        spf = refs.get(R.spf_sieve, 6_000)
        dirichlet = refs.get(_dirichlet, tuple(sorted(h_sample)))
        for m, h in zip(three_n + six_p, got):
            if m in dirichlet and h != dirichlet[m]:
                return f"h(-{m}) = {h}, Dirichlet gives {dirichlet[m]}"
        for m, h in zip(three_n, got):
            if 2 * h != ref_r113(refs)[m // 3]:
                return f"r113({m // 3}) != 2 h(-{m})"
            t = len(set(_prime_factors(m, spf)))
            if h % (1 << (t - 1)):
                return f"2^{t - 1} does not divide h(-{m}) = {h}"
        return None

    def classify_check(certs, refs):
        names = {R.ODD: "odd", R.TWO_MOD4: "two_mod_four", R.ZERO_MOD4: "zero_mod_four"}
        r = ref_r113(refs)
        want = refs.get(_certificates, tuple(classify_n))
        for n, cert, (cls, witness) in zip(classify_n, certs, want):
            if cert.cls.value != names[cls] or cert.witness != witness:
                return (f"classify_mod4({n}) = {cert.cls.value} {cert.witness}, "
                        f"expected {names[cls]} {witness}")
            a4 = (int(r[n]) // 4) % 4
            if (cls == R.ODD) != (a4 % 2 == 1) or (cls == R.TWO_MOD4) != (a4 == 2):
                return f"A({n}) = {a4} mod 4 contradicts class {names[cls]}"
        return None

    def gamma_check(got, refs):
        for (A, B, N), (count, pred) in zip(gamma_args, got):
            want_count, want_pred = refs.get(R.gamma_reference, A, B, N)
            if count != want_count or not math.isclose(pred, want_pred, rel_tol=1e-12):
                return (f"gamma_count({A},{B},{N}) = {count}, {pred}; "
                        f"expected {want_count}, {want_pred}")
        return None

    def factor_check(got, refs):
        for case, fac in zip(factor_cases, got):
            if fac.factors != tuple(sorted(case)):
                return f"factorize gave {fac.factors}, built from {sorted(case)}"
        return None

    def table_check(ref_fn):
        return lambda res, refs: _first_mismatch(
            [r["value"] for r in res.rows()], ref_fn(refs)[:501]
        )

    ops = [
        Op("r113.range", lambda: [quadforms.r113(n) for n in range(RANGE_N + 1)],
           values_check(lambda refs: ref_r113(refs)[: RANGE_N + 1]), len),
        Op("r133.range", lambda: [quadforms.r133(n) for n in range(RANGE_N + 1)],
           values_check(lambda refs: refs.get(R.r133_table, LARGE_N[1])[: RANGE_N + 1]), len),
        Op("A_direct.range", lambda: [quadforms.A_direct(n) for n in range(RANGE_N + 1)],
           values_check(lambda refs: a_ref(range(RANGE_N + 1), refs)), len),
        Op("r113.large", lambda: [quadforms.r113(n) for n in big_r],
           values_check(lambda refs: ref_r113(refs)[big_r]), len),
        Op("r133.large", lambda: [quadforms.r133(n) for n in big_r],
           values_check(lambda refs: refs.get(R.r133_table, LARGE_N[1])[big_r]), len),
        Op("A_direct.large", lambda: [quadforms.A_direct(n) for n in big_A],
           values_check(lambda refs: a_ref(big_A, refs)), len),
        Op("class_number.suites", lambda: [quadforms.class_number(m) for m in three_n + six_p],
           h_check, len),
        Op("class_number.large", lambda: [quadforms.class_number(m) for m in big_h],
           values_check(lambda refs: list(refs.get(_dirichlet, tuple(big_h)).values())), len),
        Op("classify_mod4", lambda: [quadforms.classify_mod4(n) for n in classify_n],
           classify_check, len),
        Op("gamma_count", lambda: [verify.gamma_count(*a) for a in gamma_args], gamma_check, len),
        Op("factorize.large",
           lambda: [arith.factorize(math.prod(p**e for p, e in c)) for c in factor_cases],
           factor_check, len),
        Op("is_prime.large", lambda: [arith.is_prime(n) for n, _ in prime_cases],
           lambda got, refs: None if got == [w for _, w in prime_cases] else f"is_prime gave {got}",
           len),
    ]
    for name in LATTICE_SUITES:
        ops.append(Op(f"suite.{name}", lambda name=name: verify.run_suite(name),
                      lambda reps, refs: _suite_check(_report_rows(reps), refs), len))
    ops += [
        Op("cli.table-r113", _cli(["table", "--series", "r113", "--order", "500"]),
           table_check(ref_r113), lambda res: len(res.rows()), 0),
        Op("cli.table-r133", _cli(["table", "--series", "r133", "--order", "500"]),
           table_check(lambda refs: refs.get(R.r133_table, LARGE_N[1])),
           lambda res: len(res.rows()), 0),
    ]
    return ops


def _prime_factors(m: int, spf: np.ndarray) -> list[int]:
    out = []
    while m > 1:
        p = int(spf[m])
        out.append(p)
        m //= p
    return out


# --- verify-all -------------------------------------------------------------

# Rows of `verify --suite all`: one per suite, four each for hecke and lemmas.
ALL_ROWS = sorted(
    ["triple-product", "eobar-oracle", "r113-A", "classnumber", "h6p", "genus", "classification",
     "eobar-A", "a-eq-b", "families"] + ["hecke"] * 4 + ["lemmas3.2-3.5"] * 4
)


def verify_all(rng: random.Random, run_dir: str) -> list[Op]:
    eobar_order = TABLE_ORDER + rng.randrange(30)
    a_order = TABLE_ORDER + rng.randrange(30)
    b_order = TABLE_B_ORDER + rng.randrange(30)
    json_path = os.path.join(run_dir, "verify.json")

    def verify_check(res, refs):
        record = json.loads(res.file_text)
        names = sorted(r["suite"].split("(")[0] for r in record["rows"])
        if names != ALL_ROWS:
            return f"suites reported: {names}"
        if record["status"] != "fail":
            return f"status {record['status']}, expected fail (h6p)"
        return _suite_check(record["rows"], refs)

    def eobar_check(res, refs):
        got = [int(r["value"]) for r in res.rows()]
        bad = _first_mismatch(got[: EXACT_PREFIX + 1], refs.get(R.eobar_exact, EXACT_PREFIX))
        if bad:
            return "sigma recurrence: " + bad
        bad = _first_mismatch([v % 8 for v in got], refs.get(R.eobar_mod, eobar_order, 8))
        return "mod 8: " + bad if bad else None

    def a_check(res, refs):
        got = [int(r["value"]) for r in res.rows()]
        bad = _first_mismatch(got, refs.get(R.a_table, a_order))
        if bad:
            return bad
        b = refs.get(R.b_table, a_order)
        return _first_mismatch([v % 4 for v in got], b % 4) and "a(n) != b(n) mod 4"

    def b_check(res, refs):
        return _first_mismatch([r["value"] for r in res.rows()], refs.get(R.b_table, b_order))

    def rows(res):
        return len(res.rows())

    return [
        Op("cli.verify-all",
           _cli(["verify", "--suite", "all", "--order", str(VERIFY_ORDER), "--format", "json"],
                json_path),
           verify_check, rows, 1),
        Op("cli.table-eobar", _cli(["table", "--series", "eobar", "--order", str(eobar_order)]),
           eobar_check, rows, 0),
        Op("cli.table-a", _cli(["table", "--series", "a", "--order", str(a_order)]),
           a_check, rows, 0),
        Op("cli.table-b", _cli(["table", "--series", "b", "--order", str(b_order)]),
           b_check, rows, 0),
    ]


WORKLOADS = {"census": census, "lattice": lattice, "verify-all": verify_all}

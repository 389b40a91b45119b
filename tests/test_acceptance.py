"""Acceptance gate: one test per criterion, each printing a pass/fail line
(run with -s to see them inline).  All value checks are exact.

Criterion 5 is expected to fail honestly: the h(-6p) mod 8 dichotomy as
stated is false at p=17 (h(-102)=4, confirmed independently by the
Dirichlet class number formula); it holds restricted to p = 1 mod 6, the
only case the classification argument uses.  See test_verify for the
pinned counterexample and the restricted result.
"""

import time

import pytest

import eopart.verify as V
from eopart import partitions, quadforms
from eopart.series import eta_product, mul, power, theta


def _criterion(num: int, limit_s: float | None):
    """Context manager printing the pass/fail line and enforcing runtime."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.perf_counter() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            print(f"CRITERION {num}: {status} ({dt:.2f}s)")
            if exc_type is None and limit_s is not None:
                assert dt < limit_s, f"criterion {num} exceeded {limit_s}s ({dt:.2f}s)"
            return False

    return _Ctx()


def test_criterion_01_fixture_exactness():
    with _criterion(1, 1.0):
        assert partitions.eo_count(8) == 12
        assert partitions.eobar_count_enum(8) == 5
        assert partitions.eobar_series(8).c(8) == 5


def test_criterion_02_triple_products():
    with _criterion(2, 5.0):
        order = 2000
        j1 = eta_product(1, order)
        assert mul(theta("square_alt", order), eta_product(2, order)) == power(j1, 2)
        assert theta("pent3_alt", order) == j1


def test_criterion_03_oracle_equivalence():
    with _criterion(3, 30.0):
        s = partitions.eobar_series(60)
        for n in range(61):
            assert s.c(n) == partitions.eobar_count_enum(n), n
        for n in range(5001):
            if n % 12 == 2:
                assert 4 * quadforms.A_direct(n) == quadforms.r113(n), n
            else:
                assert quadforms.A_direct(n) == 0, n


def test_criterion_04_classnumber_relation():
    with _criterion(4, 60.0):
        rep = V.verify_classnumber(2000)
        assert rep.passed, rep.counterexample


def test_criterion_05_h6p_and_genus():
    with _criterion(5, None):
        genus = V.verify_genus(2000)
        assert genus.passed, genus.counterexample
        h6p = V.verify_h6p(500)
        assert h6p.passed, h6p.counterexample  # known-false as stated; fails at p=17


def test_criterion_06_hecke_and_lemmas():
    with _criterion(6, None):
        for p in (5, 7, 11, 13):
            rep = V.verify_hecke(p, 200)
            assert rep.passed, (p, rep.counterexample)
            rep = V.verify_lemmas_3_2_to_3_5(p, 50)
            assert rep.passed, (p, rep.counterexample)


def test_criterion_07_classification():
    with _criterion(7, 120.0):
        rep = V.verify_classification(100_000)
        assert rep.passed, rep.counterexample


def test_criterion_08_mod4_congruences():
    with _criterion(8, None):
        rep = V.verify_eobar_equals_A(2000)
        assert rep.passed, rep.counterexample
        rep = V.verify_a_eq_b(2000)
        assert rep.passed, rep.counterexample


def test_criterion_09_theorem_families():
    with _criterion(9, None):
        rep = V.verify_families(150_000)
        assert rep.passed, rep.counterexample
        pairs = {
            (f.modulus_A, f.residue_B)
            for f in V.theorem_families(max_k=1)
        }
        assert {(25, 3), (25, 13), (25, 18), (25, 23)} <= pairs
        assert {(49, 23), (49, 30), (49, 44)} <= pairs


def test_criterion_10_density():
    with _criterion(10, None):
        rows = V.density_report([10_000, 100_000, 1_000_000])
        for r in rows:
            assert r["bound_ok"], r
        ratios = [r["ratio_zero_mod4"] for r in rows]
        assert ratios == sorted(ratios), "ratio not nondecreasing"
        assert ratios[-1] >= 0.90
        # regression anchor: exact computed census at N = 10^6
        assert rows[-1]["zero_mod4"] == 936_985
        assert rows[-1]["odd"] == 577
        assert rows[-1]["two_mod4"] == 62_439

import math
import threading

import numpy as np
import pytest

import eopart.verify as V
from eopart import partitions, quadforms
from eopart.arith import factorize, is_prime
from eopart.partitions import eobar_series_mod
from eopart.series import Series, eta_quotient_mod, mul


class TestFamilyFromTheorem:
    def test_p5_j1(self):
        f = V.family_from_theorem([5], 1)
        assert (f.modulus_A, f.residue_B) == (25, 13)

    def test_p7_j1_condition_ii(self):
        f = V.family_from_theorem([7], 1)
        assert (f.modulus_A, f.residue_B) == (49, 23)

    def test_p7_j3_rejected_with_named_conditions(self):
        with pytest.raises(ValueError, match=r"\(i\) fails.*\(ii\) fails"):
            V.family_from_theorem([7], 3)

    def test_j_divisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            V.family_from_theorem([5], 10)

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            V.family_from_theorem([3], 1)

    def test_example_residues(self):
        mod25 = {V.family_from_theorem([5], j).residue_B for j in range(1, 5)}
        assert mod25 == {3, 13, 18, 23}
        mod49 = set()
        for j in range(1, 7):
            try:
                mod49.add(V.family_from_theorem([7], j).residue_B)
            except ValueError:
                pass
        assert mod49 == {23, 30, 44}

    def test_repeated_primes_allowed(self):
        f = V.family_from_theorem([5, 5], 1)
        assert f.modulus_A == 625
        rep = V.check_family(f, 60)
        assert rep.passed


class TestCheckFamily:
    def test_paper_families_pass(self):
        assert V.check_family(V.CongruenceFamily(25, 3), 500).passed
        assert V.check_family(V.CongruenceFamily(49, 30), 200).passed

    def test_bad_residue_fails_with_counterexample(self):
        rep = V.check_family(V.CongruenceFamily(25, 1), 500)
        assert not rep.passed
        assert rep.counterexample == {"n": 1, "argument": 26, "value_mod": 2}

    def test_counterexample_is_the_first_failure(self):
        # 12n+6 first fails at n = 3, so n_max = bad - 1 is a real range
        arr = eobar_series_mod(2000, 4)
        fam = V.CongruenceFamily(12, 6)
        bad = next(n for n in range(160) if arr[12 * n + 6] % 4)
        assert bad == 3
        rep = V.check_family(fam, 160, arr)
        arg = 12 * bad + 6
        assert rep.counterexample == {"n": bad, "argument": arg, "value_mod": int(arr[arg]) % 4}
        assert V.check_family(fam, bad - 1, arr).passed

    @pytest.mark.parametrize(
        "A, B, m", [(0, 3, 4), (-5, 3, 4), (5, -3, 4), (5, 3, 0), (5, 3, 1), (5, 3, 2**64)]
    )
    def test_malformed_family_refused(self, A, B, m):
        with pytest.raises(ValueError, match="A >= 1, B >= 0 and 2 <= m <= 2"):
            V.check_family(V.CongruenceFamily(A, B, m), 5, eobar_series_mod(100, 4))

    @pytest.mark.parametrize("m", [3, 8, 16, 1000003])
    def test_shared_array_refused_off_mod_4(self, m):
        # the shared array holds EO-bar mod 4: read for m = 8 it would pass
        # 25n+3, which fails mod 8 at n = 1 once the residues mod 8 are built
        arr = eobar_series_mod(3000, 4)
        with pytest.raises(ValueError, match=f"holds EO-bar mod 4; it cannot check mod {m}"):
            V.check_family(V.CongruenceFamily(25, 3, m), 100, arr)
        assert V.check_family(V.CongruenceFamily(25, 3, 8), 100).counterexample["n"] == 1
        assert V.check_family(V.CongruenceFamily(25, 3, 2), 100, arr).passed

    def test_truncation_too_small(self):
        arr = eobar_series_mod(100, 4)
        with pytest.raises(ValueError, match="truncation"):
            V.check_family(V.CongruenceFamily(25, 3), 50, arr)

    def test_negative_n_max_refused(self, monkeypatch):
        # 25n+1 fails at n = 1; an empty range must not read as a pass
        arr = eobar_series_mod(1000, 4)
        with pytest.raises(ValueError, match="n_max must be >= 0, got -5"):
            V.check_family(V.CongruenceFamily(25, 1), -5, arr)
        # refused before any array is built
        monkeypatch.setattr(partitions, "eobar_series_mod", None)
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            V.check_family(V.CongruenceFamily(25, 1), -5)


class TestScan:
    def test_paper_families_found(self):
        found = {(f.modulus_A, f.residue_B) for f in V.scan_congruences(25, 400)}
        assert {(25, 3), (25, 13), (25, 18), (25, 23)} <= found

    def test_mod49(self):
        found = {(f.modulus_A, f.residue_B) for f in V.scan_congruences(49, 200)}
        assert {(49, 23), (49, 30), (49, 44)} <= found

    def test_trivial_flag(self):
        fams = {(f.modulus_A, f.residue_B): f for f in V.scan_congruences(2, 400)}
        assert fams[(2, 1)].trivial
        # A even and B odd: every argument is odd, whoever builds the family
        assert V.CongruenceFamily(2, 1).trivial
        assert V.CongruenceFamily(4, 3, 8).trivial
        assert not V.CongruenceFamily(25, 3).trivial
        assert not V.CongruenceFamily(2, 0).trivial

    def test_a_max_one_empty(self):
        assert V.scan_congruences(1, 10) == []

    def test_bad_args_refused(self, monkeypatch):
        # with n_max < 0 every (A, B) would hold vacuously, (1, 0) included,
        # though EO-bar(0) = 1; refused before any array is built
        monkeypatch.setattr(partitions, "eobar_series_mod", None)
        with pytest.raises(ValueError, match="a_max must be >= 1"):
            V.scan_congruences(0, 10)
        with pytest.raises(ValueError, match="n_max = -1"):
            V.scan_congruences(3, -1)

    def test_matches_pointwise_scan(self):
        arr = eobar_series_mod(12 * 100 + 11, 4)
        want = [(A, B) for A in range(1, 13) for B in range(A)
                if all(arr[A * n + B] % 4 == 0 for n in range(101))]
        found = V.scan_congruences(12, 100)
        assert [(f.modulus_A, f.residue_B) for f in found] == want
        assert [f.trivial for f in found] == [A % 2 == 0 and B % 2 == 1 for A, B in want]


class TestTheoremFamilies:
    def test_default_is_max_k_one(self):
        fams = V.theorem_families()
        assert fams == V.theorem_families(max_k=1)
        assert len(fams) == 115 and len(V.theorem_families(max_k=0)) == 23

    def test_max_k_two_reaches_three_primes(self):
        fams = V.theorem_families(max_k=2)
        assert V.theorem_families() == fams[: len(V.theorem_families())]
        f = V.family_from_theorem([5, 5, 5], 1)
        assert (f.modulus_A, f.residue_B) == (15625, 8333)
        assert f in fams
        assert V.check_family(f, 4).passed

    def test_negative_max_k_refused(self):
        with pytest.raises(ValueError, match="max_k"):
            V.theorem_families(max_k=-3)


def test_report_passes_exactly_without_counterexample():
    assert V.VerificationReport("s", "r", {"n": 1}).passed is False
    assert V.VerificationReport("s", "r").passed is True


class TestSuites:
    def test_triple_product(self):
        assert V.verify_triple_products(300).passed

    def test_eobar_oracle(self):
        assert V.verify_eobar_oracle(30).passed

    def test_triple_product_counterexample(self, monkeypatch):
        theta = V.theta
        monkeypatch.setattr(
            V, "theta",
            lambda kind, order: Series([*theta(kind, order).coeffs[:7], 9, *[0] * (order - 7)]),
        )
        assert V.verify_triple_products(50).counterexample == {"identity": 1, "n": 7}

    def test_eobar_oracle_mod4_counterexample(self, monkeypatch):
        fast = partitions.eobar_series_mod

        def bumped(order, m):  # coefficient of q^3 off by one
            c = fast(order, m)
            c[3] = (c[3] + 1) % m
            return c

        monkeypatch.setattr(partitions, "eobar_series_mod", bumped)
        assert V.verify_eobar_oracle(20).counterexample == {"n": 3, "mod4_eta_form": True}

    def test_eobar_oracle_catches_a_wrong_fast_path(self, monkeypatch):
        # J_2^2 J_4^2 in place of J_2^2 J_4: first wrong at q^4
        monkeypatch.setattr(
            partitions, "eobar_series_mod",
            lambda order, m: eta_quotient_mod({2: 2, 4: 2}, {}, order, 4) % m,
        )
        assert V.verify_eobar_oracle(20).counterexample == {"n": 4, "mod4_eta_form": True}

    def test_eobar_oracle_catches_a_dropped_partition(self, monkeypatch):
        walk = partitions.eobar_partitions
        monkeypatch.setattr(
            partitions, "eobar_partitions", lambda n: (p for p in walk(n) if p != (4, 2, 2))
        )
        rep = V.verify_eobar_oracle(30)
        assert not rep.passed
        assert rep.counterexample["n"] == 8

    @pytest.mark.parametrize("patched", ["_eo_rows", "_eobar_mask"])
    def test_eobar_oracle_catches_a_dropped_row(self, monkeypatch, patched):
        # 4+2+2 lost from the rows, or rejected by the row rule: the walk's
        # 5 restricted partitions of 8 against 4 kept rows
        eo_rows, mask = partitions._eo_rows, partitions._eobar_mask
        keep = lambda rows: np.array([row != [0, 2, 0, 1, 0, 0, 0, 0] for row in rows.tolist()])
        if patched == "_eo_rows":
            monkeypatch.setattr(partitions, "_eo_rows", lambda n: eo_rows(n)[keep(eo_rows(n))])
        else:
            monkeypatch.setattr(partitions, "_eobar_mask", lambda rows: mask(rows) & keep(rows))
        assert V.verify_eobar_oracle(30).counterexample == {"n": 8, "enum": 5, "filtered": 4}

    def test_r113_A(self):
        assert V.verify_r113_A(400).passed

    def test_r113_A_checks_f_series(self, monkeypatch):
        f = quadforms.f_series
        # a(5) = A(62) off by one
        bumped = lambda order: Series([c + (k == 5) for k, c in enumerate(f(order).coeffs)])
        monkeypatch.setattr(quadforms, "f_series", bumped)
        direct = quadforms.A_direct(62)
        assert V.verify_r113_A(400).counterexample == {
            "n": 62, "f_series": direct + 1, "direct": direct
        }

    def test_r113_A_off_support_counterexample(self, monkeypatch):
        A = quadforms.A_direct
        monkeypatch.setattr(quadforms, "A_direct", lambda n: 1 if n == 13 else A(n))
        assert V.verify_r113_A(400).counterexample == {"n": 13, "direct": 1}

    def test_r113_A_runs_the_lattice_loop_where_read(self, monkeypatch):
        # every n = 2 mod 12 up to 5000 (417), and off the support only
        # n <= 500 (459): 876 lattice counts, not 5001
        A = quadforms.A_direct
        calls = []
        monkeypatch.setattr(quadforms, "A_direct", lambda n: calls.append(n) or A(n))
        assert V.run_suite("r113-A")[0].passed
        assert len(calls) == 876
        assert calls == sorted(set(calls))
        assert all(n % 12 == 2 or n <= 500 for n in calls)

    @pytest.mark.parametrize("n_max", [0, 1, 2])
    def test_r113_A_tiny_range(self, n_max):
        assert V.verify_r113_A(n_max).passed

    def test_classnumber(self):
        assert V.verify_classnumber(500).passed

    def test_genus(self):
        assert V.verify_genus(500).passed

    def test_genus_factors_each_n_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(V, "factorize", lambda n: calls.append(n) or factorize(n))
        assert V.verify_genus(500).passed
        assert calls == list(range(2, 501, 12))

    @pytest.mark.parametrize("suite,m,want", [
        # 42 = 3 * 14 = 6 * 7 is read from the table alone (second radicand)
        ("classnumber", 42, {"n": 14, "r113": 8, "r133_3n": 8, "h": 5}),
        ("genus", 42, {"n": 14, "t": 3, "h": 5}),
        ("h6p", 42, {"p": 7, "h": 5, "h_mod8": 5}),
        # 6 = 3 * 2 and 30 = 6 * 5 are first radicands, where class_number runs
        ("classnumber", 6, {"n": 2, "r3": 36, "class_number": 2}),
        ("genus", 6, {"n": 2, "r3": 36, "class_number": 2}),
        ("h6p", 30, {"p": 5, "r3": 60, "class_number": 4}),
    ])
    def test_class_number_suites_read_the_theta_cubed_table(self, monkeypatch, suite, m, want):
        # r_3(m) off by 12 puts h(-4m) off by one
        r3 = quadforms.r3_series
        bumped = lambda order: Series([c + 12 * (i == m) for i, c in enumerate(r3(order).coeffs)])
        monkeypatch.setattr(quadforms, "r3_series", bumped)
        assert V.run_suite(suite)[0].counterexample == want

    @staticmethod
    def radicands(suite):
        if suite == "h6p":
            return [6 * p for p in range(5, 501, 2) if p % 3 and is_prime(p)]
        squarefree = lambda n: all(e == 1 for _, e in factorize(n).factors)
        return [3 * n for n in range(2, 2001, 12) if squarefree(n)]

    @pytest.mark.parametrize("suite", ["classnumber", "genus", "h6p"])
    def test_class_number_is_sampled(self, monkeypatch, suite):
        # the reduced-form count runs on every H_SAMPLE-th radicand, the first included
        ms = self.radicands(suite)
        count = quadforms.class_number
        calls = []
        monkeypatch.setattr(quadforms, "class_number", lambda m: calls.append(m) or count(m))
        V.run_suite(suite)
        assert calls == ms[:: V.H_SAMPLE]

    # h6p's own first counterexample, p = 17, is its fourth radicand
    @pytest.mark.parametrize("suite,i", [("classnumber", 8), ("genus", 16), ("h6p", 0)])
    def test_class_number_catches_the_table_on_its_sample(self, monkeypatch, suite, i):
        assert i % V.H_SAMPLE == 0
        m = self.radicands(suite)[i]
        h = quadforms.class_number(m)
        count = quadforms.class_number
        monkeypatch.setattr(quadforms, "class_number", lambda k: count(k) + (k == m))
        key, value = ("p", m // 6) if suite == "h6p" else ("n", m // 3)
        want = {key: value, "r3": 12 * h, "class_number": h + 1}
        assert V.run_suite(suite)[0].counterexample == want

    def test_h6p_fails_at_17_but_holds_on_1_mod_6(self):
        # the quoted dichotomy is false as stated: h(-102) = 4, yet
        # 17 = 1 mod 8 predicts 0 mod 8; restricted to p = 1 mod 6 (the
        # only case the classification proof uses) it holds
        rep = V.verify_h6p(500)
        assert not rep.passed
        assert rep.counterexample == {"p": 17, "h": 4, "h_mod8": 4}
        assert rep.details["holds_for_p_1_mod_6"] is True

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_hecke(self, p):
        assert V.verify_hecke(p, 150).passed

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_hecke_relation_where_p_divides_n(self, p):
        # (-3n/p) = 0 here, and p A(n/p^2) counts once p^2 | n
        A = quadforms.A_direct
        for n in range(2, 2001, 12):
            if n % p == 0:
                p2_term = p * A(n // (p * p)) if n % (p * p) == 0 else 0
                assert A(p * p * n) + p2_term == (p + 1) * A(n), n

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_lemmas(self, p):
        assert V.verify_lemmas_3_2_to_3_5(p, 50).passed

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_hecke_and_lemmas_count_each_argument_once(self, p, monkeypatch):
        A = quadforms.A_direct
        for suite, n_max in ((V.verify_hecke, 200), (V.verify_lemmas_3_2_to_3_5, 50)):
            runs = []
            for _ in range(2):
                calls = []
                monkeypatch.setattr(quadforms, "A_direct", lambda n: calls.append(n) or A(n))
                assert suite(p, n_max).passed
                runs.append(calls)
            # each argument once per call; the second call counts afresh
            first, second = runs
            assert first and len(first) == len(set(first)) and second == first, suite.__name__

    def test_lemma_3_5_counterexample_survives_the_shared_values(self, monkeypatch):
        # A(p^4 n) off by 2 where A(n) is even: lemma 3.3 (mod 2) still
        # holds, so 3.5 (mod 4) is the first to fail
        A, p = quadforms.A_direct, 5
        n0 = next(n for n in range(2, 51, 12) if A(n) % 2 == 0)
        monkeypatch.setattr(
            quadforms, "A_direct", lambda n: A(n) + (2 if n == p**4 * n0 else 0)
        )
        rep = V.verify_lemmas_3_2_to_3_5(p, 50)
        assert not rep.passed
        assert rep.counterexample == {"lemma": "3.5", "n": n0}

    @pytest.mark.parametrize("p", [2, 3, 4, 25])
    def test_hecke_and_lemmas_refuse_p_outside_their_statements(self, p):
        # both are stated for primes p >= 5 only; p = 3 would report a false
        # counterexample ({'n': 2, 'lhs': 0, 'rhs': 4} for hecke)
        with pytest.raises(ValueError, match=f"p must be a prime >= 5, got {p}"):
            V.verify_hecke(p, 50)
        with pytest.raises(ValueError, match=f"p must be a prime >= 5, got {p}"):
            V.verify_lemmas_3_2_to_3_5(p, 50)

    def test_classification(self):
        assert V.verify_classification(5000).passed

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_classification_empty_range(self, n_max):
        rep = V.verify_classification(n_max)
        assert rep.passed and rep.range_checked == f"n <= {n_max}"

    def test_classification_catches_a_misreporting_sieve(self, monkeypatch):
        # 6*4 + 1 = 25 = 5^2: A(50) is odd; a sieve reporting two odd-exponent
        # primes there would certify 0 mod 4
        sieve = V.odd_exponent_sieve

        def misreport(a, b, count):
            n_odd, prime, expo = sieve(a, b, count)
            n_odd[4] = 2
            return n_odd, prime, expo

        monkeypatch.setattr(V, "odd_exponent_sieve", misreport)
        rep = V.verify_classification(5000)
        assert not rep.passed and rep.range_checked == "n <= 5000"
        assert rep.counterexample == {"n": 50, "A_mod4": 1, "class": "zero_mod_four"}

    def test_classification_checks_each_witness(self, monkeypatch):
        # a wrong square root m fails cert.check() at once: n = 2 is 2 * 1^2
        certificate = quadforms._certificate

        def off_by_one(n, n_odd, p, e):
            cert = certificate(n, n_odd, p, e)
            if cert.cls is quadforms.Mod4Class.ODD:
                return quadforms.Mod4Certificate(n, cert.cls, (cert.witness[0] + 1,))
            return cert

        monkeypatch.setattr(quadforms, "_certificate", off_by_one)
        assert V.verify_classification(5000).counterexample == {
            "n": 2, "A_mod4": 1, "class": "odd"
        }

    def test_classification_rebuilds_every_witness(self, monkeypatch):
        # 6k + 1 = 613 is a prime = 5 mod 8 at k = 102, outside the sample;
        # reported as 5, the class and A(1226) = 2 mod 4 still agree, and
        # only the array pass's rebuild of 613 = 5 m^2 fails
        sieve = V.odd_exponent_sieve

        def wrong_prime(a, b, count):
            n_odd, prime, expo = sieve(a, b, count)
            assert (n_odd[102], prime[102], expo[102]) == (1, 613, 1)
            prime[102] = 5
            return n_odd, prime, expo

        monkeypatch.setattr(V, "odd_exponent_sieve", wrong_prime)
        assert V.verify_classification(5000).counterexample == {
            "n": 1226, "A_mod4": 2, "class": "two_mod_four"
        }

    def test_classification_samples_the_pointwise_route(self, monkeypatch):
        # -m passes cert.check(), so only the pointwise classify_mod4 sample
        # can tell it from m; k = 873 is sampled, and 6k + 1 = 31 * 13^2
        classify = V.classify_mod4

        def negated(n):
            cert = classify(n)
            if n == 12 * 873 + 2:
                p, alpha, m = cert.witness
                return quadforms.Mod4Certificate(n, cert.cls, (p, alpha, -m))
            return cert

        monkeypatch.setattr(V, "classify_mod4", negated)
        rep = V.verify_classification(12000)
        assert rep.counterexample == {"n": 10478, "A_mod4": 2, "class": "two_mod_four"}

    def test_eobar_A(self):
        rep = V.verify_eobar_equals_A(400)
        assert rep.passed
        # the cubed-eta display in the proof is a typo: it does not match
        assert rep.details["j2cubed_matches_j2squared_mod4"] is False

    def test_eobar_A_reads_the_fast_path(self, monkeypatch):
        # a fast path returning J_2^3 J_4 would make the typo match
        monkeypatch.setattr(
            partitions, "eobar_series_mod",
            lambda order, m: eta_quotient_mod({2: 3, 4: 1}, {}, order, 4) % m,
        )
        assert V.verify_eobar_equals_A(100).details["j2cubed_matches_j2squared_mod4"] is True

    def test_a_eq_b(self):
        assert V.verify_a_eq_b(400).passed

    def test_a_eq_b_route_counterexample(self, monkeypatch):
        b_theta = quadforms.b_series_theta
        bump = lambda n: Series([1, *[0] * 10, 1, *[0] * (n - 11)])  # times 1 + q^11
        monkeypatch.setattr(quadforms, "b_series_theta", lambda n: mul(b_theta(n), bump(n)))
        assert V.verify_a_eq_b(40).counterexample == {"n": 11, "b_route_mismatch": True}

    def test_families(self):
        rep = V.verify_families(30_000)
        assert rep.passed
        assert rep.details["n_families"] == 115

    def test_default_ranges(self):
        # the defaults live in SUITES alone; these are the ranges the
        # benchmark and the README expect of a run with no bounds
        want = {
            "triple-product": ["order 2000"],
            "eobar-oracle": ["n <= 60"],
            "r113-A": ["n <= 5000"],
            "classnumber": ["n <= 2000"],
            "h6p": ["p <= 500"],
            "genus": ["n <= 2000"],
            "hecke": ["n <= 200"] * 4,
            "lemmas33-35": ["n <= 50"] * 4,
            "classification": ["n <= 100000"],
            "eobar-A": ["n <= 2000"],
            "a-eq-b": ["n <= 2000"],
            "families": ["order 150000"],
        }
        assert {name: [r.range_checked for r in V.run_suite(name)] for name in V.SUITES} == want

    def test_eobar_oracle_stops_at_the_enumeration_guard(self):
        # a refusal here would break verify --suite all --limit 100 for
        # every suite; the range string says where the suite stopped
        [rep] = V.run_suite("eobar-oracle", limit=100)
        assert rep.passed and rep.range_checked == "n <= 70"

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            V.run_suite("bogus")

    def test_unknown_suite_lists_the_registry(self):
        with pytest.raises(KeyError, match="choose from triple-product, eobar-oracle"):
            V.run_suite("bogus")


class TestDensity:
    def test_rows(self):
        rows = V.density_report([100, 2000])
        assert [r["N"] for r in rows] == [100, 2000]
        r100 = rows[0]
        assert r100["odd"] <= math.isqrt(601) == r100["odd_bound"]
        assert r100["bound_ok"]
        assert r100["odd"] + r100["two_mod4"] + r100["zero_mod4"] == 101

    def test_ratio_monotone_small(self):
        rows = V.density_report([1000, 10_000, 50_000])
        ratios = [r["ratio_zero_mod4"] for r in rows]
        assert ratios == sorted(ratios)

    def test_two_mod4_reference(self):
        # (pi^2/12) N/log N: p = 1 mod 3 and p = 5, 7 mod 8, with 6k+1 <= 3N
        (row,) = V.density_report([100_000])
        ref = math.pi**2 / 12 * 100_000 / math.log(100_000)
        assert row["two_mod4_reference"] == pytest.approx(ref)
        assert row["two_mod4"] == 7599
        assert 0.95 <= row["two_mod4"] / ref <= 1.15

    def test_rejects_bad_checkpoints(self):
        with pytest.raises(ValueError):
            V.density_report([])
        with pytest.raises(ValueError):
            V.density_report([1])


def _gamma_pointwise(A, B, N):
    """The count gamma_count reports, from one factorize call per n."""
    count = 0
    for n in range(N + 1):
        odd = [(p, e) for p, e in factorize(A * n + B).factors if e % 2]
        if len(odd) == 1 and odd[0][1] % 4 == 1:
            count += 1
    return count


class TestGammaCount:
    def test_hand_count_N10(self):
        # 6n+1 for n <= 10: 1,7,13,19,25,31,37,43,49,55,61; qualifying are
        # the seven primes (p^1, m=1); 1, 25, 49 have no odd exponent and
        # 55 = 5*11 has two
        count, pred = V.gamma_count(6, 1, 10)
        assert count == 7
        assert pred == pytest.approx(math.pi**2 / 3 * 10 / math.log(10))

    def test_prime_powers_qualify(self):
        # 243 = 3^5 = 4*60 + 3 qualifies: one odd exponent, 5 = 1 mod 4
        assert V.gamma_count(4, 3, 60)[0] == _gamma_pointwise(4, 3, 60)
        assert V.gamma_count(4, 3, 60)[0] == V.gamma_count(4, 3, 59)[0] + 1

    @pytest.mark.parametrize("A,B,N", [(6, 1, 2000), (25, 3, 3000), (49, 23, 3000)])
    def test_matches_pointwise_factorize(self, A, B, N):
        assert V.gamma_count(A, B, N)[0] == _gamma_pointwise(A, B, N)

    def test_gcd_error(self):
        with pytest.raises(ValueError, match="gcd"):
            V.gamma_count(4, 2, 10)

    @pytest.mark.parametrize("N", [1, 0, -3])
    def test_small_N_refused(self, N):
        # log N is 0 or undefined below 2: a clean refusal, not a math error
        with pytest.raises(ValueError, match=f"N = {N}"):
            V.gamma_count(6, 1, N)


class TestRunner:
    def test_run_all_serial_in_name_order(self, monkeypatch):
        run_suite = V.run_suite
        calls = []

        def recording(name, limit=None, order=None):
            calls.append((name, threading.get_ident()))
            return run_suite(name, limit, order)

        monkeypatch.setattr(V, "run_suite", recording)
        reports = V.run_all(limit=20, order=200)
        assert [name for name, _ in calls] == sorted(V.SUITES)
        assert {ident for _, ident in calls} == {threading.get_ident()}
        expected = [r for name in sorted(V.SUITES) for r in run_suite(name, 20, 200)]
        assert reports == expected

    def test_bounds(self):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            V.run_suite("genus", limit=-1)
        with pytest.raises(ValueError, match="order must be >= 0"):
            V.run_suite("families", order=-1)
        # order 0 is a bound like any other, not a request for the default
        assert V.run_suite("families", order=0)[0].range_checked == "order 0"

    def test_bounds_refused_whether_or_not_read(self):
        # families reads only order and genus only limit; a negative value of
        # the other bound is refused all the same
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            V.run_suite("families", limit=-1, order=50)
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            V.run_suite("genus", limit=5, order=-1)

    def test_run_suite_names_cover_registry(self):
        # every suite runs at tiny bounds, the empty ranges 0 and 1 included
        for name in V.SUITES:
            for n in (0, 1, 20):
                reps = V.run_suite(name, limit=n, order=n)
                assert reps and all(isinstance(r, V.VerificationReport) for r in reps)

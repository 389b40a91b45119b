"""Tests of the benchmark's reference computations and span bookkeeping.

    python3 -m pytest eobench/test_reference.py

Every reference is checked against a brute-force count written here, never
against eopart, so a fault shared by the library and a reference would
still show.
"""

import json
import math
import os
import random

import numpy as np
import pytest

import reference as R
import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _factor(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _eobar_brute(n):
    """Even parts below odd parts; only the largest even part (if any) has
    odd multiplicity."""
    count = 0
    for parts in _partitions(n):
        evens = [p for p in parts if p % 2 == 0]
        odds = [p for p in parts if p % 2]
        if evens and odds and max(evens) > min(odds):
            continue
        odd_mult = {p for p in set(parts) if parts.count(p) % 2}
        count += odd_mult == ({max(evens)} if evens else set())
    return count


def _lattice(n, a, b, c):
    r = math.isqrt(n)
    return sum(
        1
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        for z in range(-r, r + 1)
        if a * x * x + b * y * y + c * z * z == n
    )


def _eta_product(order, powers):
    """prod_k prod_n (1 - q^{kn})^{e_k} with Python ints."""
    c = [1] + [0] * order
    for k, e in powers.items():
        for _ in range(e):
            for j in range(k, order + 1, k):
                for i in range(order, j - 1, -1):
                    c[i] -= c[i - j]
    return c


def _forms(D):
    """Reduced primitive forms of discriminant D < 0, counted directly."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (b < 0 and a == c) or math.gcd(math.gcd(a, b), c) != 1:
                continue
            count += 1
        a += 1
    return count


def test_spf_sieve():
    spf = R.spf_sieve(3000)
    assert all(spf[n] == min(_factor(n)) for n in range(2, 3001))
    assert list(R.primes_upto(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_odd_exponent_primes():
    rng = random.Random(5)
    values = np.array([1] + [rng.randrange(2, 50_000) for _ in range(300)])
    count, prime, expo = R.odd_exponent_primes(values, R.spf_sieve(50_000))
    for v, c, p, e in zip(values, count, prime, expo):
        odd = {q: k for q, k in _factor(int(v)).items() if k % 2}
        assert c == len(odd)
        if odd:
            assert (p, e) == max(odd.items())


def test_sigma_recurrence_matches_enumeration():
    exact = R.eobar_exact(24)
    assert exact[8] == 5
    assert exact == [_eobar_brute(n) for n in range(25)]


@pytest.mark.parametrize("m", [2, 3, 4, 8, 9])
def test_mod_route_matches_exact(m):
    exact = R.eobar_exact(800)
    assert list(R.eobar_mod(800, m)) == [v % m for v in exact]


def test_mod4_class_is_the_classification():
    order = 1200
    exact = R.eobar_exact(order)
    want = [R.ODD if v % 2 else R.TWO_MOD4 if v % 4 == 2 else R.ZERO_MOD4 for v in exact]
    cls = R.eobar_mod4_class(order)
    assert list(cls) == want
    for N in (2, 99, 1200):
        assert R.odd_count_closed_form(N) == int(np.count_nonzero(cls[: N + 1] == R.ODD))


def test_theta_products_match_lattice_counts():
    r113, r133 = R.r113_table(120), R.r133_table(120)
    for n in range(121):
        assert r113[n] == _lattice(n, 1, 1, 3)
        assert r133[n] == _lattice(n, 1, 3, 3)


def test_a_and_b_tables():
    a, b = R.a_table(300), R.b_table(300)
    r113 = R.r113_table(12 * 40 + 2)
    assert [int(a[n]) for n in range(41)] == [int(r113[12 * n + 2]) // 4 for n in range(41)]
    assert list(b) == _eta_product(300, {1: 2, 2: 1})
    assert all((x - y) % 4 == 0 for x, y in zip(a, b))


def test_jacobi_against_euler_criterion():
    for p in (3, 5, 7, 11, 13, 97):
        a = np.arange(0, 3 * p)
        want = [0 if x % p == 0 else (1 if pow(int(x), (p - 1) // 2, p) == 1 else -1) for x in a]
        assert list(R.jacobi(a, np.full(len(a), p))) == want
    # composite modulus: multiplicative in the modulus
    a = np.arange(-40, 40)
    got = R.jacobi(a, np.full(len(a), 15))
    assert list(got) == list(R.jacobi(a, np.full(len(a), 3)) * R.jacobi(a, np.full(len(a), 5)))


def test_class_numbers_match_reduced_forms():
    for m in range(1, 400):
        if any(m % (p * p) == 0 for p in range(2, 21)):
            continue
        D = -m if m % 4 == 3 else -4 * m
        assert R.class_number(m) == _forms(D), m
    assert (R.class_number(5), R.class_number(23), R.class_number(102)) == (2, 3, 4)


def test_h6p_statement_first_fails_at_17():
    ref = R.h6p_first_failure(500)
    assert ref["first"] == {"p": 17, "h": 4, "h_mod8": 4}
    assert ref["holds_for_p_1_mod_6"] is True


def test_gamma_reference_counts_by_trial_division():
    A, B, N = 25, 3, 400
    want = 0
    for n in range(N + 1):
        odd = [(p, e) for p, e in _factor(A * n + B).items() if e % 2]
        want += len(odd) == 1 and odd[0][1] % 4 == 1
    count, pred = R.gamma_reference(A, B, N)
    assert count == want
    assert math.isclose(pred, math.pi**2 / 6 * (1 + 1 / 5) * N / math.log(N))


def test_mod4_certificate_witnesses():
    spf = R.spf_sieve(60_000)
    for n in range(2, 120_000, 12 * 37):
        cls, w = R.mod4_certificate(n, spf)
        if cls == R.ODD:
            assert n == 2 * w[0] ** 2
        elif cls == R.TWO_MOD4:
            p, a, m = w
            assert n == 2 * p ** (4 * a + 1) * m * m and p % 8 in (5, 7) and math.gcd(m, 6 * p) == 1
        else:
            assert w is None


def test_stratified_draws_one_per_stratum():
    got = workloads._stratified(random.Random(1), 100, 200, 5, lambda n: n % 2 == 0)
    assert [(n - 100) // 20 for n in got] == [0, 1, 2, 3, 4]
    assert all(n % 2 == 0 for n in got)


def test_self_time_and_pool_wait():
    # run_all [0, 10] on the main thread; two suites on pool threads that
    # overlap; one child inside the first suite.
    def fields(i, name, s, e, parent, thread):
        return [i, name, s, e, parent, "w", thread, 0, False]

    span_list = [
        fields(0, "verify.run_all", 0.0, 10.0, None, 1),
        fields(1, "verify.r113-A", 1.0, 6.0, 0, 2),
        fields(2, "verify.genus", 4.0, 9.0, 0, 3),
        fields(3, "quadforms.r113.small", 2.0, 3.0, 1, 2),
    ]
    m = spans.layer_metrics(span_list)
    assert m["verify.run_all.wait_s"] == pytest.approx(1.0 + 4.0)
    assert m["verify.self_s"] == pytest.approx(2.0 + 4.0 + 5.0)  # 10 - [1, 9]; 5 - 1; 5
    assert m["quadforms.self_s"] == pytest.approx(1.0)
    assert m["verify.r113-A_s"] == pytest.approx(5.0)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eopart import arith
from eopart.arith import (
    Factorization,
    factorize,
    is_prime,
    is_squarefree,
    legendre,
    odd_exponent_sieve,
)


def _smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] for n <= limit by a plain sieve (spf[0] = spf[1] = 0)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    return spf


PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestIsPrime:
    def test_small(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)

    def test_carmichael(self):
        # 561 = 3*11*17 fools many probabilistic setups
        assert not is_prime(561)

    def test_against_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in range(2000):
            assert is_prime(n) == trial(n), n

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**31 + 11))

    def test_against_sieve(self):
        # below 53^2 the small-prime loop decides without Miller-Rabin
        spf = _smallest_prime_factors(10**4)
        for n in range(10**4):
            assert is_prime(n) == (n >= 2 and spf[n] == n), n

    @pytest.mark.parametrize("n, prime", [(47, True), (53, True), (2809, False), (2021, False)])
    def test_edges_of_the_trial_prefix(self, n, prime):
        # 47 ends the trial prefix and 53 follows it; 2809 = 53^2 is the least
        # composite with no factor in it, and 2021 = 43 * 47 falls to its last two
        assert is_prime(n) == prime

    def test_psi_12_is_composite(self):
        # the least strong pseudoprime to the bases 2..37; base 41 exposes it
        assert not is_prime(PSI_12)

    def test_psi_13_refused(self):
        # psi_13 passes all 13 bases 2..41: from there on a pass proves nothing
        with pytest.raises(ValueError, match="psi_13"):
            is_prime(PSI_13)
        with pytest.raises(ValueError, match="psi_13"):
            is_prime(2**89 - 1)  # a Mersenne prime past psi_13

    def test_composites_past_psi_13_still_decided(self):
        # a small factor or a failing base proves compositeness at any size
        assert not is_prime(10**30)
        assert not is_prime(PSI_13 * 5)
        assert not is_prime((2**61 - 1) * (2**31 - 1))
        assert not is_prime((2**89 - 1) * (2**61 - 1))


class TestFactorize:
    def test_one(self):
        assert factorize(1).factors == ()

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_constructed(self):
        assert factorize(2 * 5**5 * 49).factors == ((2, 1), (5, 5), (7, 2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_roundtrip_range(self):
        for n in range(1, 3000):
            fac = factorize(n)
            assert math.prod(p**e for p, e in fac.factors) == n

    @given(st.integers(min_value=1, max_value=10**12))
    def test_roundtrip_random(self, n):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac.factors) == n
        assert all(is_prime(p) for p, _ in fac.factors)

    def test_validation(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 1), (3, 1)))
        with pytest.raises(ValueError):
            Factorization(12, ((4, 1), (3, 1)))

    @pytest.mark.parametrize(
        "n, factors",
        [
            (9973, ((9973, 1),)),
            (10007, ((10007, 1),)),
            (9973 * 10007, ((9973, 1), (10007, 1))),
            (9973**2, ((9973, 2),)),
            (2**5 * 10007, ((2, 5), (10007, 1))),
            (10007**2, ((10007, 2),)),
        ],
    )
    def test_edges_of_the_trial_table(self, n, factors):
        # 9973 is the last prime below 10^4 and 10007 the first past it
        assert factorize(n).factors == factors

    def test_psi_12(self):
        assert factorize(PSI_12).factors == ((399165290221, 1), (798330580441, 1))

    # Trial division stops below 10^4; every prime factor past it comes from rho.
    @pytest.mark.parametrize("p", [10007, 10009, 99991, 1000003])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_prime_powers_past_trial_division(self, p, k):
        assert factorize(p**k).factors == ((p, k),)

    def test_two_primes_past_trial_division(self):
        primes = [10007, 10009, 65537, 99991, 500009, 999983]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_mixed_small_and_rho_factors(self):
        assert factorize(6 * 99991**3 * 10007).factors == ((2, 1), (3, 1), (10007, 1), (99991, 3))
        assert factorize(6 * 10007**3 * 10007).factors == ((2, 1), (3, 1), (10007, 4))

    def test_sweep_against_smallest_prime_factors(self):
        limit = 2 * 10**5
        spf = _smallest_prime_factors(limit).tolist()
        for n in range(1, limit):
            want, m = {}, n
            while m > 1:
                want[spf[m]] = want.get(spf[m], 0) + 1
                m //= spf[m]
            assert factorize(n).factors == tuple(sorted(want.items())), n


def _odd_exponent_pointwise(a, b, count):
    """(n_odd, prime, exponent) of each term from factorize, as the sieve states them."""
    out = []
    for i in range(count):
        odd = [(p, e) for p, e in factorize(a * i + b).factors if e % 2]
        out.append((len(odd), *(odd[0] if len(odd) == 1 else (0, 0))))
    return out


def _profile(a, b, count):
    return list(zip(*(col.tolist() for col in odd_exponent_sieve(a, b, count))))


class TestOddExponentSieve:
    @pytest.mark.parametrize("a,b", [(6, 1), (25, 3), (49, 23), (4, 3), (1, 1)])
    def test_matches_factorize(self, a, b):
        assert _profile(a, b, 3000) == _odd_exponent_pointwise(a, b, 3000)

    def test_crosses_blocks(self):
        lo = arith._SIEVE_BLOCK - 250
        got = _profile(6, 1, lo + 500)[lo:]
        assert got == _odd_exponent_pointwise(6, 1 + 6 * lo, 500)

    @pytest.mark.parametrize("count", [0, 1])
    def test_short_progressions(self, count):
        assert _profile(6, 7, count) == _odd_exponent_pointwise(6, 7, count)
        assert all(len(col) == count for col in odd_exponent_sieve(6, 7, count))

    def test_terms_equal_to_one(self):
        assert _profile(1, 1, 1) == [(0, 0, 0)]
        assert _profile(6, 1, 2) == [(0, 0, 0), (1, 7, 1)]

    def test_prime_powers(self):
        # 243 = 3^5 = 4*60 + 3 and 7^5 = 16807 = 6*2801 + 1
        assert _profile(4, 3, 61)[60] == (1, 3, 5)
        assert _profile(6, 1, 2802)[2801] == (1, 7, 5)
        assert _profile(6, 1, 2802)[8] == (0, 0, 0)  # 49 = 7^2

    def test_prime_cofactor_above_sqrt_top(self):
        # 5 * 65537: the sieve stops at isqrt(327685) = 572, leaving 65537
        assert _profile(1, 5 * 65537, 1) == [(2, 0, 0)]
        assert _profile(1, 4 * 65537, 1) == [(1, 65537, 1)]

    def test_large_cofactors_go_through_factorize(self, monkeypatch):
        # Past 2^32 the sieve stops at L = 2^16, so a cofactor r with
        # r >= (L+1)^2 = 65537^2 is split by factorize; a smaller one is prime.
        calls = []

        def counting(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(arith, "factorize", counting)
        cases = [  # (term, profile, the cofactor factorize must split or None)
            (7 * (2**32 + 15), (2, 0, 0), None),  # prime cofactor 2^32 + 15 < 65537^2
            (4 * (2**32 + 15), (1, 2**32 + 15, 1), None),
            (65537**2, (0, 0, 0), 65537**2),  # cofactor exactly (L+1)^2
            (3 * 65537**3, (2, 0, 0), 65537**3),
            (4 * 1000003 * 1000033, (2, 0, 0), 1000003 * 1000033),
            (1000003**3, (1, 1000003, 3), 1000003**3),
        ]
        for v, want, cofactor in cases:
            calls.clear()
            assert _profile(1, v, 1) == [want], v
            assert calls == ([] if cofactor is None else [cofactor]), v
        monkeypatch.undo()
        b = 65537**2 - 20
        assert _profile(1, b, 40) == _odd_exponent_pointwise(1, b, 40)

    def test_bound_at_the_prime_cap(self):
        # the top 1000003 * 4400 + 1 passes 2^32, so the sieve reads its
        # whole prime table, up to 2^16
        a, b, count = 1000003, 1, 4401
        assert math.isqrt(a * (count - 1) + b) > arith._SIEVE_PRIME_CAP
        got = _profile(a, b, count)
        for i in [*range(0, count, 97), *range(count - 20, count)]:
            assert [got[i]] == _odd_exponent_pointwise(1, a * i + b, 1), i

    def test_refusals(self):
        with pytest.raises(ValueError, match="gcd"):
            odd_exponent_sieve(6, 3, 10)
        with pytest.raises(ValueError, match="count >= 0"):
            odd_exponent_sieve(6, 1, -1)
        with pytest.raises(ValueError, match="2\\^62"):
            odd_exponent_sieve(1, 2**62 - 1, 2)
        with pytest.raises(ValueError, match="2\\^62"):
            odd_exponent_sieve(2**62, 1, 1)
        assert _profile(1, 2**62 - 1, 1) == _odd_exponent_pointwise(1, 2**62 - 1, 1)


class TestLegendre:
    def test_examples(self):
        assert legendre(1, 7) == 1
        assert legendre(14, 7) == 0
        assert legendre(3, 7) == -1  # squares mod 7 are {1,2,4}

    def test_rejects_non_odd_prime(self):
        with pytest.raises(ValueError):
            legendre(3, 2)
        with pytest.raises(ValueError):
            legendre(3, 9)

    def test_negative_argument(self):
        # (-1/p) = (-1)^((p-1)/2)
        assert legendre(-1, 5) == 1
        assert legendre(-1, 7) == -1

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_counts_squares(self, p):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)

    @given(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=-200, max_value=200),
        st.sampled_from([5, 7, 11, 13]),
    )
    def test_multiplicative(self, a, b, p):
        assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


class TestSquares:
    def test_is_squarefree(self):
        assert is_squarefree(1) and is_squarefree(30) and is_squarefree(3 * 5 * 7 * 11)
        assert not is_squarefree(18) and not is_squarefree(2 * 5**5 * 49)

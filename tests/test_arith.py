import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eopart.arith import (
    Factorization,
    factorize,
    is_prime,
    is_square,
    is_squarefree,
    legendre,
)


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
    def test_is_square(self):
        assert is_square(0) == (True, 0)
        assert is_square(49) == (True, 7)
        assert is_square(199) == (False, 0)

    def test_is_squarefree(self):
        assert is_squarefree(1) and is_squarefree(30) and is_squarefree(3 * 5 * 7 * 11)
        assert not is_squarefree(18) and not is_squarefree(2 * 5**5 * 49)

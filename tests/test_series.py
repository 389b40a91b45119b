import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eopart.series import (
    Series,
    _inv_mod,
    _mul_mod,
    divide,
    eta_factor,
    eta_product,
    eta_quotient_mod,
    mod_reduce,
    mul,
    one,
    power,
    theta,
    theta_terms,
)

small_series = st.builds(
    Series, st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12)
)
KINDS = ("square", "square_alt", "pent3", "pent3_alt")
# the exponent 3n^2 - n of f_series and b_series_theta, which read it as pent3
# at dilation 2: definition_sum writes it out, theta_terms gets (kind, 2)
OCTIC = {"octic": "pent3", "octic_alt": "pent3_alt"}


def definition_sum(kind, order, k=1):
    """sum_{n in Z} (+-1)^n q^{k e(n)} through order, term by term."""
    e = {
        "square": lambda n: n * n,
        "pent3": lambda n: n * (3 * n - 1) // 2,
        "octic": lambda n: n * (3 * n - 1),
    }[kind.removesuffix("_alt")]
    c = [0] * (order + 1)
    for n in range(-order, order + 1):  # e(n) >= |n|, so larger |n| never lands
        if k * e(n) <= order:
            c[k * e(n)] += (-1) ** n if kind.endswith("_alt") else 1
    return c


def scatter(terms, order):
    c = [0] * (order + 1)
    for e, s in zip(*terms):
        c[e] += s
    return c


unit_series = st.builds(
    lambda head, tail: Series([head] + tail),
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=10),
)


class TestEtaFactor:
    def test_k1_order7(self):
        assert eta_factor(1, 7).coeffs == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_k2_order3(self):
        assert eta_factor(2, 3).coeffs == [1, 0, -1, 0]

    def test_k5_order4_no_factor_contributes(self):
        assert eta_factor(5, 4).coeffs == [1, 0, 0, 0, 0]

    def test_constant_term_one(self):
        for k in (1, 2, 3, 4, 12):
            assert eta_factor(k, 30).c(0) == 1

    def test_bad_args(self):
        for fn in (eta_factor, eta_product):
            with pytest.raises(ValueError):
                fn(0, 5)
            with pytest.raises(ValueError):
                fn(1, -1)

    def test_matches_honest_product(self):
        for k in (1, 2, 3, 4, 12):
            assert eta_factor(k, 400) == eta_product(k, 400)

    def test_past_the_product_guard(self):
        # for k = 1 the honest product's intermediate coefficients reach 2^40
        # from order 5689 on; it works in Python ints, so it has no ceiling
        assert eta_product(1, 6000) == eta_factor(1, 6000)
        assert eta_factor(1, 6000).coeffs == definition_sum("pent3_alt", 6000)


class TestTheta:
    def test_square(self):
        assert theta("square", 4).coeffs == [1, 2, 0, 0, 2]

    def test_square_alt(self):
        assert theta("square_alt", 4).coeffs == [1, -2, 0, 0, 2]

    def test_pent3_alt_equals_eta(self):
        # second triple-product specialization, also an independent
        # summation over n in {-2..2}
        assert theta("pent3_alt", 5).coeffs == [1, -1, -1, 0, 0, 1]

    def test_octic_exponents(self):
        # 3n^2 - n is the pent3 exponent at dilation 2
        s = theta("pent3", 14, 2)
        assert [n for n, v in enumerate(s.coeffs) if v] == [0, 2, 4, 10, 14]

    def test_unknown_kind(self):
        for kind in ("cubic", "bogus", "cubic_alt", "octic", "octic_alt"):
            with pytest.raises(ValueError, match="unknown theta kind"):
                theta(kind, 5)


class TestThetaTerms:
    @pytest.mark.parametrize("kind", [*KINDS, *OCTIC])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [0, 1, 59, 400])
    def test_matches_definition(self, kind, k, order):
        base, m = (OCTIC[kind], 2) if kind in OCTIC else (kind, 1)
        assert scatter(theta_terms(base, order, m * k), order) == definition_sum(kind, order, k)

    def test_theta_and_eta_factor_scatter_it(self):
        for kind in KINDS:
            for k in (1, 2, 3, 4):
                assert theta(kind, 100, k).coeffs == definition_sum(kind, 100, k)
        for k in (1, 2, 5, 12):
            assert eta_factor(k, 100).coeffs == definition_sum("pent3_alt", 100, k)

    def test_refusals(self):
        with pytest.raises(ValueError, match="unknown theta kind"):
            theta_terms("cubic", 5)
        for k in (0, -2):
            with pytest.raises(ValueError):
                theta_terms("square", 5, k)
        with pytest.raises(ValueError):
            theta_terms("pent3_alt", -1)

    def test_dilation_beyond_int64(self):
        # every term but q^0 lies past the order; k never reaches numpy
        assert eta_factor(2**64, 5) == one(5)
        for kind in KINDS:
            assert scatter(theta_terms(kind, 7, 2**70), 7) == one(7).coeffs
        assert eta_quotient_mod({2**63: 1}, {}, 5, 4).tolist() == [1, 0, 0, 0, 0, 0]


@st.composite
def mul_operands(draw):
    """A Series of order <= 40, dense or with at most four nonzero terms."""
    order = draw(st.integers(min_value=0, max_value=40))
    coeff = st.integers(min_value=-50, max_value=50)
    if draw(st.booleans()):
        return Series(draw(st.lists(coeff, min_size=order + 1, max_size=order + 1)))
    c = [0] * (order + 1)
    for i in draw(st.lists(st.integers(min_value=0, max_value=order), max_size=4)):
        c[i] = draw(coeff)
    return Series(c)


class TestMul:
    @given(mul_operands(), mul_operands())
    @settings(max_examples=200)
    def test_matches_cauchy_sum(self, a, b):
        order = min(a.order, b.order)
        cauchy = [
            sum(a.coeffs[i] * b.coeffs[n - i] for i in range(n + 1)) for n in range(order + 1)
        ]
        assert mul(a, b) == Series(cauchy)

    def test_truncates_to_shorter(self):
        r = mul(Series([1, 1]), Series([1, -1]))
        assert r.coeffs == [1, 0] and r.order == 1

    def test_shift(self):
        assert mul(Series([1, 0, 0]), Series([0, 0, 1])).coeffs == [0, 0, 1]

    def test_identity_factor(self):
        t = theta("square", 4)
        assert mul(t, one(4)) == t


class TestPower:
    def test_zero_exponent(self):
        assert power(Series([1, 1]), 0).coeffs == [1, 0]

    def test_binomial(self):
        assert power(Series([1, 1, 0]), 2).coeffs == [1, 2, 1]

    def test_eta_square_head(self):
        assert power(eta_factor(1, 5), 2).coeffs[:3] == [1, -2, -1]


class TestInvert:
    # the inverse is divide(one(order), a)
    def test_geometric(self):
        assert divide(one(2), Series([1, -1, 0])).coeffs == [1, 1, 1]

    def test_negative_unit(self):
        assert divide(one(1), Series([-1, 0])).coeffs == [-1, 0]

    def test_inverse_eta_square(self):
        assert divide(one(4), power(eta_factor(2, 4), 2)).coeffs == [1, 0, 2, 0, 5]

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="non-invertible"):
            divide(one(1), Series([2, 1]))

    @given(unit_series)
    def test_two_sided_inverse(self, a):
        assert mul(a, divide(one(a.order), a)) == one(a.order)


class TestModReduce:
    def test_least_nonnegative(self):
        assert mod_reduce(Series([-2, 5, 4]), 4).coeffs == [2, 1, 0]

    def test_zero(self):
        assert mod_reduce(Series([0]), 2).coeffs == [0]

    def test_theta_alt(self):
        assert mod_reduce(theta("square_alt", 4), 4).coeffs == [1, 2, 0, 0, 2]

    @given(small_series, small_series, st.integers(min_value=2, max_value=9))
    @settings(max_examples=60)
    def test_commutes_with_mul(self, a, b, m):
        assert mod_reduce(mul(a, b), m) == mod_reduce(
            mul(mod_reduce(a, m), mod_reduce(b, m)), m
        )


class TestTripleProductIdentities:
    @pytest.mark.parametrize("order", [50, 200, 600])
    def test_square_alt_identity(self, order):
        lhs = mul(theta("square_alt", order), eta_product(2, order))
        assert lhs == power(eta_product(1, order), 2)

    @pytest.mark.parametrize("order", [50, 200, 600])
    def test_pent3_alt_identity(self, order):
        assert theta("pent3_alt", order) == eta_product(1, order)


class TestDivide:
    @given(small_series, unit_series)
    @settings(max_examples=60)
    def test_mul_round_trip(self, num, den):
        q = divide(num, den)
        n = q.order
        assert mul(q, den).coeffs == num.coeffs[: n + 1]


class TestModPath:
    def test_pentagonal_matches_product(self):
        # Euler's pentagonal expansion against the honest product
        for k in (1, 2, 4):
            assert scatter(theta_terms("pent3_alt", 400, k), 400) == eta_product(k, 400).coeffs

    # the last two moduli need several FFT limbs per residue
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 2**31 - 1, 10**15 + 37])
    def test_quotient_matches_exact(self, m):
        exact = divide(
            divide(power(eta_factor(4, 500), 3), eta_factor(2, 500)),
            eta_factor(2, 500),
        )
        arr = eta_quotient_mod({4: 3}, {2: 2}, 500, m)
        assert [v % m for v in exact.coeffs] == arr.tolist()

    def test_plain_product_mod(self):
        exact = mul(power(eta_factor(2, 300), 2), eta_factor(4, 300))
        arr = eta_quotient_mod({2: 2, 4: 1}, {}, 300, 4)
        assert [v % 4 for v in exact.coeffs] == arr.tolist()

    @given(small_series, unit_series, st.integers(min_value=2, max_value=2**62))
    @settings(max_examples=60)
    def test_kernel_matches_exact(self, a, den, m):
        # FFT product and Newton inverse against Series.mul and divide
        n = min(a.order, den.order) + 1
        f = mod_reduce(Series([1] + den.coeffs[1:n]), m)
        ra = np.array(mod_reduce(a, m).coeffs[:n], dtype=np.int64)
        rf = np.array(f.coeffs, dtype=np.int64)
        assert _mul_mod(ra, rf, m).tolist() == mod_reduce(mul(a, f), m).coeffs
        assert _mul_mod(ra, ra, m).tolist() == mod_reduce(mul(a, a), m).coeffs[:n]
        assert _inv_mod(rf, m).tolist() == mod_reduce(divide(one(f.order), f), m).coeffs

    def test_bad_args(self):
        for args in (
            ({4: 3}, {2: 2}, 10, 1),
            ({4: -1}, {}, 10, 4),
            ({4: 1}, {2: -2}, 10, 4),
            ({}, {}, -1, 4),
            ({0: 1}, {}, 10, 4),
        ):
            with pytest.raises(ValueError):
                eta_quotient_mod(*args)


class TestSeriesInvariants:
    def test_length_matches_order(self):
        # the order is read from the length; no coefficients is order -1
        assert Series([1, 2]).order == 1
        with pytest.raises(ValueError, match="order must be >= 0"):
            Series([])

    def test_keeps_the_list_it_is_handed(self):
        c = [1, 2, 3]
        assert Series(c).coeffs is c

    def test_coeff_beyond_order(self):
        with pytest.raises(IndexError):
            Series([1, 2]).c(2)

import collections
import itertools
import math

import pytest

from eopart import quadforms
from eopart.arith import factorize, is_prime
from eopart.quadforms import (
    A_direct,
    A_series,
    Mod4Class,
    ReducedForm,
    _tiles,
    _ternary,
    b_series,
    b_series_theta,
    class_number,
    classify_mod4,
    f_series,
    r113,
    r133,
    r3_series,
    reduced_forms,
    ternary_series,
)
from eopart.series import eta_factor, mul, power, theta


# The pure-Python loops the numpy grids replaced, kept as the reference.
def _ternary_loop(n, b):
    total = 0
    for z in range(math.isqrt(n // 3) + 1):
        wz = 2 if z else 1
        rem = n - 3 * z * z
        for y in range(math.isqrt(rem // b) + 1):
            wy = 2 if y else 1
            t = rem - b * y * y
            x = math.isqrt(t)
            if x * x == t:
                total += wz * wy * (2 if x else 1)
    return total


def _A_direct_loop(n):
    total = 0
    for z in range(math.isqrt(n // 12) + 1):
        wz = 2 if z else 1
        rem = n - 12 * z * z
        r = math.isqrt(rem)
        for u in range(-r + (1 + r) % 6, r + 1, 6):
            t = rem - u * u
            w = math.isqrt(t)
            if w * w == t and w % 6 in (1, 5):
                total += wz
    return total


_LOOPS = {
    r113: lambda n: _ternary_loop(n, 1),
    r133: lambda n: _ternary_loop(n, 3),
    A_direct: _A_direct_loop,
}


def _reduced_forms_brute(D):
    # every (a, b, c) with |b| <= a <= c, c fixed by b^2 - 4ac = D, kept
    # when reduced (b >= 0 if |b| = a or a = c) and primitive; such a form
    # has 3a^2 <= 4ac - b^2 = -D
    want = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            c, r = divmod(b * b - D, 4 * a)
            if r or c < a or (b < 0 and (-b == a or a == c)):
                continue
            if math.gcd(a, b, c) == 1:
                want.append((a, b, c))
    return want


class TestRepresentationNumbers:
    def test_r113_values(self):
        assert r113(0) == 1
        assert r113(2) == 4  # (+-1, +-1, 0)
        assert r113(14) == 8  # (+-1, +-1, +-2)

    def test_r133_values(self):
        assert r133(0) == 1
        assert r133(1) == 2
        assert r133(6) == r113(2) == 4

    def test_scaling_identity(self):
        # solutions of x^2+y^2+3z^2 = n biject with x^2+3y^2+3z^2 = 3n
        for n in range(80):
            assert r133(3 * n) == r113(n), n

    def test_brute_force_cross_check(self):
        # each count against its definition, tallied over a box that holds
        # every solution for n <= N: |x| <= isqrt(N / coefficient)
        N = 300
        box = lambda c: range(-math.isqrt(N // c), math.isqrt(N // c) + 1)
        # (6x+1)^2 <= N needs -isqrt(N) <= 6x+1 <= isqrt(N)
        sixth = range(-((math.isqrt(N) + 1) // 6), (math.isqrt(N) - 1) // 6 + 1)
        cases = [
            (r113, lambda x, y, z: x * x + y * y + 3 * z * z, (box(1), box(1), box(3))),
            (r133, lambda x, y, z: x * x + 3 * y * y + 3 * z * z, (box(1), box(3), box(3))),
            (
                A_direct,
                lambda x, y, z: (6 * x + 1) ** 2 + (6 * y + 1) ** 2 + 12 * z * z,
                (sixth, sixth, box(12)),
            ),
        ]
        for count, form, boxes in cases:
            tally = collections.Counter(form(*v) for v in itertools.product(*boxes))
            assert [count(n) for n in range(N + 1)] == [tally[n] for n in range(N + 1)], count

    @pytest.mark.parametrize("count", [r113, r133, A_direct])
    def test_negative_n_refused(self, count):
        with pytest.raises(ValueError, match="n must be >= 0"):
            count(-1)

    @pytest.mark.parametrize("count", [r113, r133, A_direct])
    def test_float_bound_refused(self, count):
        # the float64 square-root candidate is exact only below 2**52
        with pytest.raises(ValueError, match=r"n must be < 2\*\*52"):
            count(2**52)

    def test_reduced_forms_refuse_float_bound(self):
        with pytest.raises(ValueError, match=r"D must be > -2\*\*52"):
            reduced_forms(-(2**52))

    @pytest.mark.parametrize("count", [r113, r133, A_direct])
    def test_matches_reference_loop(self, count):
        loop = _LOOPS[count]
        assert [count(n) for n in range(3001)] == [loop(n) for n in range(3001)]

    @pytest.mark.parametrize(
        "count, n",
        [
            (r113, 4 * 10**4),
            (r113, 10**6 + 2),
            (r133, 4 * 10**4),
            (r133, 10**6 + 2),
            (A_direct, 11**4 * 50),
            (A_direct, 13**4 * 50),
        ],
    )
    def test_matches_reference_loop_across_tiles(self, count, n):
        # a grid of about isqrt(n / 3) * isqrt(n / b) cells (isqrt(n / 12) *
        # isqrt(n) / 3 for A_direct) spans several tiles here, all but
        # r133(4 * 10**4), where every n <= 3000 fits in one
        assert quadforms._CELLS <= 2**14
        assert count(n) == _LOOPS[count](n)

    def test_tiles_cover_the_grid_in_row_major_order(self):
        for rows, cols in [
            (range(0), range(5)),
            (range(7), range(0)),
            (range(1, 300), range(-299, 300, 2)),
            (range(3), range(2 * quadforms._CELLS + 5)),
        ]:
            cells = []
            for row, col in _tiles(rows, cols):
                assert row.size * col.size <= quadforms._CELLS
                cells += [(r, c) for r in row.tolist() for c in col.tolist()]
            assert cells == [(r, c) for r in rows for c in cols]


# The theta-product builders spelled with the Python-int mul, as each was
# before it read series.theta_product: the kernel's oracle.
MUL_BUILDERS = {
    "r113": (lambda o: ternary_series(1, o),
             lambda o: mul(mul(theta("square", o), theta("square", o)), theta("square", o, 3))),
    "r133": (lambda o: ternary_series(3, o),
             lambda o: mul(mul(theta("square", o), theta("square", o, 3)), theta("square", o, 3))),
    "f": (f_series, lambda o: mul(theta("square", o), power(theta("pent3", o, 2), 2))),
    "b": (b_series, lambda o: mul(power(eta_factor(1, o), 2), eta_factor(2, o))),
    "b_theta": (b_series_theta,
                lambda o: mul(theta("square_alt", o), power(theta("pent3_alt", o, 2), 2))),
}


class TestTernarySeries:
    @pytest.mark.parametrize("b", [1, 3])
    def test_theta_product_matches_loop(self, b):
        assert ternary_series(b, 600).coeffs == [_ternary(n, b) for n in range(601)]


@pytest.mark.parametrize("name", MUL_BUILDERS)
@pytest.mark.parametrize("order", [*range(60), 400, 8334])
def test_builder_matches_mul(name, order):
    kernel, oracle = MUL_BUILDERS[name]
    assert kernel(order) == oracle(order)


class TestACoefficients:
    def test_A2(self):
        assert A_direct(2) == 1

    def test_off_support(self):
        assert A_direct(3) == 0
        assert A_direct(8) == 0

    def test_A14(self):
        assert A_direct(14) == 2

    def test_direct_agrees_with_quarter_r113(self):
        for n in range(2, 1000):
            if n % 12 == 2:
                assert 4 * A_direct(n) == r113(n), n
            else:
                assert A_direct(n) == 0, n

    def test_a_coeff(self):
        # a(n) = A(12n + 2): a(0) = A(2), a(1) = A(14)
        assert f_series(1).coeffs == [1, 2]

    def test_f_series_matches_lattice(self):
        f = f_series(40)
        for n in range(41):
            assert f.c(n) == A_direct(12 * n + 2), n

    def test_A_series_matches_lattice(self):
        assert A_series(3000).coeffs == [A_direct(n) for n in range(3001)]

    @pytest.mark.parametrize("order", [0, 1, 2, 14])
    def test_A_series_small_orders(self, order):
        assert A_series(order).coeffs == [A_direct(n) for n in range(order + 1)]

    def test_A_series_refuses_negative_order(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            A_series(-1)


class TestBCoefficients:
    def test_b0_b1(self):
        assert b_series(1).coeffs == [1, -2]

    def test_eta_and_theta_routes_agree(self):
        assert b_series(300) == b_series_theta(300)

    def test_a_eq_b_mod4_head(self):
        f = f_series(50)
        b = b_series(50)
        assert all((f.c(n) - b.c(n)) % 4 == 0 for n in range(51))


class TestClassNumbers:
    def test_h3(self):
        assert reduced_forms(-3) == [ReducedForm(1, 1, 1)]
        assert class_number(3) == 1

    def test_h6(self):
        assert {(f.a, f.b, f.c) for f in reduced_forms(-24)} == {(1, 0, 6), (2, 0, 3)}
        assert class_number(6) == 2

    def test_h42(self):
        assert class_number(42) == 4
        # Lemma 2.1 instance: r113(14) = 2 h(-42)
        assert r113(14) == 2 * class_number(42)

    def test_known_small_field_values(self):
        # h(-m) for squarefree m, from standard tables
        known = {1: 1, 2: 1, 5: 2, 7: 1, 10: 2, 11: 1, 13: 2, 15: 2, 23: 3, 47: 5}
        for m, h in known.items():
            assert class_number(m) == h, m

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError, match="squarefree"):
            class_number(12)

    def test_refusals_keep_their_order(self):
        # squarefree is checked first, then the float bound on D = -4m
        with pytest.raises(ValueError, match="squarefree"):
            class_number(4 * 2**50)
        with pytest.raises(ValueError, match=r"D must be > -2\*\*52"):
            class_number(2**50 + 2)

    @staticmethod
    def suite_radicands():
        # the radicands of the classnumber/genus h(-3n) walk and of h6p at
        # their default ranges
        ms = [3 * n for n in range(2, 2001, 12) if all(e == 1 for _, e in factorize(n).factors)]
        ms += [6 * p for p in range(5, 501, 2) if p % 3 and is_prime(p)]
        assert len(ms) == 241
        return ms

    def test_class_number_builds_no_forms(self, monkeypatch):
        # class_number counts cells, it builds no form
        ms = self.suite_radicands()
        want = [len(reduced_forms(-m if m % 4 == 3 else -4 * m)) for m in ms]

        def refuse(*abc):
            raise AssertionError("class_number built a ReducedForm")

        monkeypatch.setattr(quadforms, "ReducedForm", refuse)
        assert [class_number(m) for m in ms] == want

    def test_three_squares_give_the_suite_class_numbers(self):
        # Gauss: r_3(m) = 12 h(-4m) for squarefree m > 3, m = 1, 2 mod 4; the
        # suites read h from r3_series and compare class_number on a sample
        ms = self.suite_radicands()
        assert all(m > 3 and m % 4 in (1, 2) for m in ms)
        r3 = r3_series(max(ms)).coeffs
        assert all(r3[m] % 12 == 0 for m in ms)
        assert [class_number(m) for m in ms] == [r3[m] // 12 for m in ms]

    def test_r3_series_counts_three_squares(self):
        r = math.isqrt(60)
        counts = collections.Counter(
            x * x + y * y + z * z for x, y, z in itertools.product(range(-r, r + 1), repeat=3)
        )
        assert r3_series(60).coeffs == [counts[m] for m in range(61)]

    def test_rejects_bad_discriminant(self):
        with pytest.raises(ValueError):
            reduced_forms(-6)
        with pytest.raises(ValueError):
            reduced_forms(5)

    def test_reduced_forms_match_brute_force(self):
        for D in range(-2000, -2):
            if D % 4 not in (0, 1):
                continue
            assert [(f.a, f.b, f.c) for f in reduced_forms(D)] == _reduced_forms_brute(D), D

    @pytest.mark.parametrize("D", [-60000, -120004, -240008])
    def test_reduced_forms_across_tiles(self, D):
        # a <= isqrt(-D / 3) rows of about as many b each: more than one tile
        a_max = math.isqrt(-D // 3)
        assert a_max * a_max > quadforms._CELLS
        assert [(f.a, f.b, f.c) for f in reduced_forms(D)] == _reduced_forms_brute(D)

    @pytest.mark.parametrize("m", [30001, 60002])  # D = -4m = -120004, -240008
    def test_class_number_counts_across_tiles(self, m):
        assert class_number(m) == len(reduced_forms(-4 * m))

    def test_reduced_form_validation(self):
        with pytest.raises(ValueError):
            ReducedForm(2, -2, 3)  # |b| = a needs b >= 0
        with pytest.raises(ValueError):
            ReducedForm(2, 0, 1)  # a > c
        with pytest.raises(ValueError):
            ReducedForm(2, 2, 2)  # imprimitive


class TestClassification:
    def test_n2_odd(self):
        cert = classify_mod4(2)
        assert cert.cls is Mod4Class.ODD and cert.witness == (1,)
        assert cert.check()

    def test_n14_two_mod_four(self):
        cert = classify_mod4(14)
        assert cert.cls is Mod4Class.TWO_MOD_FOUR
        assert cert.witness == (7, 0, 1)
        assert cert.check()

    def test_n170_zero_mod_four(self):
        # 170/2 = 5*17: two odd-exponent primes
        cert = classify_mod4(170)
        assert cert.cls is Mod4Class.ZERO_MOD_FOUR
        assert A_direct(170) % 4 == 0

    def test_higher_power_witness(self):
        # n = 2 * 7^5: exponent 5 = 4+1, p = 7 = 7 mod 8
        n = 2 * 7**5
        assert n % 12 == 2
        cert = classify_mod4(n)
        assert cert.cls is Mod4Class.TWO_MOD_FOUR
        assert cert.witness == (7, 1, 1)
        assert cert.check()

    def test_rejects_off_support(self):
        with pytest.raises(ValueError):
            classify_mod4(15)

    def test_matches_lattice_count(self):
        for n in range(2, 3000, 12):
            cert = classify_mod4(n)
            a4 = A_direct(n) % 4
            want = {
                Mod4Class.ODD: a4 % 2 == 1,
                Mod4Class.TWO_MOD_FOUR: a4 == 2,
                Mod4Class.ZERO_MOD_FOUR: a4 == 0,
            }[cert.cls]
            assert want, (n, cert, a4)
            assert cert.check()

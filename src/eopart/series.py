"""Truncated formal power series with exact integer coefficients.

A Series holds the coefficients of q^0 .. q^order exactly; nothing beyond
the truncation order is ever reported.  Every binary operation truncates
to the shorter operand.  Coefficients are Python ints, so there is no
overflow to guard against.

The product of two series pairs the nonzero terms of both operands, which
keeps eta/theta products cheap (those factors are lacunary: O(sqrt(N))
nonzero terms).  Division by a unit-constant series costs
O(N * nnz(divisor)) by the standard coefficient recurrence.
"""

from __future__ import annotations

from functools import reduce
from math import isqrt
from typing import Literal

import numpy as np

ThetaKind = Literal["square", "square_alt", "pent3", "pent3_alt"]

# Exponent e(n) of each kind's term; the *_alt kinds add the sign (-1)^n.
_THETA_EXPONENTS = {
    "square": lambda n: n * n,
    "pent3": lambda n: (3 * n * n - n) // 2,
}


class Series:
    """Dense truncated power series; immutable after construction.

    Series(coeffs) holds q^0 .. q^order, order = len(coeffs) - 1; the caller
    hands the list over, and it is kept, not copied.  An empty list is
    refused with ValueError.  Products and powers are spelled mul and power.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: list[int]):
        if not coeffs:
            raise ValueError("order must be >= 0")
        self.coeffs = coeffs
        self.order = len(coeffs) - 1

    def c(self, n: int) -> int:
        """Coefficient of q^n; n must not exceed the truncation order."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __repr__(self):
        head = self.coeffs[:8]
        tail = " ..." if self.order >= 8 else ""
        return f"Series({head}{tail}, order={self.order})"


def one(order: int) -> Series:
    c = [0] * (order + 1)
    c[0] = 1
    return Series(c)


def eta_factor(k: int, order: int) -> Series:
    """Truncated product prod_{n>=1} (1 - q^{kn}), exact at any order.

    Euler's pentagonal expansion J_k = sum_j (-1)^j q^{k j(3j-1)/2}, read
    from theta("pent3_alt", order, k): O(sqrt(order / k)) nonzero
    terms.  The triple-product suite checks that expansion against the
    honest product, eta_product, at the suite's order.
    """
    return theta("pent3_alt", order, k)


def eta_product(k: int, order: int) -> Series:
    """The same product by honest successive multiplication of the factors.

    This is the oracle for eta_factor: it makes no appeal to the
    pentagonal number theorem.  Each factor (1 - q^j) is one slice update
    of a numpy array of Python ints (dtype=object), so the product is
    exact at every order; it costs O(order^2 / k) integer subtractions.
    """
    if k < 1:
        raise ValueError("eta factor needs k >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    c = np.zeros(order + 1, dtype=object)
    c[0] = 1
    for j in range(k, order + 1, k):
        # (1 - q^j) * c, in place: numpy reads an operand that overlaps the
        # output as if copied first, so no descending loop is needed
        c[j:] -= c[: order + 1 - j]
    return Series(c.tolist())


def theta_terms(kind: ThetaKind, order: int, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, signs) of sum_{n in Z} (+-1)^n q^{k e(n)} through order.

    The one builder of every lacunary series here: theta, eta_factor and
    the J_k of eta_quotient_mod all read their terms from it, and k is the
    only dilation q -> q^k in the package.  kinds: square -> e(n)=n^2;
    pent3 -> e(n)=(3n^2-n)/2 (so 3n^2-n is pent3 at k = 2); the *_alt
    variants carry the sign (-1)^n.  One entry per n, so an
    exponent hit by n and -n (the square kinds) appears twice.  Refused
    with ValueError: an unknown kind, k < 1 and order < 0.  Any k > order
    leaves only q^0, so a k past int64 (2**64, say) is not an error.
    """
    expo = _THETA_EXPONENTS.get(kind.removesuffix("_alt"))
    if expo is None:
        raise ValueError(f"unknown theta kind {kind!r}")
    if k < 1:
        raise ValueError("theta dilation needs k >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    k = min(k, order + 1)  # e(n) >= 1 for n != 0: the same terms, int64-safe
    # e(n) >= n^2 for every kind, so k e(n) <= order needs |n| <= isqrt(order // k)
    n = np.arange(-isqrt(order // k), isqrt(order // k) + 1)
    exps = k * expo(n)
    keep = exps <= order
    signs = np.where(n % 2, -1, 1) if kind.endswith("_alt") else np.ones_like(n)
    return exps[keep], signs[keep]


def _scatter(kind: ThetaKind, order: int, k: int) -> np.ndarray:
    """theta_terms summed into int64 coefficients of q^0 .. q^order, each in -2..2."""
    terms = theta_terms(kind, order, k)  # refuses before order sizes an array
    c = np.zeros(order + 1, dtype=np.int64)
    np.add.at(c, *terms)
    return c


def theta(kind: ThetaKind, order: int, k: int = 1) -> Series:
    """Lacunary series sum_{n in Z} (+-1)^n q^{k e(n)} through order (kinds, k: theta_terms)."""
    return Series(_scatter(kind, order, k).tolist())


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at min(order(a), order(b)), over nonzero terms only."""
    order = min(a.order, b.order)
    terms = [(j, w) for j, w in enumerate(b.coeffs[: order + 1]) if w]
    res = [0] * (order + 1)
    for i, v in enumerate(a.coeffs[: order + 1]):
        if v:
            for j, w in terms:
                if i + j > order:
                    break
                res[i + j] += v * w
    return Series(res)


def power(a: Series, e: int) -> Series:
    """Repeated product; e = 0 gives the constant-1 series at a's order."""
    if e < 0:
        raise ValueError("power needs e >= 0")
    result = one(a.order)
    for _ in range(e):
        result = mul(result, a)
    return result


def divide(num: Series, den: Series) -> Series:
    """Series quotient num/den; den must have constant term +1 or -1.

    Coefficient recurrence s_n = (c_n - sum_{k>=1} d_k s_{n-k}) / d_0,
    walking only den's nonzero terms.
    """
    if den.coeffs[0] not in (1, -1):
        raise ValueError("non-invertible series")
    order = min(num.order, den.order)
    d0 = den.coeffs[0]
    terms = [(k, v) for k, v in enumerate(den.coeffs[1 : order + 1], start=1) if v]
    s = [0] * (order + 1)
    for n in range(order + 1):
        acc = num.coeffs[n]
        for k, v in terms:
            if k > n:
                break
            acc -= v * s[n - k]
        s[n] = acc if d0 == 1 else -acc
    return Series(s)


def mod_reduce(a: Series, m: int) -> Series:
    """Every coefficient replaced by its least nonnegative residue mod m."""
    if m < 2:
        raise ValueError("mod_reduce needs m >= 2")
    return Series([v % m for v in a.coeffs])


# ---------------------------------------------------------------------------
# Reduced (mod m) fast path.
#
# At congruence-only scale (order ~10^6) every coefficient lives reduced
# mod m.  Each eta factor J_k = sum_j (-1)^j q^{k j(3j-1)/2} is
# _scatter("pent3_alt", order, k), the scatter eta_factor reads, mod m;
# every product is one FFT convolution (_mul_mod) and every quotient one
# Newton inversion (_inv_mod), O(N log N) for any modulus.  The exact
# Series routines above are its oracle.
# ---------------------------------------------------------------------------


# Exactness budget: a float64 FFT convolution rounds to the exact integers
# while they stay far below 2^53.  _mul_mod cuts residues into k-bit limbs,
# k the widest for which a limb convolution (limbs * n terms, each below
# 2^(2k)) stays below 2^40, and refuses a rounding distance above 0.25 with
# ValueError rather than return a wrong residue.
def _mul_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """First len(a) coefficients of a*b mod m; a, b equal-length residues."""
    n, bits = len(a), max((m - 1).bit_length(), 1)
    k = bits
    while -(-bits // k) * n * 4**k >= 2**40:
        k -= 1
    limbs = -(-bits // k)
    # 2n-1 rounded up to four significant bits: less padding than 2^j
    step = 1 << max((2 * n - 1).bit_length() - 4, 0)
    size = -(-(2 * n - 1) // step) * step
    split = lambda x: [np.fft.rfft((x >> k * i) & ((1 << k) - 1), size) for i in range(limbs)]
    fa = split(a)
    fb = fa if b is a else split(b)
    # Horner in 2^k over the limb sums, doubling mod m; acc < m <= 2^62
    # (eta_quotient_mod refuses larger m), so acc << 1 fits in int64.
    acc = 0
    for s in range(2 * limbs - 2, -1, -1):
        pairs = range(max(0, s - limbs + 1), min(s, limbs - 1) + 1)
        x = np.fft.irfft(sum(fa[i] * fb[s - i] for i in pairs), size)[:n]
        r = np.rint(x)
        if (dist := np.abs(x - r).max()) > 0.25:
            raise ValueError(f"FFT product lost exactness (rounding distance {dist:.3g})")
        for _ in range(k):
            acc = (acc << 1) % m
        acc = (acc + r.astype(np.int64)) % m
    return acc


def _inv_mod(f: np.ndarray, m: int) -> np.ndarray:
    """1/f mod m to len(f) coefficients, for f[0] == 1.

    Newton's iteration g <- g (2 - f g) doubles the number of correct
    coefficients per step and never divides, so any modulus works.
    """
    g = np.ones(1, dtype=np.int64)
    while len(g) < len(f):
        g = np.pad(g, (0, min(len(g), len(f) - len(g))))
        e = -_mul_mod(f[: len(g)], g, m) % m
        e[0] = 1  # f g = 1 + O(q^(len(g)/2)), so 2 - f g starts with 1
        g = _mul_mod(g, e, m)
    return g


def eta_quotient_mod(
    num_powers: dict[int, int], den_powers: dict[int, int], order: int, m: int
) -> np.ndarray:
    """Coefficients mod m of prod J_k^{e_k} / prod J_k^{f_k} through order.

    Returns an int64 array of least nonnegative residues.  Each power of a
    factor is one _mul_mod and the denominator is removed by one _inv_mod.
    Refused with ValueError: m < 2, m > 2^62 (the Horner doubling in
    _mul_mod would overflow int64), order < 0, a negative exponent, k < 1.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if m > 1 << 62:
        raise ValueError(f"modulus {m} overflows int64: the kernel needs m <= 2^62")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if min((*num_powers.values(), *den_powers.values()), default=0) < 0:
        raise ValueError("eta exponents must be >= 0")

    def product(powers: dict[int, int]) -> np.ndarray:
        factors = []
        for k, e in powers.items():
            factors += [_scatter("pent3_alt", order, k) % m] * e
        if not factors:
            return np.eye(1, order + 1, dtype=np.int64)[0]
        return reduce(lambda x, y: _mul_mod(x, y, m), factors)

    c = product(num_powers)
    return _mul_mod(c, _inv_mod(product(den_powers), m), m) if den_powers else c

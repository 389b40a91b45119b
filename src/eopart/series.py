"""Truncated formal power series with exact integer coefficients.

A Series holds the coefficients of q^0 .. q^order exactly; nothing beyond
the truncation order is ever reported.  Every binary operation truncates
to the shorter operand.  Coefficients are Python ints, so there is no
overflow to guard against.

The product of two series walks the nonzero coefficients of the sparser
operand, which keeps eta/theta products cheap (those factors are lacunary:
O(sqrt(N)) nonzero terms).  Division by a unit-constant series costs
O(N * nnz(divisor)) by the standard coefficient recurrence.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal

import numpy as np

ThetaKind = Literal["square", "square_alt", "pent3", "pent3_alt", "octic", "octic_alt"]

THETA_KINDS: tuple[ThetaKind, ...] = (
    "square",
    "square_alt",
    "pent3",
    "pent3_alt",
    "octic",
    "octic_alt",
)


class Series:
    """Dense truncated power series; immutable after construction."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[int], order: int | None = None):
        c = list(coeffs)
        if order is None:
            order = len(c) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(c) != order + 1:
            raise ValueError(f"got {len(c)} coefficients for order {order}")
        self.coeffs = c
        self.order = order

    def c(self, n: int) -> int:
        """Coefficient of q^n; n must not exceed the truncation order."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(self.coeffs[: order + 1], order)

    def nonzeros(self) -> list[tuple[int, int]]:
        return [(i, v) for i, v in enumerate(self.coeffs) if v]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def __mul__(self, other: "Series") -> "Series":
        return mul(self, other)

    def __pow__(self, e: int) -> "Series":
        return power(self, e)

    def __repr__(self):
        head = self.coeffs[:8]
        tail = " ..." if self.order >= 8 else ""
        return f"Series({head}{tail}, order={self.order})"


def one(order: int) -> Series:
    c = [0] * (order + 1)
    c[0] = 1
    return Series(c, order)


def eta_factor(k: int, order: int) -> Series:
    """Truncated product prod_{n>=1} (1 - q^{kn}), exact at any order.

    Built from Euler's pentagonal expansion (pentagonal_terms), which has
    O(sqrt(order / k)) nonzero terms.  The triple-product suite checks that
    expansion against the honest product, eta_product, at small order.
    """
    exps, signs = pentagonal_terms(k, order)
    c = [0] * (order + 1)
    for e, s in zip(exps.tolist(), signs.tolist()):
        c[e] = s
    return Series(c, order)


def eta_product(k: int, order: int) -> Series:
    """The same product by honest successive multiplication of the factors.

    This is the small-order oracle for eta_factor: it makes no appeal to
    the pentagonal number theorem.  numpy int64 is used for the in-place
    updates with a magnitude guard; the intermediate coefficients outgrow
    the guard for k = 1 from order 5689 on, and the guard then raises
    ValueError instead of wrapping silently.
    """
    if k < 1:
        raise ValueError("eta factor needs k >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    c = np.zeros(order + 1, dtype=np.int64)
    c[0] = 1
    guard = np.int64(1) << 40
    for j in range(k, order + 1, k):
        # (1 - q^j) * c, in place: descending order not needed with numpy
        # since the slice is taken before assignment.
        c[j:] -= c[: order + 1 - j].copy()
        if np.abs(c).max() >= guard:
            raise ValueError(
                f"eta_product({k}, {order}) outgrows its int64 guard; "
                "use eta_factor at this order"
            )
    return Series(c.tolist(), order)


def _theta_terms(kind: ThetaKind, order: int):
    """Yield (exponent, sign) for all integer n with exponent <= order."""
    alt = kind.endswith("_alt")
    base = kind.removesuffix("_alt")
    if base == "square":
        expo = lambda n: n * n
    elif base == "pent3":
        expo = lambda n: (3 * n * n - n) // 2
    elif base == "octic":
        expo = lambda n: 3 * n * n - n
    else:
        raise ValueError(f"unknown theta kind {kind!r}")
    yield 0, 1
    n = 1
    while True:
        sign = -1 if (alt and n % 2) else 1
        e_pos, e_neg = expo(n), expo(-n)
        if e_pos > order and e_neg > order:
            break
        if e_pos <= order:
            yield e_pos, sign
        if e_neg <= order:
            yield e_neg, sign
        n += 1


def theta(kind: ThetaKind, order: int) -> Series:
    """Lacunary theta series sum_{n in Z} (+-1)^n q^{e(n)} truncated at order.

    kinds: square -> e(n)=n^2; pent3 -> e(n)=(3n^2-n)/2; octic -> e(n)=3n^2-n;
    the *_alt variants carry the sign (-1)^n.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    c = [0] * (order + 1)
    for e, s in _theta_terms(kind, order):
        c[e] += s
    return Series(c, order)


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at min(order(a), order(b))."""
    order = min(a.order, b.order)
    # Walk the sparser operand's nonzero terms over the dense one.
    na = sum(1 for v in a.coeffs[: order + 1] if v)
    nb = sum(1 for v in b.coeffs[: order + 1] if v)
    if nb < na:
        a, b = b, a
    res = [0] * (order + 1)
    bc = b.coeffs
    for i, v in enumerate(a.coeffs[: order + 1]):
        if not v:
            continue
        for j in range(order - i + 1):
            bj = bc[j]
            if bj:
                res[i + j] += v * bj
    return Series(res, order)


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
    return Series(s, order)


def invert(a: Series) -> Series:
    """Multiplicative inverse through the truncation order."""
    return divide(one(a.order), a)


def substitute(a: Series, m: int) -> Series:
    """Map sum c_n q^n to sum c_n q^{mn}, truncated at a's order."""
    if m < 1:
        raise ValueError("substitute needs m >= 1")
    res = [0] * (a.order + 1)
    for n in range(a.order // m + 1):
        res[m * n] = a.coeffs[n]
    return Series(res, a.order)


def extract_progression(a: Series, r: int, m: int) -> list[int]:
    """Coefficients [c_r, c_{r+m}, c_{r+2m}, ...] up to the truncation order."""
    if not 0 <= r < m:
        raise ValueError("need 0 <= r < m")
    return a.coeffs[r :: m]


def mod_reduce(a: Series, m: int) -> Series:
    """Every coefficient replaced by its least nonnegative residue mod m."""
    if m < 2:
        raise ValueError("mod_reduce needs m >= 2")
    return Series([v % m for v in a.coeffs], a.order)


# ---------------------------------------------------------------------------
# Reduced (mod m) fast path.
#
# At congruence-only scale (order ~10^6) the exact dense pipeline is too
# slow, so eta factors are represented by their lacunary expansion
# J_k = sum_m (-1)^m q^{k m(3m-1)/2} (Euler's pentagonal number theorem)
# and all coefficients live reduced mod m.  The test suite checks this path
# against the exact one on overlapping ranges, and checks the pentagonal
# expansion itself against the honest product.
# ---------------------------------------------------------------------------


def pentagonal_terms(k: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, signs) of J_k through the given order, exponents ascending."""
    if k < 1:
        raise ValueError("eta factor needs k >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    exps = []
    signs = []
    m = 0
    while True:
        lo = k * m * (3 * m - 1) // 2
        hi = k * m * (3 * m + 1) // 2
        if lo > order and hi > order:
            break
        s = -1 if m % 2 else 1
        if lo <= order:
            exps.append(lo)
            signs.append(s)
        if m and hi <= order:
            exps.append(hi)
            signs.append(s)
        m += 1
    idx = np.argsort(exps)
    return np.asarray(exps, dtype=np.int64)[idx], np.asarray(signs, dtype=np.int64)[idx]


def _divide_sparse_mod(c: np.ndarray, exps: np.ndarray, signs: np.ndarray, m: int) -> None:
    # In-place c <- c / (1 + sum signs q^exps) with coefficients mod m;
    # exps ascending, exps[0] == 0, signs[0] == 1.
    n_terms = len(exps)
    for n in range(len(c)):
        acc = c[n]
        for t in range(1, n_terms):
            k = exps[t]
            if k > n:
                break
            acc -= signs[t] * c[n - k]
        c[n] = acc % m
    return None


try:  # compiled kernel for the order-10^6 density sweep
    from numba import njit

    _divide_sparse_mod_jit = njit(cache=True)(_divide_sparse_mod)
except ImportError:  # pragma: no cover
    _divide_sparse_mod_jit = None


def eta_quotient_mod(
    num_powers: dict[int, int], den_powers: dict[int, int], order: int, m: int
) -> np.ndarray:
    """Coefficients mod m of prod J_k^{e_k} / prod J_k^{f_k} through order.

    Returns an int64 array of least nonnegative residues.  The numerator is
    assembled by sparse convolutions of pentagonal expansions; each
    denominator factor is removed by the sparse division recurrence.  Both
    sum up to len(exps) residues of one factor before reducing, so a
    modulus with m * len(exps) >= 2^63 for some factor is refused.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    terms = {k: pentagonal_terms(k, order) for k in (*num_powers, *den_powers)}
    if any(m * len(exps) >= 1 << 63 for exps, _ in terms.values()):
        raise ValueError(f"modulus {m} overflows int64 sums at order {order}")
    c = np.zeros(order + 1, dtype=np.int64)
    c[0] = 1
    for k, e in num_powers.items():
        exps, signs = terms[k]
        for _ in range(e):
            acc = np.zeros(order + 1, dtype=np.int64)
            nz = np.flatnonzero(c)
            if len(nz) * len(exps) <= 4 * (order + 1):
                # sparse * sparse: scatter the pairwise products
                vals = c[nz]
                for x, s in zip(exps.tolist(), signs.tolist()):
                    sel = nz <= order - x
                    np.add.at(acc, nz[sel] + x, s * vals[sel])
            else:
                for x, s in zip(exps.tolist(), signs.tolist()):
                    acc[x:] += s * c[: order + 1 - x]
            c = acc % m
    for k, e in den_powers.items():
        exps, signs = terms[k]
        kernel = _divide_sparse_mod_jit or _divide_sparse_mod
        for _ in range(e):
            kernel(c, exps, signs, m)
    return c

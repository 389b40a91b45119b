"""Ternary form representation numbers, the coefficient families A(n),
a(n) = A(12n + 2), b(n), and imaginary-quadratic class numbers by
reduced-form count.

The lattice counts (one ternary kernel for r113/r133, and A_direct) are the
pointwise oracles; theta products give the same families at scale
(ternary_series, f_series and A_series), and the verify module cross-checks both.
The lattice counts and reduced_forms walk numpy grids of cells in tiles of
at most _CELLS cells, so working memory is bounded at any argument.  Grid
bounds come from math.isqrt.  A lattice cell takes the float64 square root
of t as its candidate root x and counts only when x * x == t holds exactly
in int64; that candidate is exact only for t < 2**52, so n >= 2**52 (and
D <= -2**52) is refused.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize, is_squarefree
from .series import Series, theta_product


_LIMIT = 2**52  # every t below it is a float64 whose sqrt is exact on squares
_CELLS = 1 << 14  # cells per grid tile


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= _LIMIT:
        raise ValueError("n must be < 2**52")


def _tiles(rows: range, cols: range):
    """The rows x cols grid as (row, col) int64 arrays of at most _CELLS cells,
    in row-major order: a row longer than _CELLS is split into tiles one row tall."""
    width = max(1, min(len(cols), _CELLS))
    height = max(1, _CELLS // width)
    for i in range(0, len(rows), height):
        r = rows[i : i + height]
        row = np.arange(r.start, r.stop, r.step, dtype=np.int64)
        for j in range(0, len(cols), width):
            c = cols[j : j + width]
            yield row, np.arange(c.start, c.stop, c.step, dtype=np.int64)


def _square_cells(n: int, c: int, b: int, us: range):
    """Cells (z, u), z <= isqrt(n // c) and u in us, where t = n - c z^2 - b u^2
    is a square x^2, as (z, u, x) arrays per tile."""
    for z, u in _tiles(range(math.isqrt(n // c) + 1), us):
        t = (n - c * z * z)[:, None] - b * u * u
        x = np.sqrt(np.abs(t)).astype(np.int64)  # t < 0 never equals x * x
        i, j = np.nonzero(x * x == t)
        yield z[i], u[j], x[i, j]


def _ternary(n: int, b: int) -> int:
    """Number of integer triples with x^2 + b y^2 + 3 z^2 = n."""
    _check_n(n)
    total = 0
    for z, y, x in _square_cells(n, 3, b, range(math.isqrt(n // b) + 1)):
        # a nonzero coordinate counts for both of its signs
        total += int(((1 + (z > 0)) * (1 + (y > 0)) * (1 + (x > 0))).sum())
    return total


def r113(n: int) -> int:
    """Number of integer triples with x^2 + y^2 + 3 z^2 = n."""
    return _ternary(n, 1)


def r133(n: int) -> int:
    """Number of integer triples with x^2 + 3 y^2 + 3 z^2 = n."""
    return _ternary(n, 3)


def ternary_series(b: int, order: int) -> Series:
    """sum r(n) q^n for x^2 + b y^2 + 3 z^2: theta(q) theta(q^b) theta(q^3)."""
    return theta_product(order, ("square", 1), ("square", b), ("square", 3))


def r3_series(order: int) -> Series:
    """sum r_3(m) q^m for x^2 + y^2 + z^2: theta(q)^3.

    Gauss's three-square theorem gives r_3(m) = 12 class_number(m) for
    squarefree m > 3 with m = 1, 2 mod 4, so one table gives every class
    number the verify suites read.
    """
    return theta_product(order, ("square", 1), ("square", 1), ("square", 1))


def A_direct(n: int) -> int:
    """Count of (x, y, z) with (6x+1)^2 + (6y+1)^2 + 12 z^2 = n.

    Direct lattice route to A(n); the r113/4 route must agree.
    """
    _check_n(n)
    r = math.isqrt(n)
    total = 0
    # u = 6y + 1 runs over u = 1 mod 6 in [-r, r]
    for z, _, w in _square_cells(n, 12, 1, range(-r + (1 + r) % 6, r + 1, 6)):
        # w >= 0: one of w, -w is 1 mod 6 exactly when gcd(w, 6) = 1
        total += int(((1 + (z > 0)) * (np.gcd(w, 6) == 1)).sum())
    return total


def f_series(order: int) -> Series:
    """sum a(n) q^n as the theta product (sum q^{n^2})(sum q^{3n^2-n})^2."""
    return theta_product(order, ("square", 1), ("pent3", 2), ("pent3", 2))


def A_series(order: int) -> Series:
    """sum A(n) q^n: A(12k + 2) = a(k) from f_series, and A(n) = 0 off n = 2 mod 12."""
    f = f_series(order // 12 + 1)
    return Series([f.c((n - 2) // 12) if n % 12 == 2 else 0 for n in range(order + 1)])


def b_series(order: int) -> Series:
    """sum b(n) q^n = J_1^2 J_2, each J_k = theta("pent3_alt", order, k)."""
    return theta_product(order, ("pent3_alt", 1), ("pent3_alt", 1), ("pent3_alt", 2))


def b_series_theta(order: int) -> Series:
    """Same series through the alternating theta product (cross-check)."""
    return theta_product(order, ("square_alt", 1), ("pent3_alt", 2), ("pent3_alt", 2))


# --- binary quadratic forms -------------------------------------------------


@dataclass(frozen=True)
class ReducedForm:
    """Reduced primitive positive form a x^2 + b xy + c y^2, discriminant < 0."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.discriminant >= 0:
            raise ValueError("form must be positive definite")
        if not (
            0 < self.a
            and abs(self.b) <= self.a <= self.c
            and (self.b >= 0 or (abs(self.b) < self.a and self.a < self.c))
            and math.gcd(self.a, math.gcd(self.b, self.c)) == 1
        ):
            raise ValueError(f"({self.a},{self.b},{self.c}) is not reduced primitive")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _form_cells(D: int):
    """Reduced primitive forms of discriminant D < 0, as (a, b, c) arrays per tile."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")
    if D <= -_LIMIT:
        raise ValueError("D must be > -2**52")
    # 3a^2 <= -D; b^2 = D mod 4 needs b = D mod 2, and -a < b <= a
    a_max = math.isqrt(-D // 3)
    bs = range(-a_max + 1 + (a_max + 1 + D) % 2, a_max + 1, 2)
    for a, b in _tiles(range(1, a_max + 1), bs):
        num = b * b - D
        col = a[:, None]
        i, j = np.nonzero((num % (4 * col) == 0) & (-col < b) & (b <= col))
        a, b, num = a[i], b[j], num[j]
        c = num // (4 * a)
        keep = (c >= a) & ((b >= 0) | (a != c)) & (np.gcd(np.gcd(a, b), c) == 1)
        yield a[keep], b[keep], c[keep]


def reduced_forms(D: int) -> list[ReducedForm]:
    """All reduced primitive forms of discriminant D < 0, in (a, b) order."""
    tiles = (zip(a.tolist(), b.tolist(), c.tolist()) for a, b, c in _form_cells(D))
    return [ReducedForm(*abc) for tile in tiles for abc in tile]


def class_number(m: int) -> int:
    """h(-m): class number of the field of discriminant -m or -4m.

    m must be squarefree; the discriminant is -m when m = 3 mod 4 and -4m
    otherwise (field convention, which matches form classes because the
    discriminant is then fundamental).
    """
    if m < 1:
        raise ValueError("class_number needs m >= 1")
    if not is_squarefree(m):
        raise ValueError(f"{m} is not squarefree; field convention undefined")
    D = -m if m % 4 == 3 else -4 * m
    return sum(len(a) for a, _, _ in _form_cells(D))


# --- mod-4 classification ---------------------------------------------------


class Mod4Class(enum.Enum):
    ODD = "odd"
    TWO_MOD_FOUR = "two_mod_four"
    ZERO_MOD_FOUR = "zero_mod_four"


@dataclass(frozen=True)
class Mod4Certificate:
    """Residue class of A(n) mod 4 with its witnessing decomposition.

    odd: n = 2 m^2, witness m.  two_mod_four: n = 2 p^{4a+1} m^2 with
    p = 5,7 mod 8 and gcd(m, 6p) = 1, witness (p, a, m).  zero_mod_four:
    no witness.
    """

    n: int
    cls: Mod4Class
    witness: tuple[int, ...] | None

    def check(self) -> bool:
        """Does the witness reconstruct n with its side conditions?"""
        if self.cls is Mod4Class.ODD:
            (m,) = self.witness
            return self.n == 2 * m * m and math.gcd(m, 6) == 1
        if self.cls is Mod4Class.TWO_MOD_FOUR:
            p, alpha, m = self.witness
            return (
                self.n == 2 * p ** (4 * alpha + 1) * m * m
                and p % 8 in (5, 7)
                and math.gcd(m, 6 * p) == 1
            )
        return self.witness is None


def _certificate(n: int, n_odd: int, p: int, e: int) -> Mod4Certificate:
    """The classification rule, from the primes of n/2 with odd exponent:
    none -> odd; exactly one, p^e with e = 1 mod 4 and p = 5, 7 mod 8 ->
    2 mod 4; otherwise 0 mod 4.  (p, e) is read only when n_odd is 1; the
    witness m is the square root of what is left of n/2."""
    if n_odd == 0:
        return Mod4Certificate(n, Mod4Class.ODD, (math.isqrt(n // 2),))
    if n_odd == 1 and e % 4 == 1 and p % 8 in (5, 7):
        m = math.isqrt(n // 2 // p**e)
        return Mod4Certificate(n, Mod4Class.TWO_MOD_FOUR, (p, (e - 1) // 4, m))
    return Mod4Certificate(n, Mod4Class.ZERO_MOD_FOUR, None)


def classify_mod4(n: int) -> Mod4Certificate:
    """Predict A(n) mod 4 from the factorization of n/2 (n = 2 mod 12)."""
    if n % 12 != 2 or n < 2:
        raise ValueError(f"classify_mod4 needs n = 2 mod 12, got {n}")
    odd = [(p, e) for p, e in factorize(n // 2).factors if e % 2]
    return _certificate(n, len(odd), *(odd[0] if len(odd) == 1 else (0, 0)))

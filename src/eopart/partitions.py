"""Partitions with even parts below odd parts, and the restricted count
where only the largest even part has odd multiplicity.

Two independent routes to the restricted count: a walk that generates
only the restricted partitions (the oracle, guarded to small n) and the
eta-quotient generating function J_4^3 / J_2^2.  The even-below-odd
partitions of n come from one numpy pass as multiplicity rows
(`_eo_rows`), and the membership rule below is written twice: `_is_eobar`
on one tuple is the spec, `_eobar_mask` the same rule over rows.  The
verify suite checks the walk against the rows the mask keeps, so the two
sides of that check share no code.

Membership rule for the restricted count, fixed by the defining example at
n = 8 (five partitions: 8, 4+2+2, 3+3+2, 3+3+1+1, 1^8): when an even part
is present, the largest even part must occur an odd number of times and
every other part an even number of times; with no even part, every part
must occur an even number of times.  Note 4+4 is excluded (its largest
even part occurs twice), so the odd multiplicity is required, not merely
allowed.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .series import Series, divide, eta_factor, eta_quotient_mod, mul, power

# Both enumerations grow like exp(c*sqrt(n)).  The restricted walk is cheap
# (eobar(70) is only 1,976 leaves); the guard's cost lies in the rows of
# eo_count: n = 70 has 81,156 even-below-odd partitions (one pass of about
# 0.03 s and 21 MB at its peak) and n = 100 has 1,295,971.
ENUM_GUARD = 70


def partitions_desc(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_desc(n - first, first):
            yield (first,) + rest


def _is_eo(parts: tuple[int, ...]) -> bool:
    evens = [p for p in parts if p % 2 == 0]
    odds = [p for p in parts if p % 2 == 1]
    if not evens or not odds:
        return True
    return max(evens) < min(odds)


def _is_eobar(parts: tuple[int, ...]) -> bool:
    if not _is_eo(parts):
        return False
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    odd_mult = {p for p, c in counts.items() if c % 2 == 1}
    evens = [p for p in parts if p % 2 == 0]
    if evens:
        return odd_mult == {max(evens)}
    return not odd_mult


def _eobar_mask(rows: np.ndarray) -> np.ndarray:
    """_is_eobar of every even-below-odd multiplicity row (see _eo_rows).

    The parts of odd multiplicity must be exactly the largest even part,
    or none when no even part is present.
    """
    evens = rows[:, 1::2] > 0  # parts 2, 4, 6, ...
    # the largest even part: the one present part with no present even part above it
    want = np.zeros(rows.shape, dtype=bool)
    want[:, 1::2] = evens & (np.cumsum(evens[:, ::-1], axis=1, dtype=np.uint8)[:, ::-1] == 1)
    return ((rows % 2 == 1) == want).all(axis=1)


def _eo_rows(n: int) -> np.ndarray:
    """Even-below-odd partitions of n as uint8 multiplicity rows, one per
    partition: column p - 1 holds the multiplicity of part p.

    Rows expand from the largest part down, one np.repeat per part p, into
    one row per multiplicity of p.  After the first even part only even
    parts follow, so a row in that even phase takes no odd part, and it is
    dropped once its remainder can no longer be filled by even parts below
    p (odd, or nonzero with p = 2).  Ones fill the rest.  Unguarded: the
    caller checks n (uint8 multiplicities hold up to 255).
    """
    rows = np.zeros((1, n), dtype=np.uint8)
    rest = np.array([n])
    even = np.zeros(1, dtype=bool)
    for p in range(n, 1, -1):
        counts = np.where(even & (p % 2 == 1), 0, rest // p) + 1
        idx = np.repeat(np.arange(len(rows)), counts)
        k = np.arange(len(idx)) - (np.cumsum(counts) - counts)[idx]
        rest = rest[idx] - k * p
        even = even[idx] | ((p % 2 == 0) & (k > 0))
        keep = ~even | (rest % 2 == 0 if p > 2 else rest == 0)
        rows = rows[idx[keep]]  # copy only the kept rows
        rows[:, p - 1] = k[keep]
        rest, even = rest[keep], even[keep]
    if n:
        rows[:, 0] = rest
    return rows


def eo_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Even-below-odd partitions of n, as weakly decreasing tuples (guarded)."""
    _check_guard(n)
    parts = np.arange(n, 0, -1)
    return (tuple(np.repeat(parts, row[::-1]).tolist()) for row in _eo_rows(n))


def eobar_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted (EO-bar) partitions of n, as weakly decreasing tuples.

    One walk that reaches only these: parts go largest first, each with its
    multiplicity; after the first even part only even parts follow, and an
    odd remainder there is cut at once.  The first even part takes an odd
    multiplicity and every other part an even one.
    """

    def walk(rest: int, top: int, evens: bool) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
        elif not (evens and rest % 2):
            # in the even phase rest and top are both even, so p steps by 2
            for p in range(min(rest, top), 0, -2 if evens else -1):
                even = evens or p % 2 == 0
                for k in range(2 if evens or not even else 1, rest // p + 1, 2):
                    for tail in walk(rest - k * p, p - 2 if even else p - 1, even):
                        yield (p,) * k + tail

    return walk(n, n, False)


def _check_guard(n: int):
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUM_GUARD:
        raise ValueError(
            f"enumeration guarded at n <= {ENUM_GUARD}; "
            "use the generating-function path (eobar_series) instead"
        )


def eo_count(n: int) -> int:
    """Number of partitions of n with every even part below every odd part."""
    _check_guard(n)
    return len(_eo_rows(n))


def eobar_count_enum(n: int) -> int:
    """Restricted count by full enumeration (the oracle path)."""
    _check_guard(n)
    return sum(1 for _ in eobar_partitions(n))


def eobar_series(order: int) -> Series:
    """Generating function J_4^3 / J_2^2 with exact coefficients.

    J_4^3 / J_2^2 is (J_2^3 / J_1^2)(q^2), so the quotient J_2^3 / J_1^2 is
    built to order // 2 and spread over the even exponents; the odd
    coefficients are 0.  The two inverse factors are divided out one at a
    time so the recurrence only walks the lacunary J_1, never a dense
    square.
    """
    half = order // 2  # negative for every order < 0, which eta_factor refuses
    j1 = eta_factor(1, half)
    j2 = eta_factor(2, half)
    quotient = divide(divide(mul(power(j2, 2), j2), j1), j1)
    coeffs = [0] * (order + 1)
    coeffs[::2] = quotient.coeffs
    return Series(coeffs)


def eobar_series_mod(order: int, m: int) -> np.ndarray:
    """Coefficients of J_4^3 / J_2^2 reduced mod m, as an int64 array.

    The congruence-scale path: pentagonal expansions and reduced
    arithmetic keep order ~10^6 feasible.  Agrees with eobar_series on
    overlapping ranges (tested, not assumed).

    For m dividing 4 no inverse is needed: J_2^2 = J_4 (mod 2) gives
    J_2^4 = J_4^2 (mod 4), so J_4^3 / J_2^2 = J_2^2 J_4 = b(q^2) (mod 4) with
    b = J_1^2 J_2: two FFT products at half the order fill the even positions,
    where other moduli take the Newton inversion of J_2^2 at full order.
    """
    if m in (2, 4):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        out = np.zeros(order + 1, dtype=np.int64)
        out[::2] = eta_quotient_mod({1: 2, 2: 1}, {}, order // 2, 4) % m
        return out
    return eta_quotient_mod({4: 3}, {2: 2}, order, m)

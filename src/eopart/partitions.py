"""Partitions with even parts below odd parts, and the restricted count
where only the largest even part has odd multiplicity.

Two independent routes to the restricted count: a walk that generates
only the restricted partitions (the oracle, guarded to small n) and the
eta-quotient generating function J_4^3 / J_2^2.  The membership rule below
(`_is_eobar`) stays the written spec: the verify suite checks the walk
against the even-below-odd partitions filtered by it.

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

# Both walks still grow like exp(c*sqrt(n)).  The restricted one is cheap
# (eobar(70) is only 1,976 leaves); the guard's cost lies in eo_count's
# walk: n = 70 has 81,156 even-below-odd partitions (under a second of
# work) and n = 100 has 1,295,971.
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


def _walk(n: int, restricted: bool) -> Iterator[tuple[int, ...]]:
    # Parts go largest first, each with its multiplicity; after the first even
    # part only even parts follow, and an odd remainder there is cut at once.
    # Restricted: the first even part takes an odd multiplicity and every
    # other part an even one, so only EO-bar partitions are reached.
    step = 2 if restricted else 1

    def walk(rest: int, top: int, evens: bool) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
        elif not (evens and rest % 2):
            # in the even phase rest and top are both even, so p steps by 2
            for p in range(min(rest, top), 0, -2 if evens else -1):
                even = evens or p % 2 == 0
                first = 2 if restricted and (evens or not even) else 1
                for k in range(first, rest // p + 1, step):
                    for tail in walk(rest - k * p, p - 2 if even else p - 1, even):
                        yield (p,) * k + tail

    return walk(n, n, False)


def eo_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Even-below-odd partitions of n, as weakly decreasing tuples."""
    return _walk(n, False)


def eobar_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted (EO-bar) partitions of n, as weakly decreasing tuples.

    The even-below-odd walk with its multiplicities restricted: even ones for
    odd parts, odd ones for the largest even part, even ones for the rest.
    """
    return _walk(n, True)


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
    return sum(1 for _ in eo_partitions(n))


def eobar_count_enum(n: int) -> int:
    """Restricted count by full enumeration (the oracle path)."""
    _check_guard(n)
    return sum(1 for _ in eobar_partitions(n))


def eobar_series(order: int) -> Series:
    """Generating function J_4^3 / J_2^2 with exact coefficients.

    The two inverse factors are divided out one at a time so the recurrence
    only walks the lacunary J_2, never a dense square.
    """
    j2 = eta_factor(2, order)
    j4 = eta_factor(4, order)
    num = mul(power(j4, 2), j4)
    return divide(divide(num, j2), j2)


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

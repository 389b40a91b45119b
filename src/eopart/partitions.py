"""Partitions with even parts below odd parts, and the restricted count
where only the largest even part has odd multiplicity.

Two independent routes to the restricted count: brute-force enumeration of
all partitions (the oracle, guarded to small n) and the eta-quotient
generating function J_4^3 / J_2^2.

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
from functools import lru_cache

import numpy as np

from .series import Series, divide, eta_factor, eta_quotient_mod, mul, power

# Exhaustive enumeration walks every partition of every n' <= n; the total
# count grows like exp(c*sqrt(n)), so n = 70 (~1.2e7 partitions) is already a
# few seconds of work and n = 100 would be hundreds of millions.
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


@lru_cache(maxsize=None)
def _filtered_counts(n: int) -> tuple[int, int]:
    # One pass over all partitions of n (iterative ascending generation,
    # Kelleher's accelAsc), scanning each in place.  Returns the pair
    # (even-below-odd count, restricted count).
    if n == 0:
        return 1, 1
    eo = eobar = 0
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        # parts are a[0..k], ascending
        max_even = 0
        min_odd = 0
        ok = True
        for i in range(k + 1):
            p = a[i]
            if p % 2:
                if not min_odd:
                    min_odd = p
            else:
                max_even = p
                if min_odd:
                    ok = False
                    break
        if not ok:
            continue
        eo += 1
        # multiplicity scan: equal parts are adjacent
        bad = False
        odd_mult = -1  # value of the unique odd-multiplicity part, if any
        i = 0
        while i <= k:
            j = i
            while j <= k and a[j] == a[i]:
                j += 1
            if (j - i) % 2:
                if odd_mult >= 0:
                    bad = True
                    break
                odd_mult = a[i]
            i = j
        if bad:
            continue
        if max_even:
            if odd_mult == max_even:
                eobar += 1
        elif odd_mult < 0:
            eobar += 1
    return eo, eobar


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
    return _filtered_counts(n)[0]


def eobar_count_enum(n: int) -> int:
    """Restricted count by full enumeration (the oracle path)."""
    _check_guard(n)
    return _filtered_counts(n)[1]


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
    J_2^4 = J_4^2 (mod 4), so J_4^3 / J_2^2 = J_2^2 J_4 (mod 4), two FFT
    products instead of the Newton inversion of J_2^2 other moduli take.
    """
    if m in (2, 4):
        return eta_quotient_mod({2: 2, 4: 1}, {}, order, 4) % m
    return eta_quotient_mod({4: 3}, {2: 2}, order, m)

"""Elementary number theory: primality, factorization, Legendre symbols,
square and squarefree detection.

Everything here is exact integer arithmetic.  Primality is deterministic
Miller-Rabin (the standard 64-bit witness set, which is in fact exact for
all inputs below 3.3 * 10^24); factorization is trial division with a
Pollard rho fallback so that scans over ~10^7 stay fast and larger strays
do not hang.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class Factorization:
    """Exact prime factorization: n == prod(p**e), factors sorted by p."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m = 1
        prev = 0
        for p, e in self.factors:
            if e < 1 or p <= prev or not is_prime(p):
                raise ValueError(f"bad factorization of {self.n}")
            prev = p
            m *= p**e
        if m != self.n:
            raise ValueError(f"factors do not multiply back to {self.n}")

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def is_prime(n: int) -> bool:
    """Deterministic primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n must be odd composite, not a prime power check
    # is done by the caller loop.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1 (n=1 gives an empty list)."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    orig = n
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 53
    while d * d <= n and d < 10**6:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    # Whatever survives trial division is prime or a product of two large
    # primes; split recursively with rho.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(orig, tuple(sorted(factors.items())))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def is_square(n: int) -> tuple[bool, int]:
    """Exact square test; returns (True, root) or (False, 0)."""
    if n < 0:
        raise ValueError("is_square requires n >= 0")
    r = math.isqrt(n)
    return (True, r) if r * r == n else (False, 0)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n).factors)

"""Elementary number theory: primality, factorization, the odd-exponent
sieve over an arithmetic progression, Legendre symbols and the
squarefree test.

Everything here is exact integer arithmetic.  Primality is deterministic
Miller-Rabin to the 13 prime bases 2..41, exact below psi_13 (about
3.3 * 10^24); is_prime refuses a larger n that passes all 13.
Factorization is trial division by primes below 10^4, then Pollard rho
on what survives, for one number at a time.  A scan over a progression
a i + b reads odd_exponent_sieve instead: numpy strided slices divide out
every prime up to min(sqrt(top), 2^16) at once.  All three read one
table of the primes up to 2^16, built at import.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

# Miller-Rabin to the first 13 primes is exact below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, 2015); the first
# 12 stop at psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13

# Terms per block of odd_exponent_sieve: its working memory is a few arrays
# of this length plus the sieving primes, however long the progression.
_SIEVE_BLOCK = 1 << 16
# Largest sieving bound; a cofactor at or past (bound + 1)^2 goes to factorize.
_SIEVE_PRIME_CAP = 1 << 16


def _primes_upto(limit: int) -> list[int]:
    mark = np.ones(limit + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return np.flatnonzero(mark).tolist()


# The one prime table: every prime up to the sieve's cap, in order.
_PRIMES = _primes_upto(_SIEVE_PRIME_CAP)


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


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Exact below psi_13 (about 3.3 * 10^24); from there on a composite n is
    still exposed by a small factor or a failing base, and an n that
    passes all 13 bases is refused with ValueError.
    """
    if n < 2:
        return False
    for p in _PRIMES[:15]:  # 2..47
        if n % p == 0:
            return n == p
    if n < 53 * 53:  # every composite below 53^2 has a prime factor <= 47
        return True
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
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is exact only below psi_13 = {_MR_BOUND}; {n} passes all 13 bases")
    return True


def _pollard_rho(n: int) -> int:
    # Floyd's cycle finding: x takes one step, y two, with a gcd every step.
    # factorize calls this only on a composite; a prime power splits too.
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
    """Complete prime factorization of n >= 1 (n=1 gives an empty list);
    a prime factor at or past psi_13 is refused through is_prime."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    orig = n
    factors: dict[int, int] = {}
    for p in _PRIMES:
        if p * p > n or p > 10**4:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # Whatever survives is 1, a prime, or free of primes below 10^4; split it
    # recursively with rho, which finds such a factor in about sqrt(p) steps.
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


def odd_exponent_sieve(a: int, b: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The primes dividing each term v_i = a i + b (i < count) to an odd power.

    Returns (n_odd, prime, exponent), one entry per term: n_odd[i] counts
    the primes with odd exponent in v_i; when it is 1, v_i = prime[i] **
    exponent[i] * m^2 with prime[i] not dividing m.  prime and exponent
    read 0 wherever n_odd is not 1.

    Blocks of _SIEVE_BLOCK terms are sieved by the primes p <= L =
    min(isqrt(top), 2^16) that do not divide a (gcd(a, b) = 1, so those
    divide no term), each through the strided slice of terms it divides.
    The cofactor r left in a term has only prime factors > L, so r > 1 is
    prime when r < (L+1)^2; a larger one is split by factorize, so sparse
    progressions of huge terms cost what the pointwise route costs.

    Refuses a < 1, b < 1, count < 0, gcd(a, b) != 1, and a step or a term
    at or above 2^62.
    """
    if a < 1 or b < 1 or count < 0:
        raise ValueError(f"odd_exponent_sieve needs a, b >= 1 and count >= 0, got {a}, {b}, {count}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a},{b}) != 1")
    top = a * (count - 1) + b if count else b
    if max(a, top) >= 1 << 62:
        raise ValueError(f"step {a} and terms up to {top} must stay below 2^62")
    bound = min(math.isqrt(top), _SIEVE_PRIME_CAP)
    primes = [p for p in _PRIMES[: bisect.bisect_right(_PRIMES, bound)] if a % p]
    first = [-b * pow(a, -1, p) % p for p in primes]  # least i with p | a i + b
    n_odd = np.zeros(count, dtype=np.int8)
    prime = np.zeros(count, dtype=np.int64)
    expo = np.zeros(count, dtype=np.int8)
    for i0 in range(0, count, _SIEVE_BLOCK):
        size = min(_SIEVE_BLOCK, count - i0)
        rest = a * np.arange(i0, i0 + size, dtype=np.int64) + b
        cnt, pr, ex = n_odd[i0 : i0 + size], prime[i0 : i0 + size], expo[i0 : i0 + size]
        for p, j in zip(primes, first):
            s = (j - i0) % p
            if s >= size:
                continue
            sub = rest[s::p]  # a view: the divisions below write through to rest
            sub //= p
            e = np.ones(len(sub), dtype=np.int8)
            idx = np.flatnonzero(sub % p == 0)
            while len(idx):
                sub[idx] //= p
                e[idx] += 1
                idx = idx[sub[idx] % p == 0]
            k = np.flatnonzero(e & 1)
            at = s + p * k
            cnt[at] += 1
            pr[at] = p
            ex[at] = e[k]
        big = rest >= (bound + 1) ** 2
        at = np.flatnonzero((rest > 1) & ~big)
        cnt[at] += 1
        pr[at] = rest[at]
        ex[at] = 1
        for i in np.flatnonzero(big).tolist():
            for q, f in factorize(int(rest[i])).factors:
                if f % 2:
                    cnt[i] += 1
                    pr[i] = q
                    ex[i] = f
    many = n_odd != 1
    prime[many] = 0
    expo[many] = 0
    return n_odd, prime, expo


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n).factors)

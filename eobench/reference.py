"""Reference computations for the eopart benchmark, made apart from eopart.

Nothing here imports eopart.  Each quantity is reached by a route the
library does not take:

- EO-bar(n) mod 4 class: the classification theorem read off a numpy
  smallest-prime-factor sieve on 3n+1 (the library multiplies and divides
  eta series);
- EO-bar(n) mod 8: J_4^3/J_2^2 = H(q^2) with H = J_2^3/J_1^2, where J_2^3
  comes from Jacobi's identity sum (-1)^k (2k+1) q^{k(k+1)};
- EO-bar(n) exactly on a prefix: the sigma recurrence from the logarithmic
  derivative of J_4^3/J_2^2;
- r113, r133, a(n), b(n): numpy theta products;
- class numbers: Dirichlet's class number formula with a vectorised
  Kronecker symbol (the library counts reduced forms);
- gamma counts and mod-4 certificates: the same sieve.
"""

from __future__ import annotations

import math

import numpy as np

# EO-bar(n) mod 4 classes, as codes in the arrays below.
ZERO_MOD4, ODD, TWO_MOD4 = 0, 1, 2


# --- sieve and factor structure --------------------------------------------


def spf_sieve(limit: int) -> np.ndarray:
    """Smallest prime factor of every k <= limit (spf[0] = 0, spf[1] = 1)."""
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] != p:
            continue
        block = spf[p * p :: p]
        unmarked = block == np.arange(p * p, limit + 1, p)
        block[unmarked] = p
    return spf


def primes_upto(limit: int) -> np.ndarray:
    k = np.arange(limit + 1)
    return k[(spf_sieve(limit) == k) & (k >= 2)]


def odd_exponent_primes(values: np.ndarray, spf: np.ndarray):
    """For each v >= 1: how many primes divide v to an odd power, and the
    largest such prime with its exponent (0, 0 when there is none)."""
    v = np.asarray(values, dtype=np.int64).copy()
    count = np.zeros(len(v), dtype=np.int64)
    prime = np.zeros(len(v), dtype=np.int64)
    expo = np.zeros(len(v), dtype=np.int64)
    while True:
        idx = np.flatnonzero(v > 1)
        if not len(idx):
            break
        w = v[idx]
        p = spf[w]
        e = np.zeros(len(idx), dtype=np.int64)
        while True:
            div = w % p == 0
            if not div.any():
                break
            w[div] //= p[div]
            e[div] += 1
        v[idx] = w
        odd = e % 2 == 1
        count[idx[odd]] += 1
        prime[idx[odd]] = p[odd]
        expo[idx[odd]] = e[odd]
    return count, prime, expo


def _class_from_structure(count, prime, expo) -> np.ndarray:
    cls = np.full(len(count), ZERO_MOD4, dtype=np.int64)
    cls[count == 0] = ODD
    two = (count == 1) & (expo % 4 == 1) & np.isin(prime % 8, (5, 7))
    cls[two] = TWO_MOD4
    return cls


def eobar_mod4_class(order: int) -> np.ndarray:
    """Class of EO-bar(n) mod 4 for n <= order, from the classification
    theorem: EO-bar(n) = A(6n+2) mod 4 for even n, and 6n+2 = 2(3n+1)."""
    cls = np.full(order + 1, ZERO_MOD4, dtype=np.int64)
    even = np.arange(0, order + 1, 2)
    spf = spf_sieve(3 * order + 1)
    cls[even] = _class_from_structure(*odd_exponent_primes(3 * even + 1, spf))
    return cls


def odd_count_closed_form(N: int) -> int:
    """#{n <= N : EO-bar(n) odd} = #{m <= sqrt(3N+1) : gcd(m, 6) = 1}."""
    r = math.isqrt(3 * N + 1)
    return r - r // 2 - r // 3 + r // 6


def mod4_certificate(n: int, spf: np.ndarray):
    """(class code, witness) for A(n) mod 4, n = 2 mod 12, as classify_mod4
    states them: odd -> (m,), two -> (p, a, m), zero -> None."""
    half = n // 2
    count, prime, expo = (int(x[0]) for x in odd_exponent_primes(np.array([half]), spf))
    cls = int(_class_from_structure(np.array([count]), np.array([prime]), np.array([expo]))[0])
    if cls == ODD:
        return cls, (math.isqrt(half),)
    if cls == TWO_MOD4:
        return cls, (prime, (expo - 1) // 4, math.isqrt(half // prime**expo))
    return cls, None


def gamma_reference(A: int, B: int, N: int) -> tuple[int, float]:
    """Count n <= N with A n + B = m^2 p^{4a+1}, and the asymptotic reference."""
    values = A * np.arange(N + 1, dtype=np.int64) + B
    count, _, expo = odd_exponent_primes(values, spf_sieve(A * N + B))
    hits = int(np.count_nonzero((count == 1) & (expo % 4 == 1)))
    pred = math.pi**2 / 6
    a, p = A, 2
    while a > 1:
        if a % p == 0:
            pred *= 1 + 1 / p
            while a % p == 0:
                a //= p
        p += 1
    return hits, pred * N / math.log(N)


# --- EO-bar series ----------------------------------------------------------


def _pentagonal(order: int) -> tuple[np.ndarray, np.ndarray]:
    # J_1 = sum_{j in Z} (-1)^j q^{j(3j-1)/2}, without the constant term.
    exps, signs = [], []
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        s = -1 if j % 2 else 1
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= order:
                exps.append(e)
                signs.append(s)
        j += 1
    idx = np.argsort(exps)
    return np.asarray(exps, dtype=np.int64)[idx], np.asarray(signs, dtype=np.int64)[idx]


def eobar_mod(order: int, m: int) -> np.ndarray:
    """EO-bar(n) mod m for n <= order through J_2^3 / J_1^2 in q^2."""
    half = order // 2
    h = np.zeros(half + 1, dtype=np.int64)
    k = 0
    while k * (k + 1) <= half:
        h[k * (k + 1)] += (-1) ** k * (2 * k + 1)
        k += 1
    h %= m
    exps, signs = _pentagonal(half)
    for _ in range(2):  # divide by J_1 twice
        for n in range(1, half + 1):
            t = np.searchsorted(exps, n, side="right")
            h[n] = (h[n] - np.dot(signs[:t], h[n - exps[:t]])) % m
    out = np.zeros(order + 1, dtype=np.int64)
    out[0::2] = h
    return out


def eobar_exact(order: int) -> list[int]:
    """Exact EO-bar(n) for n <= order by the sigma recurrence
    n g(n) = sum_k c(k) g(n-k), c(k) = 4 sigma(k/2) [2|k] - 12 sigma(k/4) [4|k]."""
    half = order // 2
    sigma = [0] * (half + 1)
    for d in range(1, half + 1):
        for k in range(d, half + 1, d):
            sigma[k] += d
    # In the variable q^2 only even exponents occur: c(2j) = 4 sigma(j) - 12 sigma(j/2).
    c = [0] + [4 * sigma[j] - (12 * sigma[j // 2] if j % 2 == 0 else 0) for j in range(1, half + 1)]
    g = [1] + [0] * half
    for n in range(1, half + 1):
        acc = sum(c[k] * g[n - k] for k in range(1, n + 1))
        if acc % (2 * n):
            raise ArithmeticError(f"sigma recurrence not integral at n = {2 * n}")
        g[n] = acc // (2 * n)
    out = [0] * (order + 1)
    out[0::2] = g
    return out


# --- theta products ---------------------------------------------------------


def _theta_terms(order: int, scale: int = 1, alternating: bool = False):
    # sum_{j in Z} (+-1)^j q^{scale j^2}
    exps, coefs = [0], [1]
    j = 1
    while scale * j * j <= order:
        exps.append(scale * j * j)
        coefs.append(2 * (-1 if alternating and j % 2 else 1))
        j += 1
    return exps, coefs


def _octic_terms(order: int, alternating: bool = False):
    # sum_{j in Z} (+-1)^j q^{3j^2 - j}
    terms: dict[int, int] = {0: 1}
    j = 1
    while 3 * j * j - j <= order:
        s = -1 if alternating and j % 2 else 1
        for e in (3 * j * j - j, 3 * j * j + j):
            if e <= order:
                terms[e] = terms.get(e, 0) + s
        j += 1
    return list(terms), list(terms.values())


def _product(order: int, factors) -> np.ndarray:
    acc = np.zeros(order + 1, dtype=np.int64)
    acc[0] = 1
    for exps, coefs in factors:
        nxt = np.zeros(order + 1, dtype=np.int64)
        for e, c in zip(exps, coefs):
            nxt[e:] += c * acc[: order + 1 - e]
        acc = nxt
    return acc


def r113_table(order: int) -> np.ndarray:
    """r113(n) for n <= order: theta(q)^2 theta(q^3)."""
    t1 = _theta_terms(order)
    return _product(order, [t1, t1, _theta_terms(order, 3)])


def r133_table(order: int) -> np.ndarray:
    """r133(n) for n <= order: theta(q) theta(q^3)^2."""
    t3 = _theta_terms(order, 3)
    return _product(order, [_theta_terms(order), t3, t3])


def a_table(order: int) -> np.ndarray:
    """a(n) = A(12n+2) for n <= order: (sum q^{n^2}) (sum q^{3n^2-n})^2."""
    oc = _octic_terms(order)
    return _product(order, [_theta_terms(order), oc, oc])


def b_table(order: int) -> np.ndarray:
    """b(n) for n <= order: (sum (-1)^n q^{n^2}) (sum (-1)^n q^{3n^2-n})^2."""
    oc = _octic_terms(order, alternating=True)
    return _product(order, [_theta_terms(order, alternating=True), oc, oc])


# --- class numbers ----------------------------------------------------------


def jacobi(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Jacobi symbol (a/n) elementwise, n odd and positive."""
    a = np.asarray(a, dtype=np.int64) % n
    n = np.asarray(n, dtype=np.int64).copy()
    a = a.copy()
    res = np.ones(len(a), dtype=np.int64)
    live = np.flatnonzero(a != 0)
    while len(live):
        x, y = a[live], n[live]
        r = res[live]
        while True:
            ev = x % 2 == 0
            if not ev.any():
                break
            x[ev] //= 2
            flip = ev & np.isin(y % 8, (3, 5))
            r[flip] = -r[flip]
        flip = (x % 4 == 3) & (y % 4 == 3)
        r[flip] = -r[flip]
        x, y = y % x, x
        a[live], n[live], res[live] = x, y, r
        live = live[x != 0]
    return np.where(n == 1, res, 0)


def kronecker(D: int, a: np.ndarray) -> np.ndarray:
    """Kronecker symbol (D/a) for a fixed discriminant D and a >= 1."""
    a = np.asarray(a, dtype=np.int64).copy()
    twos = np.zeros(len(a), dtype=np.int64)
    while True:
        ev = a % 2 == 0
        if not ev.any():
            break
        a[ev] //= 2
        twos[ev] += 1
    if D % 2 == 0:
        two_part = (twos == 0).astype(np.int64)
    elif D % 8 in (1, 7):
        two_part = np.ones(len(a), dtype=np.int64)
    else:
        two_part = np.where(twos % 2 == 1, -1, 1)
    return two_part * jacobi(np.full(len(a), D), a)


def class_number(m: int) -> int:
    """h(-m) for squarefree m >= 1 (field discriminant D = -m if m = 3 mod 4,
    else -4m) by Dirichlet's formula: h = -(w / 2|D|) sum_{a<|D|} (D/a) a,
    which for D < -4 equals (2 - (D/2))^{-1} sum_{a<=|D|/2} (D/a)."""
    m = int(m)
    D = -m if m % 4 == 3 else -4 * m
    if D >= -4:
        a = np.arange(1, -D, dtype=np.int64)
        s, den = -int(np.dot(kronecker(D, a), a)) * (6 if D == -3 else 4), -2 * D
    else:
        s = int(kronecker(D, np.arange(1, -D // 2 + 1, dtype=np.int64)).sum())
        den = 2 - int(kronecker(D, np.array([2]))[0])
    h, rem = divmod(s, den)
    if rem:
        raise ArithmeticError(f"class number formula not integral for D = {D}")
    return h


def h6p_first_failure(p_max: int) -> dict:
    """First prime 5 <= p <= p_max, gcd(p, 6) = 1, where h(-6p) = 4 mod 8 for
    p = 5,7 mod 8 and 0 mod 8 otherwise fails; plus whether the statement
    holds on all p = 1 mod 6."""
    first = None
    restricted_ok = True
    for p in map(int, primes_upto(p_max)):
        if p < 5:
            continue
        h = class_number(6 * p)
        want = 4 if p % 8 in (5, 7) else 0
        if h % 8 != want:
            if p % 6 == 1:
                restricted_ok = False
            if first is None:
                first = {"p": p, "h": h, "h_mod8": h % 8}
    return {"first": first, "holds_for_p_1_mod_6": restricted_ok}

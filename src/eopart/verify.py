"""Theorem-by-theorem verification suites, congruence-family machinery,
congruence scanning, and the density report.

Every suite returns a VerificationReport; a failing suite always carries
its first counterexample.  Numbers that are only asymptotically predicted
(the gamma count, the 2-mod-4 reference curve) are reported, never
asserted.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import partitions, quadforms
from .arith import factorize, is_prime, legendre, odd_exponent_sieve
from .quadforms import Mod4Class, classify_mod4
from .series import eta_factor, eta_product, mod_reduce, mul, power, theta


@dataclass(frozen=True)
class CongruenceFamily:
    """Claim: EO-bar(A n + B) = 0 mod m for all n >= 0.  trivial is derived:
    A even and B odd make every argument odd, where the count vanishes."""

    modulus_A: int
    residue_B: int
    congruence_modulus: int = 4

    @property
    def trivial(self) -> bool:
        return self.modulus_A % 2 == 0 and self.residue_B % 2 == 1

    def argument(self, n: int) -> int:
        return self.modulus_A * n + self.residue_B


@dataclass
class VerificationReport:
    """A suite's verdict on range_checked; passed is derived: no counterexample."""

    suite: str
    range_checked: str
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def __str__(self):
        status = "PASS" if self.passed else f"FAIL ({self.counterexample})"
        return f"[{status}] {self.suite} on {self.range_checked}"


def _first_difference(a, b) -> int | None:
    """Index of the first position where the sequences a and b differ, else None."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def _first_nonzero_mod(coeffs_mod: np.ndarray, A: int, B: int, n_max: int, m: int) -> int | None:
    """Least n <= n_max with coeffs_mod[A n + B] not 0 mod m, else None."""
    bad = np.flatnonzero(coeffs_mod[B::A][: n_max + 1] % m)
    return int(bad[0]) if len(bad) else None


def _check_prime_at_least_5(p: int) -> None:
    """Refuse p unless it is a prime >= 5, the range every p-statement here covers."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")


# --- Ramanujan-type families ------------------------------------------------


def family_from_theorem(primes: list[int], j: int) -> CongruenceFamily:
    """Build the family EO-bar(A n + B) = 0 mod 4 from primes p_1..p_{k+1}, j.

    Requirements: each p_i >= 5 prime, j not divisible by the last prime,
    and either (i) the last prime is not 7 or 13 mod 24, or (ii) 3j is a
    quadratic nonresidue of the last prime.
    """
    if not primes:
        raise ValueError("need at least one prime")
    for p in primes:
        _check_prime_at_least_5(p)
    p_last = primes[-1]
    if j % p_last == 0:
        raise ValueError(f"j = {j} is divisible by the last prime {p_last}")
    cond_i = p_last % 24 not in (7, 13)
    if not cond_i and legendre(3 * j, p_last) != -1:
        raise ValueError(
            f"conditions violated: (i) fails ({p_last} = {p_last % 24} mod 24) "
            f"and (ii) fails (3j = {3 * j} is a square mod {p_last})"
        )
    A = 1
    for p in primes:
        A *= p * p
    head = 1
    for p in primes[:-1]:
        head *= p * p
    # Integral: every p_i >= 5 has p_i^2 = 1 (mod 3), so head = 1 and
    # p_last (3j + p_last) = p_last^2 = 1 (mod 3), and offset_num = 0 (mod 3).
    offset_num = head * p_last * (3 * j + p_last) - 1
    B = (offset_num // 3) % A
    return CongruenceFamily(A, B)


def check_family(
    fam: CongruenceFamily, n_max: int, coeffs_mod: np.ndarray | None = None
) -> VerificationReport:
    """Check EO-bar(A n + B) = 0 mod m for 0 <= n <= n_max via the series path.

    Without coeffs_mod the residues mod m are built through order
    A n_max + B.  A shared coeffs_mod carries no modulus and is taken to
    hold EO-bar mod 4, as eobar_series_mod(order, 4) does; an array reduced
    mod anything but a multiple of 4 cannot be told apart.

    Refuses, before any array is built or read, a malformed family (A < 1,
    B < 0, or m outside 2..2^62), a shared coeffs_mod for m other than 2
    and 4, and n_max < 0; refuses a coeffs_mod too short to reach
    A n_max + B.
    """
    A, B, m = fam.modulus_A, fam.residue_B, fam.congruence_modulus
    if A < 1 or B < 0 or not 2 <= m <= 1 << 62:
        raise ValueError(f"family needs A >= 1, B >= 0 and 2 <= m <= 2^62, got {A}n+{B} mod {m}")
    if coeffs_mod is not None and m not in (2, 4):
        raise ValueError(f"the shared coeffs_mod holds EO-bar mod 4; it cannot check mod {m}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    need = fam.argument(n_max)
    if coeffs_mod is None:
        coeffs_mod = partitions.eobar_series_mod(need, m)
    elif len(coeffs_mod) <= need:
        raise ValueError(f"truncation {len(coeffs_mod) - 1} too small; family needs order {need}")
    report = functools.partial(VerificationReport, f"family({A}n+{B})", f"n <= {n_max}")
    if (n := _first_nonzero_mod(coeffs_mod, A, B, n_max, m)) is None:
        return report()
    arg = fam.argument(n)
    return report({"n": n, "argument": arg, "value_mod": int(coeffs_mod[arg]) % m})


def scan_congruences(a_max: int, n_max: int) -> list[CongruenceFamily]:
    """All (A <= a_max, B < A) with EO-bar(An+B) = 0 mod 4 up to n_max.

    One eobar_series_mod array through order a_max n_max + a_max - 1, the
    largest argument, serves every pair.  Families whose arguments are all
    odd hold vacuously (the count is zero on odd numbers); these are kept
    and flagged by their trivial property.  Refuses a_max < 1 and n_max < 0
    before any array is built.
    """
    if a_max < 1 or n_max < 0:
        raise ValueError(f"a_max must be >= 1 and n_max >= 0, got a_max = {a_max}, n_max = {n_max}")
    coeffs_mod = partitions.eobar_series_mod(a_max * n_max + a_max - 1, 4)
    found = []
    for A in range(1, a_max + 1):
        for B in range(A):
            if _first_nonzero_mod(coeffs_mod, A, B, n_max, 4) is None:
                found.append(CongruenceFamily(A, B))
    return found


# --- identity and congruence suites ----------------------------------------


def verify_triple_products(order: int) -> VerificationReport:
    """Both Jacobi triple product specializations, coefficientwise.

    The eta factors are the honest products, so this also checks the
    pentagonal expansion that eta_factor is built from.
    """
    report = functools.partial(VerificationReport, "triple-product", f"order {order}")
    j1 = eta_product(1, order)
    j2 = eta_product(2, order)
    lhs1 = mul(theta("square_alt", order), j2)
    rhs1 = power(j1, 2)
    if (n := _first_difference(lhs1.coeffs, rhs1.coeffs)) is not None:
        return report({"identity": 1, "n": n})
    lhs2 = theta("pent3_alt", order)
    if (n := _first_difference(lhs2.coeffs, j1.coeffs)) is not None:
        return report({"identity": 2, "n": n})
    return report()


def verify_eobar_oracle(n_max: int) -> VerificationReport:
    """Series vs enumeration, vanishing on odd n, and the mod-4 eta form.

    For n <= 40 the restricted walk's count must also equal the count of
    even-below-odd partitions that pass the membership rule.  The mod-4
    form J_2^2 J_4 is read from eobar_series_mod, the fast path itself.
    """
    report = functools.partial(VerificationReport, "eobar-oracle", f"n <= {n_max}")
    ser = partitions.eobar_series(n_max)
    for n in range(n_max + 1):
        enum = partitions.eobar_count_enum(n)
        if ser.c(n) != enum:
            return report({"n": n, "series": ser.c(n), "enum": enum})
        if n % 2 == 1 and enum != 0:
            return report({"n": n, "odd_value": enum})
        if n <= 40:
            filtered = sum(map(partitions._is_eobar, partitions.eo_partitions(n)))
            if enum != filtered:
                return report({"n": n, "enum": enum, "filtered": filtered})
    form = partitions.eobar_series_mod(n_max, 4).tolist()
    if (n := _first_difference(mod_reduce(ser, 4).coeffs, form)) is not None:
        return report({"n": n, "mod4_eta_form": True})
    return report()


def verify_r113_A(n_max: int) -> VerificationReport:
    """4 A(n) = r113(n) on the support n = 2 mod 12, and A(n) = 0 off it.

    r113 comes from the theta product and A(n) from the A_direct lattice
    count.  On the support, for every n <= n_max, the count's A(n) must give
    r113(n) / 4 and match A_series, read from the theta product f_series.
    Off the support A(n) = 0 by congruence, so the count runs there only
    for n <= 500, the range on which the r113 lattice count checks the
    theta product too.  The walk ascends, so the first counterexample is
    the least n that fails.
    """
    report = functools.partial(VerificationReport, "r113-A", f"n <= {n_max}")
    r113 = quadforms.ternary_series(1, n_max).coeffs
    A = quadforms.A_series(n_max).coeffs
    for n in range(n_max + 1):
        r = r113[n]
        if n % 12 == 2:
            direct = quadforms.A_direct(n)
            if r != 4 * direct:
                return report({"n": n, "r113": r, "direct": direct})
            if (a := A[n]) != direct:
                return report({"n": n, "f_series": a, "direct": direct})
        elif n <= 500 and (direct := quadforms.A_direct(n)) != 0:
            return report({"n": n, "direct": direct})
        if n <= 500 and (loop := quadforms.r113(n)) != r:
            return report({"n": n, "r113": r, "loop": loop})
    return report()


def _h_minus_3n(n_max: int) -> Iterator[tuple[int, int, int]]:
    """(n, t, h(-3n)) for each squarefree n = 2 mod 12 up to n_max (criteria 4 and 5).

    t is the number of distinct primes of 3n.  One factorize(n) decides
    squarefreeness and gives t, since n = 2 mod 12 is prime to 3.
    """
    for n in range(2, n_max + 1, 12):
        factors = factorize(n).factors
        if all(e == 1 for _, e in factors):
            yield n, len(factors) + 1, quadforms.class_number(3 * n)


def verify_classnumber(n_max: int) -> VerificationReport:
    """r113(n) = r133(3n) = 2 h(-3n) for squarefree n = 2 mod 12."""
    report = functools.partial(VerificationReport, "classnumber", f"n <= {n_max}")
    for n, _, h in _h_minus_3n(n_max):
        r1 = quadforms.r113(n)
        r2 = quadforms.r133(3 * n)
        if not (r1 == r2 == 2 * h):
            return report({"n": n, "r113": r1, "r133_3n": r2, "h": h})
    return report()


def verify_h6p(p_max: int) -> VerificationReport:
    """h(-6p) = 4 mod 8 when p = 5,7 mod 8, else 0 mod 8, for gcd(6,p)=1.

    As stated this fails (first at p=17: h(-102)=4, not 0 mod 8); restricted
    to p = 1 mod 6, which is the only regime where the classification proof
    invokes it (n = 2p = 2 mod 12 forces p = 1 mod 6), it holds.  The
    restricted result is reported in details either way.
    """
    counterexample = None
    restricted_ok = True
    for p in range(5, p_max + 1, 2):
        if p % 3 == 0 or not is_prime(p):
            continue
        h = quadforms.class_number(6 * p)
        want = 4 if p % 8 in (5, 7) else 0
        if h % 8 != want:
            if p % 6 == 1:
                restricted_ok = False
            if counterexample is None:
                counterexample = {"p": p, "h": h, "h_mod8": h % 8}
    return VerificationReport(
        "h6p", f"p <= {p_max}", counterexample, {"holds_for_p_1_mod_6": restricted_ok}
    )


def verify_genus(n_max: int) -> VerificationReport:
    """2^{t-1} divides h(-3n), t = number of distinct primes of 3n."""
    report = functools.partial(VerificationReport, "genus", f"n <= {n_max}")
    for n, t, h in _h_minus_3n(n_max):
        if h % (1 << (t - 1)):
            return report({"n": n, "t": t, "h": h})
    return report()


def verify_hecke(p: int, n_max: int) -> VerificationReport:
    """A(p^2 n) + (-3n/p) A(n) + p A(n/p^2) = (p+1) A(n) for every n = 2 mod 12,
    p | n included: there (-3n/p) = 0, and the last term counts once p^2 | n.
    Refuses a p that is not a prime >= 5."""
    _check_prime_at_least_5(p)
    report = functools.partial(VerificationReport, f"hecke(p={p})", f"n <= {n_max}")
    A = functools.cache(quadforms.A_direct)  # each lattice count once per call
    for n in range(2, n_max + 1, 12):
        lhs = A(p * p * n) + legendre(-3 * n, p) * A(n)
        if n % (p * p) == 0:
            lhs += p * A(n // (p * p))
        rhs = (p + 1) * A(n)
        if lhs != rhs:
            return report({"n": n, "lhs": lhs, "rhs": rhs})
    return report()


def verify_lemmas_3_2_to_3_5(p: int, n_max: int) -> VerificationReport:
    """Prime-power congruences for A: the four mod-2 and mod-4 lemmas.
    Refuses a p that is not a prime >= 5."""
    _check_prime_at_least_5(p)
    report = functools.partial(VerificationReport, f"lemmas3.2-3.5(p={p})", f"n <= {n_max}")
    # 3.4 and 3.5 reread the A(p^k n) of 3.2 and 3.3: each lattice count once per call
    A = functools.cache(quadforms.A_direct)
    for n in range(2, n_max + 1, 12):
        An = A(n)
        coprime = n % p != 0
        if coprime:
            if (A(p * p * n) - An) % 2:
                return report({"lemma": "3.2i", "n": n})
            if A(p**3 * n) % 2:
                return report({"lemma": "3.2ii", "n": n})
        if (A(p**4 * n) - An) % 2:
            return report({"lemma": "3.3", "n": n})
        if An % 2 == 0:
            if coprime:
                if (A(p * p * n) - An) % 4:
                    return report({"lemma": "3.4i", "n": n})
                if A(p**3 * n) % 4:
                    return report({"lemma": "3.4ii", "n": n})
            if (A(p**4 * n) - An) % 4:
                return report({"lemma": "3.5", "n": n})
    return report()


def verify_classification(n_max: int) -> VerificationReport:
    """Certificate class equals A(n) mod 4 for every n = 2 mod 12 up to n_max.

    A(n) is read from the theta-product series f_series, which this suite
    takes as given: it checks that the class certified from the odd-exponent
    primes of n/2 = 6k+1 (one odd_exponent_sieve pass over k) matches A(n)
    mod 4 and that the certificate's witness reconstructs n.  The pointwise
    classify_mod4, through factorize, must give the same certificate for
    every k <= 100 and every 97th k.  The r113-A suite checks f_series
    against the A_direct lattice count on its own range (n <= 5000 by default).
    """
    report = functools.partial(VerificationReport, "classification", f"n <= {n_max}")
    if n_max < 2:
        return report()
    order = (n_max - 2) // 12
    f = quadforms.f_series(order)
    want = {
        Mod4Class.ODD: (1, 3),
        Mod4Class.TWO_MOD_FOUR: (2,),
        Mod4Class.ZERO_MOD_FOUR: (0,),
    }
    sieved = zip(*(col.tolist() for col in odd_exponent_sieve(6, 1, order + 1)))
    for k, (n_odd, p, e) in enumerate(sieved):
        n = 12 * k + 2
        a4 = f.c(k) % 4
        cert = quadforms._certificate(n, n_odd, p, e)
        sampled = k <= 100 or k % 97 == 0
        if a4 not in want[cert.cls] or not cert.check() or (sampled and classify_mod4(n) != cert):
            return report({"n": n, "A_mod4": a4, "class": cert.cls.value})
    return report()


def verify_eobar_equals_A(n_max: int) -> VerificationReport:
    """EO-bar(n) = A(6n+2) mod 4 for n <= n_max.

    Also records (report-only) whether the J_2^3 J_4 form matches
    J_2^2 J_4 mod 4 (read from eobar_series_mod) for n <= 200; the proof
    display with the cubed factor fails coefficientwise, consistent with it
    being a typo.
    """
    report = functools.partial(VerificationReport, "eobar-A", f"n <= {n_max}")
    ser = partitions.eobar_series(n_max)
    A = quadforms.A_series(6 * n_max + 2)
    for n in range(n_max + 1):
        want = A.c(6 * n + 2) % 4
        if ser.c(n) % 4 != want:
            return report({"n": n, "eobar_mod4": ser.c(n) % 4, "A_mod4": want})
    small = min(n_max, 200)
    cubed = mod_reduce(mul(power(eta_factor(2, small), 3), eta_factor(4, small)), 4)
    squared = partitions.eobar_series_mod(small, 4).tolist()
    return report(details={"j2cubed_matches_j2squared_mod4": cubed.coeffs == squared})


def verify_a_eq_b(n_max: int) -> VerificationReport:
    """a(n) = b(n) mod 4, with b from both the eta and theta products."""
    report = functools.partial(VerificationReport, "a-eq-b", f"n <= {n_max}")
    b = quadforms.b_series(n_max)
    b_theta = quadforms.b_series_theta(n_max)
    if (n := _first_difference(b.coeffs, b_theta.coeffs)) is not None:
        return report({"n": n, "b_route_mismatch": True})
    f = quadforms.f_series(n_max)
    for n in range(n_max + 1):
        if (f.c(n) - b.c(n)) % 4:
            return report({"n": n, "a": f.c(n), "b": b.c(n)})
    return report()


# The primes theorem_families draws p_1..p_{k+1} from.
FAMILY_PRIMES = (5, 7, 11, 13)


def theorem_families(max_k: int = 1) -> list[CongruenceFamily]:
    """Every admissible family with k + 1 primes from FAMILY_PRIMES, 0 <= k <= max_k;
    refuses max_k < 0."""
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    fams = []
    tuples = (t for r in range(1, max_k + 2) for t in itertools.product(FAMILY_PRIMES, repeat=r))
    for primes in tuples:
        p_last = primes[-1]
        for j in range(1, p_last):
            try:
                fams.append(family_from_theorem(list(primes), j))
            except ValueError:
                continue
    return fams


def verify_families(order: int) -> VerificationReport:
    """Every theorem_families() family passes to the truncation bound; the
    seven example residues mod 25 and mod 49 are among them."""
    report = functools.partial(VerificationReport, "families", f"order {order}")
    coeffs = partitions.eobar_series_mod(order, 4)
    fams = theorem_families()
    pairs = {(f.modulus_A, f.residue_B) for f in fams}
    expected = {(25, 3), (25, 13), (25, 18), (25, 23), (49, 23), (49, 30), (49, 44)}
    missing = expected - pairs
    if missing:
        return report({"missing_example_families": sorted(missing)})
    for fam in fams:
        if fam.residue_B > order:
            continue  # no argument A n + B within the order
        n_max = (order - fam.residue_B) // fam.modulus_A
        rep = check_family(fam, n_max, coeffs)
        if not rep.passed:
            return report({**rep.counterexample, "family": (fam.modulus_A, fam.residue_B)})
    return report(details={"n_families": len(fams)})


# --- density and gamma reporting -------------------------------------------


def density_report(checkpoints: list[int]) -> list[dict]:
    """Residue-class counts of EO-bar(n) mod 4 for n <= N at each checkpoint.

    The odd count is asserted against the sqrt(6N+1) bound (bound_ok); the
    2-mod-4 count is compared to its N/log N reference without assertion.

    The reference is (pi^2/12) N/log N.  EO-bar(2k) = A(12k+2) mod 4 (odd
    arguments give 0), and A(12k+2) = 2 mod 4 when 6k+1 = p^{4a+1} m^2 with
    p = 5, 7 mod 8 and gcd(m, 6p) = 1; the a = 0 terms dominate.  Then
    m^2 = 1 mod 6 forces p = 1 mod 3, so p lies in 2 of the 8 prime classes
    mod 24, and 6k+1 <= 3N.  Summing over m prime to 6:
    (1/4) sum 3N/(m^2 log N) = (3N/4)(pi^2/6)(3/4)(8/9)/log N
    = (pi^2/12) N/log N.
    """
    if not checkpoints or min(checkpoints) < 2:
        raise ValueError(f"checkpoints must be one or more integers >= 2, got {checkpoints}")
    top = max(checkpoints)
    arr = partitions.eobar_series_mod(top, 4)
    rows = []
    for N in sorted(checkpoints):
        window = arr[: N + 1]
        odd = int(np.count_nonzero(window % 2))
        two = int(np.count_nonzero(window == 2))
        zero = int(np.count_nonzero(window % 4 == 0))
        bound = math.isqrt(6 * N + 1)
        rows.append(
            {
                "N": N,
                "odd": odd,
                "two_mod4": two,
                "zero_mod4": zero,
                "ratio_zero_mod4": zero / N,
                "odd_bound": bound,
                "bound_ok": odd <= bound,
                "two_mod4_reference": (math.pi**2 / 12) * N / math.log(N),
            }
        )
    return rows


def gamma_count(A: int, B: int, N: int) -> tuple[int, float]:
    """Count n <= N with A n + B = m^2 p^{4a+1} (p prime, p not dividing m),
    read from one odd_exponent_sieve pass over the progression, against the
    asymptotic reference (pi^2/6) prod_{p|A}(1+1/p) N/log N.

    The reference is an asymptotic with an error term, so only the pair is
    returned; nothing is asserted.  Refuses gcd(A, B) != 1 and, through the
    sieve, terms A N + B at or above 2^62.
    """
    if not (A > B >= 1):
        raise ValueError("need A > B >= 1")
    if N < 2:
        raise ValueError(f"gamma_count needs N >= 2 (log N in the reference), got N = {N}")
    n_odd, _, e = odd_exponent_sieve(A, B, N + 1)
    count = int(np.count_nonzero((n_odd == 1) & (e % 4 == 1)))
    pred = math.pi**2 / 6
    for p, _ in factorize(A).factors:
        pred *= 1 + 1 / p
    pred *= N / math.log(N)
    return count, pred


# --- suite registry ---------------------------------------------------------

HECKE_PRIMES = (5, 7, 11, 13)


class Suite(NamedTuple):
    """A registry entry: run(bound) returns the suite's reports."""

    run: Callable[[int], list[VerificationReport]]
    default: int
    bound: str = "limit"  # the run_suite argument that overrides the default


SUITES: dict[str, Suite] = {
    "triple-product": Suite(lambda n: [verify_triple_products(n)], 2000),
    "eobar-oracle": Suite(lambda n: [verify_eobar_oracle(min(n, partitions.ENUM_GUARD))], 60),
    "r113-A": Suite(lambda n: [verify_r113_A(n)], 5000),
    "classnumber": Suite(lambda n: [verify_classnumber(n)], 2000),
    "h6p": Suite(lambda n: [verify_h6p(n)], 500),
    "genus": Suite(lambda n: [verify_genus(n)], 2000),
    "hecke": Suite(lambda n: [verify_hecke(p, n) for p in HECKE_PRIMES], 200),
    "lemmas33-35": Suite(lambda n: [verify_lemmas_3_2_to_3_5(p, n) for p in HECKE_PRIMES], 50),
    "classification": Suite(lambda n: [verify_classification(n)], 100_000),
    "eobar-A": Suite(lambda n: [verify_eobar_equals_A(n)], 2000),
    "a-eq-b": Suite(lambda n: [verify_a_eq_b(n)], 2000),
    "families": Suite(lambda n: [verify_families(n)], 150_000, "order"),
}


def run_suite(name: str, limit: int | None = None, order: int | None = None) -> list[VerificationReport]:
    """Run one named suite; limit/order override the per-suite defaults.

    Refuses an unknown name with KeyError, and a negative limit or order
    with ValueError whether or not the suite reads that bound.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    for bound, n in (("limit", limit), ("order", order)):
        if n is not None and n < 0:
            raise ValueError(f"{bound} must be >= 0, got {n}")
    suite = SUITES[name]
    n = order if suite.bound == "order" else limit
    return suite.run(suite.default if n is None else n)


def worker_count() -> int:
    """Threads run_all uses: always 1, since the suites run serially.

    Nothing in the package calls it; it is kept for eobench/worker.py,
    which records it in each benchmark run's environment.
    """
    return 1


def run_all(limit: int | None = None, order: int | None = None) -> list[VerificationReport]:
    """Run every suite on the calling thread, in alphabetical order."""
    reports: list[VerificationReport] = []
    for name in sorted(SUITES):
        reports.extend(run_suite(name, limit, order))
    return reports

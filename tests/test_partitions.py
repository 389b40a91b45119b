import pytest

from eopart.partitions import (
    ENUM_GUARD,
    eo_count,
    eo_partitions,
    eobar_count_enum,
    eobar_partitions,
    eobar_series,
    eobar_series_mod,
    partitions_desc,
    _is_eo,
    _is_eobar,
)
from eopart.series import eta_factor, eta_quotient_mod, mul, power

# the defining fixture: the five restricted partitions of 8
EOBAR_8 = {
    (8,),
    (4, 2, 2),
    (3, 3, 2),
    (3, 3, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1),
}


def test_eo_8():
    assert eo_count(8) == 12


def test_eobar_8():
    assert eobar_count_enum(8) == 5


def test_eobar_8_exact_partitions():
    found = {p for p in partitions_desc(8) if _is_eobar(p)}
    assert found == EOBAR_8


def test_four_plus_four_excluded():
    # 4+4 is an even-below-odd partition with no odd-multiplicity part;
    # the largest even part must appear an odd number of times
    assert _is_eo((4, 4))
    assert not _is_eobar((4, 4))


def test_small_values():
    assert eo_count(0) == 1
    assert eobar_count_enum(0) == 1
    assert eo_count(2) == 2
    assert eobar_count_enum(2) == 2
    assert eobar_count_enum(1) == 0


def test_vanishes_on_odd():
    assert all(eobar_count_enum(2 * k + 1) == 0 for k in range(15))


def test_guard():
    with pytest.raises(ValueError, match="generating-function"):
        eobar_count_enum(ENUM_GUARD + 1)
    with pytest.raises(ValueError):
        eo_count(-1)


def test_series_fixture():
    s = eobar_series(10)
    assert s.c(8) == 5
    assert s.c(0) == 1


def test_series_matches_enum():
    s = eobar_series(60)
    for n in range(61):
        assert s.c(n) == eobar_count_enum(n), n


def test_eobar_below_eo():
    assert all(eobar_count_enum(n) <= eo_count(n) for n in range(41))


def test_mod4_eta_form():
    # the generating function is J_2^2 J_4 mod 4
    n = 120
    s = eobar_series(n)
    j = mul(power(eta_factor(2, n), 2), eta_factor(4, n))
    assert [c % 4 for c in s.coeffs] == [c % 4 for c in j.coeffs]


def test_mod_path_matches_exact():
    s = eobar_series(400)
    arr = eobar_series_mod(400, 4)
    assert [c % 4 for c in s.coeffs] == arr.tolist()


@pytest.mark.parametrize("m", [2, 4])
def test_mod4_shortcut_matches_division(m):
    # the division-free b(q^2) path, at half the order, against the division
    # recurrence; odd orders and order // 2 = 0 are its edges
    for order in (0, 1, 2, 3, 59, 3000):
        arr = eobar_series_mod(order, m)
        assert arr.tolist() == eta_quotient_mod({4: 3}, {2: 2}, order, m).tolist(), order
        assert not arr[1::2].any(), order


def test_newton_route_matches_shortcut_at_scale():
    # Newton inverse of J_2^2 mod 8 against the division-free J_2^2 J_4 mod 4
    order = 100_000
    arr = eta_quotient_mod({4: 3}, {2: 2}, order, 8) % 4
    assert arr.tolist() == eobar_series_mod(order, 4).tolist()


def test_mod_path_int64_bound():
    # the kernel is exact for every m <= 2^62, where Horner's doubling still
    # fits in int64; anything larger is refused
    exact = eobar_series(400).coeffs
    for m in (10**15 + 37, 3 * 10**18 + 37, 2**62):
        assert eobar_series_mod(400, m).tolist() == [c % m for c in exact], m
    with pytest.raises(ValueError, match="overflows int64"):
        eobar_series_mod(400, 2**62 + 1)


def test_eo_partitions_match_brute_force():
    # the pruned walk against the filter over every partition
    for n in range(26):
        walked = list(eo_partitions(n))
        assert len(walked) == len(set(walked)), n
        assert all(list(p) == sorted(p, reverse=True) for p in walked), n
        assert set(walked) == {p for p in partitions_desc(n) if _is_eo(p)}, n


def test_eobar_partitions_match_brute_force():
    # the restricted walk against the membership rule over every partition
    for n in range(26):
        walked = list(eobar_partitions(n))
        assert len(walked) == len(set(walked)), n
        assert all(list(p) == sorted(p, reverse=True) for p in walked), n
        assert set(walked) == {p for p in partitions_desc(n) if _is_eobar(p)}, n


def test_eobar_partitions_pass_membership_rule():
    for n in range(ENUM_GUARD + 1):
        assert all(map(_is_eobar, eobar_partitions(n))), n


@pytest.mark.parametrize(
    "n, eo, eobar", [(20, 139, 26), (40, 2714, 191), (60, 28629, 966), (70, 81156, 1976)]
)
def test_pinned_counts(n, eo, eobar):
    # values of the full-partition scan the walk replaced
    assert eo_count(n) == eo
    assert eobar_count_enum(n) == eobar
    assert eobar_series(70).c(n) == eobar

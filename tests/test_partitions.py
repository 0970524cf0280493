import itertools
from fractions import Fraction
from math import factorial

import pytest

from kerovlab.partitions import (
    check_partition,
    conjugate,
    enumerate_partitions,
    epsilon,
    format_partition,
    mult_factorial,
    multiplicities,
    parse_partition,
    partition_count,
    series_coefficients,
    u_factor,
    unrank_partition,
    z_factor,
)


def pentagonal_p(n):
    """Partition counts from the Euler pentagonal recurrence (independent of
    the enumerator)."""
    p = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p


def cycle_type(perm):
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def perm_sign(perm):
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def test_enumerate_spec_examples():
    assert enumerate_partitions(4, 2) == [(4,), (2, 2)]
    assert enumerate_partitions(0, 1) == [()]
    assert enumerate_partitions(5, 2) == [(5,), (3, 2)]


def test_enumerate_reverse_lex_order():
    assert enumerate_partitions(6) == [
        (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    ]


def reference_partitions(n, min_part, max_part):
    """The recursive generator the memoized build replaced, kept as the order reference."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), min_part - 1, -1):
        for rest in reference_partitions(n - first, min_part, first):
            yield (first,) + rest


def test_enumeration_order_matches_the_recursive_generator():
    for min_part in (1, 2, 3, 5):
        for n in range(27):
            assert enumerate_partitions(n, min_part) == list(
                reference_partitions(n, min_part, n)
            ), (n, min_part)


def test_unranking_reproduces_the_enumeration_order():
    for n in range(21):
        assert partition_count(n) == len(enumerate_partitions(n)), n
        assert [unrank_partition(n, i) for i in range(partition_count(n))] == enumerate_partitions(n), n
    assert partition_count(30) == pentagonal_p(30)[30]
    for bad in (-1, partition_count(7)):
        with pytest.raises(IndexError):
            unrank_partition(7, bad)


def test_enumeration_counts_match_pentagonal_recurrence():
    p = pentagonal_p(30)
    for n in range(31):
        assert len(enumerate_partitions(n)) == p[n]


def test_u_factor_counts_compositions():
    # the rearrangement counts of all partitions of n add up to 2^(n-1)
    for n in range(1, 15):
        assert sum(u_factor(mu) for mu in enumerate_partitions(n)) == 2 ** (n - 1)


def test_u_factor_counts_distinct_rearrangements():
    for n in range(8):
        for mu in enumerate_partitions(n):
            assert u_factor(mu) == len(set(itertools.permutations(mu)))


def test_z_factor_is_centralizer_order():
    # brute force over S_n: z_mu * #{permutations of cycle type mu} = n!
    for n in range(1, 7):
        counts = {}
        for perm in itertools.permutations(range(n)):
            counts[cycle_type(perm)] = counts.get(cycle_type(perm), 0) + 1
        for mu, cnt in counts.items():
            assert z_factor(mu) * cnt == factorial(n)


def test_epsilon_is_permutation_sign():
    for n in range(1, 7):
        seen = set()
        for perm in itertools.permutations(range(n)):
            mu = cycle_type(perm)
            if mu in seen:
                continue
            seen.add(mu)
            assert epsilon(mu) == perm_sign(perm)


def test_spec_value_examples():
    assert z_factor((2, 1, 1)) == 4
    assert z_factor(()) == 1
    assert z_factor((3, 3)) == 18
    assert epsilon((2, 1)) == -1
    assert epsilon((1, 1, 1)) == 1
    assert epsilon((4,)) == -1
    assert u_factor((2, 2)) == 1
    assert u_factor((3, 2, 2)) == 3
    assert u_factor((1,)) == 1


def test_conjugate_examples_and_involution():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_against_diagram_transpose():
    for n in range(11):
        for lam in enumerate_partitions(n):
            boxes = {(i, j) for i, p in enumerate(lam) for j in range(p)}
            flipped = {(j, i) for i, j in boxes}
            rows = {}
            for i, _ in flipped:
                rows[i] = rows.get(i, 0) + 1
            assert conjugate(lam) == tuple(rows[i] for i in sorted(rows))


def test_multiplicities_and_mult_factorial():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
    assert mult_factorial((3, 2, 2, 1)) == 2
    assert mult_factorial(()) == 1


def test_parse_and_format():
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("") == ()
    assert parse_partition(" 5,5,2 ") == (5, 5, 2)
    assert format_partition((3, 1)) == "3,1"
    assert format_partition(()) == ""
    with pytest.raises(ValueError):
        parse_partition("1,3")
    with pytest.raises(ValueError):
        parse_partition("3,x")
    with pytest.raises(ValueError):
        parse_partition("3,0")


def test_check_partition():
    assert check_partition([4, 2, 2]) == (4, 2, 2)
    with pytest.raises(ValueError):
        check_partition((2, 3))
    with pytest.raises(ValueError):
        check_partition((2, -1))


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)
    with pytest.raises(ValueError):
        enumerate_partitions(4, 0)


# Taylor coefficients a_l = [x^l] F of the outer functions F
SERIES = {
    "exp": lambda l: Fraction(1, factorial(l)),
    "log(1+x)": lambda l: Fraction((-1) ** (l - 1), l) if l else Fraction(0),
    "-log(1-x)": lambda l: Fraction(1, l) if l else Fraction(0),
    "1/(1-x)": lambda l: Fraction(1),
    "1/(1+x)": lambda l: Fraction((-1) ** l),
}


def _series_mul(f, g, top):
    """Product of z-series truncated at z^top; entry d maps the sorted
    generator indices of a monomial to its coefficient."""
    out = [{} for _ in range(top + 1)]
    for d, fd in enumerate(f):
        for e, ge in enumerate(g[: top + 1 - d]):
            for a, x in fd.items():
                for b, y in ge.items():
                    key = tuple(sorted(a + b, reverse=True))
                    out[d + e][key] = out[d + e].get(key, 0) + x * y
    return out


def _composed_series(a, weight, min_part, top):
    """F(sum_i weight(i) g_i z^i) to z^top, by summing a_l X^l directly."""
    x = [{(i,): Fraction(weight(i))} if i >= min_part else {} for i in range(top + 1)]
    power = [{(): Fraction(1)}] + [{} for _ in range(top)]
    total = [{} for _ in range(top + 1)]
    for l in range(top + 1):
        for d, coefs in enumerate(power):
            for mono, c in coefs.items():
                total[d][mono] = total[d].get(mono, 0) + a(l) * c
        power = _series_mul(power, x, top)
    return [{m: c for m, c in coefs.items() if c} for coefs in total]


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_coefficients_match_direct_expansion(name):
    a = SERIES[name]
    for weight in (lambda i: 1, lambda i: i - 1, lambda i: 2 * i + 3):
        for min_part in (1, 2):
            want = _composed_series(a, weight, min_part, 8)
            for n in range(9):
                got = series_coefficients(n, min_part, lambda l: factorial(l) * a(l), weight)
                assert list(got) == enumerate_partitions(n, min_part)
                assert {m: c for m, c in got.items() if c} == want[n], (name, min_part, n)

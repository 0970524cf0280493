"""Integer partitions and their basic statistics.

A partition is represented as a plain tuple of weakly decreasing positive
integers; the empty tuple is the unique partition of 0.  Tuples give
structural equality, a total order and cheap hashing, which matters because
partitions are dictionary keys throughout the package.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import factorial, prod

Partition = tuple[int, ...]

_enum_cache: dict[tuple[int, int], tuple[Partition, ...]] = {}


def check_partition(parts) -> Partition:
    """Validate and canonicalize an iterable of parts into a Partition.

    Raises ValueError unless the parts are positive integers in weakly
    decreasing order.
    """
    lam = tuple(parts)
    for i, p in enumerate(lam):
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"parts must be positive integers, got {lam!r}")
        if i and lam[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {lam!r}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form, e.g. "3,1"; "" is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part value -> multiplicity."""
    m: dict[int, int] = {}
    for p in lam:
        m[p] = m.get(p, 0) + 1
    return m


def enumerate_partitions(n: int, min_part: int = 1) -> list[Partition]:
    """All partitions of n with every part >= min_part, reverse-lexicographic.

    Returns [()] for n = 0.  The order puts (n) first and the all-min_part
    partition last, which is the canonical order used everywhere downstream.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if min_part < 1:
        raise ValueError("min_part must be positive")
    return list(_partitions_cached(n, min_part))


def _partitions_cached(n: int, min_part: int) -> tuple[Partition, ...]:
    key = (n, min_part)
    got = _enum_cache.get(key)
    if got is None:
        got = _enum_cache[key] = _build_partitions(n, min_part)
    return got


def _build_partitions(n: int, min_part: int) -> tuple[Partition, ...]:
    """The partitions of n with parts >= min_part, reverse-lexicographic.

    Those of k with parts in [min_part, m] are (m,) + rest, rest running over
    those of k - m with parts in [min_part, m], followed by those of k with
    parts in [min_part, m - 1]; each (k, m) is built once, and the memo lives
    only for this fill.
    """
    memo: dict[tuple[int, int], tuple[Partition, ...]] = {}

    def build(k: int, m: int) -> tuple[Partition, ...]:
        if k == 0:
            return ((),)
        m = min(k, m)
        if m < min_part:
            return ()
        got = memo.get((k, m))
        if got is None:
            head = (m,)
            got = memo[k, m] = tuple([head + rest for rest in build(k - m, m)]) + build(k, m - 1)
        return got

    return build(n, n)


_counts: list[list[int]] = [[1]]  # _counts[k][m]: partitions of k with parts <= m <= k


def partition_count(n: int) -> int:
    """Number of partitions of n, from a table of those with parts <= m."""
    while len(_counts) <= n:
        k, row = len(_counts), [0]
        for j in range(1, k + 1):  # a part j, or parts <= j - 1
            row.append(_counts[k - j][min(j, k - j)] + row[-1])
        _counts.append(row)
    return _counts[n][n]


def unrank_partition(n: int, index: int) -> Partition:
    """The partition at `index` in enumerate_partitions(n), built alone: those
    of k with parts <= m run through first part m, m - 1, ..., so the c-th
    from the end has first part j, the least with _counts[k][j] >= c."""
    if not 0 <= index < partition_count(n):
        raise IndexError(f"partition rank {index} out of range for n = {n}")
    parts: list[int] = []
    while n:
        row = _counts[n]
        c = row[min(parts[-1], n) if parts else n] - index
        j = bisect_left(row, c)
        parts.append(j)
        index, n = row[j] - c, n - j
    return tuple(parts)


def z_factor(mu: Partition) -> int:
    """The centralizer order prod_i i^{m_i} * m_i!."""
    return prod(mu) * mult_factorial(mu)


def epsilon(mu: Partition) -> int:
    """Sign (-1)^(|mu| - l(mu))."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def u_factor(mu: Partition) -> int:
    """Number of distinct rearrangements of mu: l(mu)! / prod_i m_i!."""
    return factorial(len(mu)) // mult_factorial(mu)


@cache
def mult_factorial(mu: Partition) -> int:
    """prod_i m_i(mu)!."""
    out = 1
    for m in multiplicities(mu).values():
        out *= factorial(m)
    return out


def series_coefficients(n: int, min_part: int, phi, weight) -> dict[Partition, Fraction]:
    """[z^n] F(sum_i weight(i) g_i z^i) in the g_i, with phi(l) = l! [x^l] F.

    The coefficient of g_mu is phi(l(mu)) prod_j weight(mu_j) / prod_i m_i(mu)!
    over the partitions mu of n with parts >= min_part, in their enumeration
    order (Macdonald, Symmetric Functions and Hall Polynomials, I.2).
    """
    return {
        mu: Fraction(phi(len(mu)) * prod(map(weight, mu)), mult_factorial(mu))
        for mu in enumerate_partitions(n, min_part)
    }


def triple_sums(n: int, weight) -> dict[Partition, int]:
    """mu -> the sum of weight(i) over (i, j, k) in N^3 with i + j + k = n
    whose nonzero entries rearrange mu."""
    sums: dict[Partition, int] = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            mu = tuple(sorted((v for v in (i, j, n - i - j) if v), reverse=True))
            sums[mu] = sums.get(mu, 0) + weight(i)
    return sums


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for p in lam:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def power_sum_value(k: int, v: Partition) -> int:
    """p_k evaluated at the integer vector v."""
    return sum(x**k for x in v)


def format_rational(q) -> str:
    """Text form of an exact rational: "num/den", denominator omitted when 1."""
    q = Fraction(q)
    return str(q)

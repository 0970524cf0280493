"""Exact irreducible characters of symmetric groups.

The normalized character of an r-cycle comes from Frobenius' formula, one
sum over the beta-numbers (first-column hook lengths) of the diagram.
General cycle types go through the Murnaghan-Nakayama border-strip
recursion, run on beta-numbers and stripping the largest cycle first, and
dimensions through the hook length formula.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm, prod

from .partitions import Partition, conjugate

_dim_cache: dict[Partition, int] = {}
_mn_cache: dict[tuple[Partition, Partition], int] = {}


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation lam (hook length formula)."""
    if not lam:
        raise ValueError("dimension of the empty partition is undefined here")
    got = _dim_cache.get(lam)
    if got is None:
        got = _hook_dimension(lam)
        _dim_cache[lam] = got
    return got


def _hook_dimension(lam: Partition) -> int:
    conj = conjugate(lam)
    num = factorial(sum(lam))
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            den *= row - j + conj[j] - i - 1
    q, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"hook product {den} of {lam} does not divide {sum(lam)}!")
    return q


def _beta(lam: Partition) -> tuple[int, ...]:
    l = len(lam)
    return tuple(lam[i] + (l - 1 - i) for i in range(l))


def _from_beta(beta: list[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    l = len(beta)
    lam = [beta[i] - (l - 1 - i) for i in range(l)]
    return tuple(p for p in lam if p > 0)


def _strip_candidates(lam: Partition, k: int):
    """Border strips of size k removable from lam.

    On the abacus a strip removal moves one bead down k slots; the sign is
    (-1)^(number of beads jumped over).
    """
    beta = _beta(lam)
    bset = set(beta)
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        rest = [c for c in beta if c != b] + [nb]
        yield (-1) ** height, _from_beta(rest)


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the class of cycle type mu in the representation lam."""
    if sum(lam) != sum(mu):
        raise ValueError("representation and cycle type must have equal weight")
    return _mn(lam, mu)


def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    if all(p == 1 for p in mu):
        return dimension(lam)
    key = (lam, mu)
    got = _mn_cache.get(key)
    if got is None:
        rest = mu[1:]
        got = sum(sign * _mn(sub, rest) for sign, sub in _strip_candidates(lam, mu[0]))
        _mn_cache[key] = got
    return got


def normalized_character(lam: Partition, r: int) -> Fraction:
    """(n)_r * chi^lam(r-cycle) / dim(lam), for n = |lam| >= r, by Frobenius'
    formula: with beta_i = lam_i + l - i, the sum over beads b with b - r >= 0
    not in beta of (b)_r prod_{c != b} (b - r - c) / (b - c)."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if sum(lam) < r:
        raise ValueError("character of an r-cycle needs n >= r")
    beta = _beta(lam)
    num, den = 0, 1
    for b in beta:
        if b >= r and b - r not in beta:
            top = perm(b, r) * prod(b - r - c for c in beta if c != b)
            bottom = prod(b - c for c in beta if c != b)
            num, den = num * bottom + top * den, den * bottom
    return Fraction(num, den)

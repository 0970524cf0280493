"""Exact irreducible characters of symmetric groups, on the beta-numbers
beta_i = lam_i + l - i (first-column hook lengths, beads on the abacus) of lam:
Frobenius' formula for an r-cycle, the dimension n! prod_{i<j} (beta_i -
beta_j) / prod_i beta_i!, and the Murnaghan-Nakayama recursion for general
cycle types, stripping the largest cycle first.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm, prod

from .partitions import Partition

_mn_cache: dict[tuple[tuple[int, ...], Partition], int] = {}


def _beta(lam: Partition) -> tuple[int, ...]:
    return tuple(p + len(lam) - 1 - i for i, p in enumerate(lam))


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation lam."""
    if not lam:
        raise ValueError("dimension of the empty partition is undefined here")
    return _beta_dimension(_beta(lam))


def _beta_dimension(beta: tuple[int, ...]) -> int:
    """n! prod_{i<j} (beta_i - beta_j) / prod_i beta_i! for decreasing beads."""
    n = sum(beta) - len(beta) * (len(beta) - 1) // 2
    num = factorial(n) * prod(b - c for i, b in enumerate(beta) for c in beta[i + 1:])
    den = prod(map(factorial, beta))
    q, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"prod beta_i! = {den} of beads {beta} does not divide {num}")
    return q


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the class of cycle type mu in the representation lam."""
    if sum(lam) != sum(mu):
        raise ValueError("representation and cycle type must have equal weight")
    return _mn(_beta(lam), mu)


def _mn(beta: tuple[int, ...], mu: Partition) -> int:
    """Removing a k-strip moves a bead b to a free slot b - k, with sign
    (-1)^(beads strictly between).  A bead at 0 is an empty row: dropping it
    and shifting the rest down by one keeps one bead tuple per partition."""
    if not mu:
        return 1
    key = (beta, mu)
    got = _mn_cache.get(key)
    if got is None:
        if all(p == 1 for p in mu):
            got = _beta_dimension(beta)
        else:
            k, rest = mu[0], mu[1:]
            got = 0
            for b in beta:
                nb = b - k
                if nb < 0 or nb in beta:
                    continue
                height = sum(1 for c in beta if nb < c < b)
                moved = sorted([c for c in beta if c != b] + [nb], reverse=True)
                while moved and not moved[-1]:
                    moved = [c - 1 for c in moved[:-1]]
                got += (-1) ** height * _mn(tuple(moved), rest)
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

"""Exact linear algebra over the rationals.

* ModularEchelon -- incremental column rank mod p in pure Python; rank mod p
  never exceeds the rational rank, so full rank mod p certifies full rank.
  Rows are packed into ints, an entry per 64-bit slot; ncols >= 2^13 or
  p >= 2^25, where a slot could carry, raise ValueError.
* FractionEchelon -- the one rational elimination: a labelled echelon over Q
  kept on fraction-free integer rows, for extraction; inconsistent rows are
  recorded, not raised, and Fractions appear only in the back-substitution.
  solve_bareiss solves a nonsingular square system on it.
* solve_exact / solve_crt -- multi-prime solving with Chinese remaindering,
  each prime's solve run on a ModularEchelon of the augmented rows, and
  accepted only after an exact integer check of every equation.

K_r needs no solve, so only extraction calls an elimination over Q; the CRT
path and solve_bareiss are kept for the tests and the benchmark's layer list.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm

from .symfunc import _numerators

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24 with the fixed bases above
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


ECHELON_PRIME = 33_554_393  # the largest prime below 2^25
_primes: list[int] = [ECHELON_PRIME]


def word_primes(count: int) -> list[int]:
    """The first `count` primes below 2^25, largest first, extended on demand."""
    n = _primes[-1]
    while len(_primes) < count:
        n -= 2
        if _is_prime(n):
            _primes.append(n)
    return _primes[:count]


class ModularEchelon:
    """Row echelon basis mod p, grown one row at a time.

    Basis row k is reduced mod p, 1 at its pivot and 0 at the earlier pivots,
    and packed into one int, column j in a 64-bit slot at bit _shift[j] (64 j
    on little-endian machines, counted from the top on big-endian ones).  A
    new row v is reduced by v += (p - a) B_k, a its slot at pivot k mod p, then
    unpacked once and reduced mod p; its first nonzero entry is its pivot.
    Each step adds under 2^50 to a slot, so below 2^13 steps none carries.
    """

    def __init__(self, ncols: int, prime: int | None = None):
        self.ncols = ncols
        self.prime = prime or ECHELON_PRIME
        if ncols >= 2**13 or self.prime >= 2**25:
            raise ValueError("ModularEchelon needs ncols < 2^13 and a prime below 2^25")
        self.pivot_cols: list[int] = []
        self._basis: list[int] = []  # packed basis rows
        self._shift = range(0, 64 * ncols, 64)[:: -1 if sys.byteorder == "big" else 1]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def add_row(self, row_ints) -> bool:
        """Reduce a row against the basis; returns True if it added a pivot."""
        p = self.prime
        v = _pack([x % p for x in row_ints])
        for c, b in zip(self.pivot_cols, self._basis):
            a = (v >> self._shift[c] & 0xFFFF_FFFF_FFFF_FFFF) % p
            if a:
                v += (p - a) * b
        reduced = [x % p for x in _unpack(v, self.ncols)]
        pivot = next((j for j, x in enumerate(reduced) if x), None)
        if pivot is None:
            return False
        inv = pow(reduced[pivot], p - 2, p)
        self._basis.append(_pack([x * inv % p for x in reduced]))
        self.pivot_cols.append(pivot)
        return True


if array("Q").itemsize != 8:
    raise ImportError("ModularEchelon needs 64-bit array('Q') items")


def _pack(entries: list[int]) -> int:
    """Entries in [0, 2^64) as one int, a 64-bit slot each in native byte order."""
    return int.from_bytes(array("Q", entries), sys.byteorder)


def _unpack(v: int, ncols: int) -> array:
    return array("Q", v.to_bytes(8 * ncols, sys.byteorder))


def solve_bareiss(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve a nonsingular square system exactly on a FractionEchelon."""
    ech = FractionEchelon(len(rows))
    for row, b in zip(rows, rhs):
        ech.add_row(row, b, None)
    x = ech.solution()
    if x is None:
        raise ValueError("matrix is singular")
    return x


def _solve_mod_p(rows, rhs, p) -> list[int] | None:
    """Solve the square system mod p on a ModularEchelon of its augmented rows.

    None when it is singular mod p: a row adds no pivot, or the rhs column
    does.  Otherwise unpacked basis row k reads x[pivot k] + sum over later
    pivots j of row[pivot j] * x[pivot j] = row[n], solved from the last
    pivot back.
    """
    n = len(rows)
    ech = ModularEchelon(n + 1, p)
    for r, b in zip(rows, rhs):
        if not ech.add_row([*r, b]):
            return None
    if n in ech.pivot_cols:
        return None
    cols = ech.pivot_cols
    x = [0] * n
    for k in range(n - 1, -1, -1):
        row = _unpack(ech._basis[k], n + 1)
        x[cols[k]] = (row[n] - sum(row[cols[j]] * x[cols[j]] for j in range(k + 1, n))) % p
    return x


def _rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Recover p/q with |p|, q <= sqrt(m/2) from a residue a mod m."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1) if t1 > 0 else Fraction(-r1, -t1)


def solve_crt(rows: list[list[int]], rhs: list[int], max_primes: int = 80) -> list[Fraction]:
    """Solve a nonsingular square integer system via several primes + CRT.

    Each prime's solution is folded into the running residue, which is
    reconstructed entry by entry and accepted only if it satisfies every
    equation exactly.  The cap of `max_primes` primes below 2^25 (a modulus
    of about 2,000 bits), or more than 8 primes singular mod p, turns
    persistent failure (a singular system) into an error.
    """
    modulus, combined = 1, [0] * len(rows)
    singular_hits = 0
    for p in word_primes(max_primes):
        sol = _solve_mod_p(rows, rhs, p)
        if sol is None:
            singular_hits += 1
            if singular_hits > 8:
                raise ValueError("matrix is singular")
            continue
        inv = pow(modulus, p - 2, p)
        combined = [c + modulus * ((s - c) * inv % p) for c, s in zip(combined, sol)]
        modulus *= p
        x = [_rational_reconstruct(c, modulus) for c in combined]
        if all(v is not None for v in x) and _verify(rows, rhs, x):
            return x  # type: ignore[return-value]
    raise ValueError("modular solve failed; system singular or result too large")


def _verify(rows, rhs, x) -> bool:
    """Exact residual check of a rational solution, in integer arithmetic.

    With den the lcm of the denominators of x, row . x == b is checked as
    row . (den * x) == den * b.
    """
    den = lcm(*(v.denominator for v in x))
    xs = [int(v * den) for v in x]
    for r, b in zip(rows, rhs):
        if sum(c * v for c, v in zip(r, xs)) != b * den:
            return False
    return True


def solve_exact(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve a nonsingular square integer system exactly, at any size.

    The modular path (solve_crt) returns a solution only after checking it
    against every input equation in integer arithmetic.  A singular system,
    or one whose solution the primes cannot pin down, raises ValueError.
    """
    return solve_crt(rows, rhs)


class FractionEchelon:
    """Incremental echelon over Q for labeled, possibly inconsistent systems.

    Rows stay fraction-free: a row and its rhs are scaled to integers over one
    denominator, reduced against each basis row in turn by cross-multiplying,
    so its entry at that row's pivot vanishes, and stored divided by the gcd
    of its entries, rhs last.  Basis row k is 0 at the earlier pivots.  Rows
    that reduce to 0 = nonzero are recorded as conflicts under their label
    instead of raising; rank-deficient systems report no solution.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []  # each with its rhs appended
        self.pivot_cols: list[int] = []
        self.conflicts: list = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, coeffs, rhs, label) -> None:
        """Add a row of ints or Fractions and its rhs."""
        _, v = _numerators([*coeffs, rhs])
        for col, basis in zip(self.pivot_cols, self.rows):
            f = v[col]
            if f:
                p = basis[col]
                g = gcd(f, p)
                f, p = f // g, p // g
                v = [p * a - f * c for a, c in zip(v, basis)]
        g = gcd(*v[:-1])
        if not g:
            if v[-1]:
                self.conflicts.append(label)
            return
        g = gcd(g, v[-1])
        self.rows.append([a // g for a in v])
        self.pivot_cols.append(next(j for j, a in enumerate(v) if a))

    def solution(self) -> list[Fraction] | None:
        """Unique solution if the pivots cover every column, else None."""
        if self.rank != self.ncols:
            return None
        x: list[Fraction] = [Fraction(0)] * self.ncols
        for col, row in zip(reversed(self.pivot_cols), reversed(self.rows)):
            # the row is 0 at earlier pivots, and later ones are resolved
            s = row[-1] - sum(c * x[j] for j, c in enumerate(row[:-1]) if c and j != col)
            x[col] = Fraction(s) / row[col]
        return x

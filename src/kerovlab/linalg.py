"""Exact linear algebra over the rationals.

* ModularEchelon -- incremental column rank mod p in pure Python; rank mod p
  never exceeds the rational rank, so full rank mod p certifies full rank.
* solve_exact / solve_crt -- multi-prime solving with Chinese remaindering,
  accepted only after an exact integer check of every equation; numpy loads
  inside _solve_mod_p only.  solve_bareiss is a fraction-free reference.
* FractionEchelon -- labelled echelon over Q for extraction; inconsistent
  rows are recorded, not raised.

K_r needs no solve, so the solvers have no program caller; the tests and the
benchmark's layer list still use them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

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


# primes just under 2^31: products of two residues stay inside int64
_primes: list[int] = [2147483647]
ECHELON_PRIME = 33_554_393  # the largest prime below 2^25


def word_primes(count: int) -> list[int]:
    """The first `count` primes below 2^31, largest first, extended on demand."""
    n = _primes[-1]
    while len(_primes) < count:
        n -= 2
        if _is_prime(n):
            _primes.append(n)
    return _primes[:count]


def clear_denominators(row) -> list[int]:
    """Scale a rational row to integers (multiply by the lcm of denominators)."""
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * scale) for f in fracs]


class ModularEchelon:
    """Row echelon basis mod p, grown one row at a time.

    Basis row k is 1 in its pivot column and 0 in the earlier ones, so a new
    row's coefficient on it is its entry there less the earlier rows' share.
    The basis is stored by column, so each reduction is one C-level dot
    product; below 2^25, sums of 2^13 products stay in a machine word.
    """

    def __init__(self, ncols: int, prime: int | None = None):
        self.ncols = ncols
        self.prime = prime or ECHELON_PRIME
        self.pivot_cols: list[int] = []
        self._pivots: list[list[int]] = []  # pivot k's column in basis rows 0..k-1
        self._free: dict[int, list[int]] = {j: [] for j in range(ncols)}

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def add_row(self, row_ints) -> bool:
        """Reduce a row against the basis; returns True if it added a pivot."""
        p = self.prime
        coeffs: list[int] = []
        for c, col in zip(self.pivot_cols, self._pivots):
            coeffs.append((row_ints[c] - sum(map(mul, coeffs, col))) % p)
        reduced = {j: (row_ints[j] - sum(map(mul, coeffs, col))) % p
                   for j, col in self._free.items()}
        pivot = next((j for j, v in reduced.items() if v), None)
        if pivot is None:
            return False
        inv = pow(reduced.pop(pivot), p - 2, p)
        self._pivots.append(self._free.pop(pivot))
        for j, v in reduced.items():
            self._free[j].append(v * inv % p)
        self.pivot_cols.append(pivot)
        return True


def solve_bareiss(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve a nonsingular square integer system by fraction-free elimination."""
    n = len(rows)
    m = [list(map(int, r)) + [int(b)] for r, b in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        piv = None
        best = None
        for i in range(k, n):
            v = m[i][k]
            if v and (best is None or abs(v) < best):
                piv, best = i, abs(v)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            ri, rk = m[i], m[k]
            for j in range(k + 1, n + 1):
                ri[j] = (pkk * ri[j] - mik * rk[j]) // prev
            ri[k] = 0
        prev = pkk
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))
        x[i] = Fraction(s, m[i][i])
    return x


def _solve_mod_p(rows, rhs, p) -> list[int] | None:
    import numpy as np  # loaded only when a modular solve runs

    n = len(rows)
    a = np.zeros((n, n + 1), dtype=np.int64)
    for i, (r, b) in enumerate(zip(rows, rhs)):
        a[i, :n] = [x % p for x in r]
        a[i, n] = b % p
    for k in range(n):
        piv = k + int(np.argmax(a[k:, k] != 0))
        if a[piv, k] == 0:
            return None  # singular mod p; caller picks another prime
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
        inv = pow(int(a[k, k]), p - 2, p)
        a[k] = (a[k] * inv) % p
        col = a[k + 1 :, k].copy()
        if col.any():
            a[k + 1 :] = (a[k + 1 :] - col[:, None] * a[k][None, :]) % p
    x = [0] * n
    for i in range(n - 1, -1, -1):
        s = int(a[i, n]) - sum(int(a[i, j]) * x[j] for j in range(i + 1, n))
        x[i] = s % p
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


def solve_crt(rows: list[list[int]], rhs: list[int], max_primes: int = 64) -> list[Fraction]:
    """Solve a nonsingular square integer system via several primes + CRT.

    Primes are added until the per-entry rational reconstruction stabilizes
    into a vector that satisfies every equation exactly; a Hadamard-type cap
    on the prime count turns persistent failure (a singular system) into an
    error.
    """
    n = len(rows)
    residues: list[list[int]] = []
    used: list[int] = []
    singular_hits = 0
    for p in word_primes(max_primes):
        sol = _solve_mod_p(rows, rhs, p)
        if sol is None:
            singular_hits += 1
            if singular_hits > 8:
                raise ValueError("matrix is singular")
            continue
        residues.append(sol)
        used.append(p)
        if len(used) < 2:
            continue
        modulus = 1
        combined = [0] * n
        for p_i, res in zip(used, residues):
            if modulus == 1:
                modulus, combined = p_i, list(res)
                continue
            inv = pow(modulus % p_i, p_i - 2, p_i)
            for j in range(n):
                diff = (res[j] - combined[j]) % p_i
                combined[j] = combined[j] + modulus * ((diff * inv) % p_i)
            modulus *= p_i
        x = [_rational_reconstruct(c, modulus) for c in combined]
        if any(v is None for v in x):
            continue
        if _verify(rows, rhs, x):
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

    The modular path (solve_crt) is faster than fraction-free elimination on
    every interpolation system here, and it returns a solution only after
    checking it against every input equation in integer arithmetic.  A
    singular system, or one whose solution the primes cannot pin down,
    raises ValueError.
    """
    return solve_crt(rows, rhs)


class FractionEchelon:
    """Incremental echelon over Q for labeled, possibly inconsistent systems.

    Rows that reduce to 0 = nonzero are recorded as conflicts under their
    label instead of raising; rank-deficient systems report no solution.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []
        self.b: list[Fraction] = []
        self.pivot_cols: list[int] = []
        self.conflicts: list = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, coeffs, rhs, label) -> None:
        row = [Fraction(c) for c in coeffs]
        val = Fraction(rhs)
        for col, basis, bb in zip(self.pivot_cols, self.rows, self.b):
            f = row[col]
            if f:
                row = [a - f * c for a, c in zip(row, basis)]
                val -= f * bb
        for col, a in enumerate(row):
            if a:
                inv = 1 / a
                self.rows.append([c * inv for c in row])
                self.b.append(val * inv)
                self.pivot_cols.append(col)
                return
        if val:
            self.conflicts.append(label)

    def solution(self) -> list[Fraction] | None:
        """Unique solution if the pivots cover every column, else None."""
        if self.rank != self.ncols:
            return None
        x: list[Fraction | None] = [None] * self.ncols
        for i in range(self.rank - 1, -1, -1):
            col = self.pivot_cols[i]
            s = self.b[i]
            for j, c in enumerate(self.rows[i]):
                if c and j != col:
                    s -= c * x[j]  # later pivots are already resolved
            x[col] = s
        return x  # type: ignore[return-value]

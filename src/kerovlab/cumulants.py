"""Young diagram -> interlacing sequences -> free cumulants, exactly.

The diagram's boundary gives interlacing integer sequences (x, y) with
center 0; the rational function G(z) = prod(z - y_i) / prod(z - x_j) expands
as a moment series at infinity, and the free cumulants are the coefficients
of its compositional inverse.  Everything is integer arithmetic: the moment
series of an integer pair has integer coefficients, and so do the cumulants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .partitions import Partition, enumerate_partitions, multiplicities


@dataclass(frozen=True)
class InterlacingPair:
    """Sequences x (length d) and y (length d-1) with x1 < y1 < x2 < ... < xd.

    The center sum(x) - sum(y) must vanish; diagrams always produce center 0.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        x, y = self.x, self.y
        if len(x) != len(y) + 1:
            raise ValueError("x must be one longer than y")
        merged = [None] * (len(x) + len(y))
        merged[::2] = x
        merged[1::2] = y
        if any(merged[i] >= merged[i + 1] for i in range(len(merged) - 1)):
            raise ValueError(f"sequences do not interlace: x={x}, y={y}")
        if sum(x) - sum(y) != 0:
            raise ValueError("center must be 0")


def diagram_to_interlacing(lam: Partition) -> InterlacingPair:
    """Interlacing pair of a nonempty partition.

    y holds the contents (column - row) of the removable corner boxes, x the
    contents of the addable corners of the complement; x runs from -l(lam)
    up to lam_1.
    """
    if not lam:
        raise ValueError("the empty diagram has no corners")
    removable = []
    addable = [lam[0] + 1 - 1]  # box (row 1, col lam_1 + 1)
    for i in range(1, len(lam) + 1):  # 1-based row index
        below = lam[i] if i < len(lam) else 0
        if lam[i - 1] > below:
            removable.append(lam[i - 1] - i)
            if i < len(lam):
                addable.append(lam[i] + 1 - (i + 1))
    addable.append(1 - (len(lam) + 1))
    return InterlacingPair(tuple(sorted(addable)), tuple(sorted(removable)))


def _moment_series(pair: InterlacingPair, order: int) -> list[int]:
    """Coefficients m_0..m_order of G(z) = sum m_j z^{-j-1}.

    With u = 1/z, G/u = prod(1 - y_i u) / prod(1 - x_j u); the denominator has
    constant term 1, so plain power-series division stays in the integers.
    """
    num = [1]
    for yy in pair.y:
        num = [num[i] - (yy * num[i - 1] if i else 0) for i in range(len(num))] + [-yy * num[-1]]
    den = [1]
    for xx in pair.x:
        den = [den[i] - (xx * den[i - 1] if i else 0) for i in range(len(den))] + [-xx * den[-1]]
    m = []
    for k in range(order + 1):
        val = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            val -= den[j] * m[k - j]
        m.append(val)
    return m


def resolvent_series(pair: InterlacingPair, order: int) -> list[Fraction]:
    """Moment coefficients (m_0=1, m_1, ..., m_order) of the resolvent."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return [Fraction(v) for v in _moment_series(pair, order)]


def _cumulants_from_moments(m: list[int]) -> list[int]:
    """Invert the moment series order by order.

    Writing the inverse as 1/w + sum R_k w^{k-1}, coefficient matching of the
    composition gives M = 1 + sum_s R_s u^s M^s, which is triangular in the
    R's: R_n = m_n - sum_{s<n} R_s [u^{n-s}] M^s.  Only degrees up to
    order - s of M^s are ever read, so each power is kept to that degree.
    """
    order = len(m) - 1
    powers = [[1]]  # M^0
    mpow = m[:order]
    for s in range(1, order):
        powers.append(mpow)
        mpow = [sum(mpow[i] * m[k - i] for i in range(k + 1)) for k in range(order - s)]
    r = [0] * (order + 1)
    for n in range(1, order + 1):
        r[n] = m[n] - sum(r[s] * powers[s][n - s] for s in range(1, n))
    return r


_cumulant_cache: dict[Partition, list[int]] = {}


def free_cumulants(lam: Partition, k_max: int) -> dict[int, Fraction]:
    """Free cumulants R_2..R_{k_max} of the diagram of lam.

    R_1 always comes out 0 for a centered pair; it is checked rather than
    returned.
    """
    if not lam:
        raise ValueError("the empty diagram has no cumulants")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    r = _cumulant_list(lam, k_max)
    return {k: Fraction(r[k]) for k in range(2, k_max + 1)}


def _cumulant_list(lam: Partition, k_max: int) -> list[int]:
    cached = _cumulant_cache.get(lam)
    if cached is None or len(cached) <= k_max:
        pair = diagram_to_interlacing(lam)
        cached = _cumulants_from_moments(_moment_series(pair, k_max))
        if cached[1] != 0:
            raise RuntimeError(f"diagram {lam} is not centered: R_1 = {cached[1]}")
        _cumulant_cache[lam] = cached
    return cached


def _script_r(mu: Partition, r: dict[int, Fraction]) -> Fraction:
    """prod_i ((i-1) R_i)^{m_i} / m_i! for a partition with parts >= 2."""
    val = Fraction(1)
    for i, m in multiplicities(mu).items():
        val *= ((i - 1) * r[i]) ** m
        val /= factorial(m)
    return val


def c_values(lam: Partition, n_max: int) -> dict[int, Fraction]:
    """C_0..C_{n_max} for this diagram: C_n = sum_{|mu|=n} l(mu)! script_R_mu."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    r = free_cumulants(lam, max(2, n_max)) if n_max >= 2 else {}
    out: dict[int, Fraction] = {}
    for n in range(n_max + 1):
        total = Fraction(0)
        for mu in enumerate_partitions(n, 2):
            total += factorial(len(mu)) * _script_r(mu, r)
        out[n] = total
    return out


def q_values(lam: Partition, n_max: int) -> dict[int, Fraction]:
    """Q_0 = 1, Q_1 = 0, and Q_n = sum_{|mu|=n} (l(mu)-1)! script_R_mu."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    r = free_cumulants(lam, max(2, n_max)) if n_max >= 2 else {}
    out: dict[int, Fraction] = {}
    for n in range(n_max + 1):
        if n == 0:
            out[n] = Fraction(1)
            continue
        total = Fraction(0)
        for mu in enumerate_partitions(n, 2):
            total += factorial(len(mu) - 1) * _script_r(mu, r)
        out[n] = total
    return out

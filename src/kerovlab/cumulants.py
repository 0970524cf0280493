"""Young diagram -> interlacing sequences -> free cumulants, exactly.

The diagram's boundary gives interlacing integer sequences (x, y) with
center 0: the contents of its addable and of its removable corners.  The
resolvent is G(z) = prod(z - y_i) / prod(z - x_j), and with u = 1/z its
moment series is M(u) = G/u = prod(1 - y_i u) / prod(1 - x_j u).  Lagrange
inversion (Biane, Characters of symmetric groups and free cumulants, LNM
1815, 2003) gives the free cumulants R_n = -(1/(n-1)) [u^n] M(u)^(1-n), read
here off the powers of the integer series P = 1/M.  Both series come from
one routine (_ratio_series).  Everything is integer arithmetic, and the
kernel works on a block of diagrams at once: each quantity is a column, one
int per diagram, so the Python-level work is paid once per block.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import comb
from operator import add, floordiv, mul, sub

from .partitions import Partition


class InterlacingPair(namedtuple("InterlacingPair", "x y")):
    """Sequences x (length d) and y (length d-1) with x1 < y1 < x2 < ... < xd.

    The center sum(x) - sum(y) must vanish; diagrams always produce center 0.
    """

    __slots__ = ()

    def __new__(cls, x: tuple[int, ...], y: tuple[int, ...]):
        if len(x) != len(y) + 1:
            raise ValueError("x must be one longer than y")
        merged = [None] * (len(x) + len(y))
        merged[::2] = x
        merged[1::2] = y
        if any(merged[i] >= merged[i + 1] for i in range(len(merged) - 1)):
            raise ValueError(f"sequences do not interlace: x={x}, y={y}")
        if sum(x) - sum(y) != 0:
            raise ValueError("center must be 0")
        return super().__new__(cls, x, y)


def _corners(lam: Partition) -> tuple[list[int], list[int]]:
    """Contents of the addable (x) and removable (y) corners of lam, unsorted.

    Row i (1-based) ends in a removable corner where it is longer than the
    row below, and the box after the end of row i + 1 is then addable; the
    box after row 1 is addable too.
    """
    x, y = [lam[0]], []
    for i, (a, b) in enumerate(zip(lam, lam[1:] + (0,)), 1):
        if a > b:
            y.append(a - i)
            x.append(b - i)
    return x, y


def diagram_to_interlacing(lam: Partition) -> InterlacingPair:
    """Interlacing pair of a nonempty partition.

    y holds the contents (column - row) of the removable corner boxes, x the
    contents of the addable corners of the complement; x runs from -l(lam)
    up to lam_1.
    """
    if not lam:
        raise ValueError("the empty diagram has no corners")
    x, y = _corners(lam)
    return InterlacingPair(tuple(sorted(x)), tuple(sorted(y)))


def _ratio_series(tops: list[list[int]], bottoms: list[list[int]], order: int,
                  width: int) -> list[list[int]]:
    """Columns c_0..c_order of prod_t (1 - t u) / prod_b (1 - b u) over a block
    of width diagrams: tops and bottoms hold one column per factor, one int
    per diagram, and a 0 entry is the factor 1.  Each 1 - b u has constant
    term 1, so the division stays in the integers."""
    c = [[1] * width] + [[0] * width] * order
    for d, t in enumerate(tops, 1):  # the product so far has degree d - 1
        for i in range(min(d, order), 0, -1):
            c[i] = list(map(sub, c[i], map(mul, t, c[i - 1])))
    for b in bottoms:
        for i in range(1, order + 1):
            c[i] = list(map(add, c[i], map(mul, b, c[i - 1])))
    return c


def resolvent_series(pair: InterlacingPair, order: int) -> list[Fraction]:
    """Moment coefficients (m_0=1, m_1, ..., m_order) of the resolvent
    G(z) = sum m_j z^{-j-1}, from G/u = prod(1 - y_i u) / prod(1 - x_j u)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    m = _ratio_series([[v] for v in pair.y], [[v] for v in pair.x], order, 1)
    return [Fraction(col[0]) for col in m]


def _columns(seqs: list[list[int]]) -> list[list[int]]:
    """The sequences zero-padded to one length, as columns: entry i of
    column t is seqs[i][t].  A padding 0 is a factor 1 - 0u = 1 of M and 1/M."""
    width = max(map(len, seqs))
    return list(map(list, zip(*(s + [0] * (width - len(s)) for s in seqs))))


def _cumulant_list(lams: list[Partition], k_max: int) -> list[list[int]]:
    """Columns R_0..R_{k_max} of the free cumulants of a block of diagrams:
    column k holds R_k of each diagram, in the order of lams.

    P = 1/M = prod_j (1 - x_j u) / prod_i (1 - y_i u) = 1 + sum_i p_i u^i, so
    M^(1-n) = P^(n-1) = sum_j C(n-1, j) (P - 1)^j and
    R_n = -(1/(n-1)) sum_j C(n-1, j) T_{n,j}, an exact division, where
    T_{n,j} = [u^n] (P - 1)^j has T_{n,1} = p_n and
    T_{n,j} = sum_{i>=2} p_i T_{n-i,j-1}.  R_1 = -p_1 is the center; it must
    vanish, and then T_{n,j} = 0 unless n >= 2j.
    """
    if not lams:
        return [[] for _ in range(k_max + 1)]
    xs, ys = zip(*map(_corners, lams))
    p = _ratio_series(_columns(xs), _columns(ys), k_max, len(lams))
    if any(p[1]):
        i = next(i for i, v in enumerate(p[1]) if v)
        raise RuntimeError(f"diagram {lams[i]} is not centered: R_1 = {-p[1][i]}")
    zero = [0] * len(lams)
    t: dict[tuple[int, int], list[int]] = {}
    cols = [zero, zero]
    for n in range(2, k_max + 1):
        t[n, 1] = p[n]
        terms = [map(mul, p[n], repeat(n - 1))]  # the j-th holds C(n-1, j) T_{n,j}
        for j in range(2, n // 2 + 1):
            col = t[n, j] = list(map(sum, zip(*[map(mul, p[i], t[n - i, j - 1])
                                                for i in range(2, n - 2 * j + 3)])))
            terms.append(map(mul, col, repeat(comb(n - 1, j))))
        cols.append(list(map(floordiv, map(sum, zip(*terms)), repeat(1 - n))))
    return cols


_cumulant_cache: dict[Partition, list[int]] = {}


def free_cumulants(lam: Partition, k_max: int) -> dict[int, Fraction]:
    """Free cumulants R_2..R_{k_max} of the diagram of lam, a block of one.

    R_1 always comes out 0 for a centered pair; it is checked rather than
    returned.
    """
    if not lam:
        raise ValueError("the empty diagram has no cumulants")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    r = _cumulant_cache.get(lam)
    if r is None or len(r) <= k_max:
        r = _cumulant_cache[lam] = [col[0] for col in _cumulant_list([lam], k_max)]
    return {k: Fraction(r[k]) for k in range(2, k_max + 1)}


def _c_series(lam: Partition, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """C_0..C_{n_max} and the (i-1) R_i, from C(z) = 1/(1 - X(z)) with
    X(z) = sum_i (i-1) R_i z^i: C_n = sum_i (i-1) R_i C_{n-i}."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    r = free_cumulants(lam, max(2, n_max)) if n_max >= 2 else {}
    x = [Fraction(0)] * 2 + [(i - 1) * r[i] for i in range(2, n_max + 1)]
    c = [Fraction(1)]
    for n in range(1, n_max + 1):
        c.append(sum((x[i] * c[n - i] for i in range(2, n + 1)), Fraction(0)))
    return c, x


def c_values(lam: Partition, n_max: int) -> dict[int, Fraction]:
    """C_0..C_{n_max} for this diagram: C_n = sum_{|mu|=n} l(mu)! script_R_mu."""
    return dict(enumerate(_c_series(lam, n_max)[0]))


def q_values(lam: Partition, n_max: int) -> dict[int, Fraction]:
    """Q_0 = 1, Q_1 = 0, and Q_n = sum_{|mu|=n} (l(mu)-1)! script_R_mu.

    Q(z) = -log(1 - X(z)), so Q' = X' C and n Q_n = sum_i i x_i C_{n-i}.
    """
    c, x = _c_series(lam, n_max)
    q = {0: Fraction(1)}
    for n in range(1, n_max + 1):
        q[n] = sum((i * x[i] * c[n - i] for i in range(2, n + 1)), Fraction(0)) / n
    return q

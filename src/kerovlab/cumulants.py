"""Young diagram -> interlacing sequences -> free cumulants, exactly.

The diagram's boundary gives interlacing integer sequences (x, y) with
center 0: the contents of its addable and of its removable corners.  For
G(z) = prod(z - y_i) / prod(z - x_j), log(z G(z)) = sum_k L_k z^-k / k with
L_k = p_k(x) - p_k(y), and Lagrange inversion (Biane, Characters of
symmetric groups and free cumulants, LNM 1815, 2003) gives the free
cumulants from these corner power sums: R_n = -(1/(n-1)) [u^n] M(u)^(1-n)
for the moment series M(u) = exp(sum_k L_k u^k / k).  Everything is integer
arithmetic, and the kernel works on a block of diagrams at once: each
quantity is a column, one int per diagram, so the Python-level work is paid
once per block.  The moment series itself (_moment_series) now serves only
resolvent_series.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import comb, factorial
from operator import floordiv, mul, sub

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


def _columns(seqs: list[list[int]]) -> list[list[int]]:
    """The sequences zero-padded to one length, as columns: entry i of
    column t is seqs[i][t].  Zeros leave every power sum p_k, k >= 1, as it is."""
    width = max(map(len, seqs))
    return list(map(list, zip(*(s + [0] * (width - len(s)) for s in seqs))))


def _cumulant_list(lams: list[Partition], k_max: int) -> list[list[int]]:
    """Columns R_0..R_{k_max} of the free cumulants of a block of diagrams:
    column k holds R_k of each diagram, in the order of lams.

    With a_k = (k-1)! L_k, h_{n,j} = n! [u^n] l(u)^j / j! for
    l(u) = sum_k L_k u^k / k satisfies h_{0,0} = 1 and
    h_{n,j} = (1/j) sum_k C(n,k) a_k h_{n-k,j-1}, and expanding
    M^(1-n) = exp((1-n) l) gives
    R_n = (1/n!) sum_j (-1)^(j+1) (n-1)^(j-1) h_{n,j}; both divisions are
    exact.  R_1 = L_1 is the center; it must vanish, and then every a_1 term
    drops out, so h_{n,j} = 0 unless n >= 2j.
    """
    if not lams:
        return [[] for _ in range(k_max + 1)]
    xs, ys = zip(*map(_corners, lams))
    xs, ys = _columns(xs), _columns(ys)
    px, py = xs, ys  # columns of x^k and y^k, corner by corner
    power_sums = [None]  # L_1, L_2, ... from index 1
    for k in range(1, k_max + 1):
        if k > 1:
            px = [list(map(mul, p, c)) for p, c in zip(px, xs)]
            py = [list(map(mul, p, c)) for p, c in zip(py, ys)]
        power_sums.append(list(map(sub, map(sum, zip(*px)), map(sum, zip(*py)))))
    centers = power_sums[1]
    if any(centers):
        i = next(i for i, v in enumerate(centers) if v)
        raise RuntimeError(f"diagram {lams[i]} is not centered: R_1 = {centers[i]}")
    zero = [0] * len(lams)
    a = [None, None] + [list(map(mul, power_sums[k], repeat(factorial(k - 1))))
                        for k in range(2, k_max + 1)]
    h: dict[tuple[int, int], list[int]] = {}
    cols = [zero, zero]
    for n in range(2, k_max + 1):
        scaled = [None, None] + [list(map(mul, a[k], repeat(comb(n, k)))) for k in range(2, n - 1)]
        terms = [a[n]]  # the j-th holds (-1)^(j+1) (n-1)^(j-1) h_{n,j}
        h[n, 1] = a[n]
        for j in range(2, n // 2 + 1):
            col = map(sum, zip(*[map(mul, scaled[k], h[n - k, j - 1])
                                 for k in range(2, n - 2 * j + 3)]))
            col = h[n, j] = list(map(floordiv, col, repeat(j)))
            terms.append(map(mul, col, repeat((-1) ** (j + 1) * (n - 1) ** (j - 1))))
        cols.append(list(map(floordiv, map(sum, zip(*terms)), repeat(factorial(n)))))
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

import random
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import comb, factorial
from operator import floordiv, mul, sub

import pytest

import kerovlab.cumulants as cumulants
from kerovlab.cumulants import c_values, free_cumulants, q_values
from kerovlab.partitions import conjugate, enumerate_partitions, partition_count, unrank_partition

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


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


def diagram_to_interlacing(lam):
    """Interlacing pair of a nonempty partition, from the kernel's corners.

    y holds the contents (column - row) of the removable corner boxes, x the
    contents of the addable corners of the complement; x runs from -l(lam)
    up to lam_1.
    """
    if not lam:
        raise ValueError("the empty diagram has no corners")
    x, y = cumulants._corners(lam)
    return InterlacingPair(tuple(sorted(x)), tuple(sorted(y)))


def resolvent_series(pair, order):
    """Moment coefficients (m_0=1, m_1, ..., m_order) of the resolvent
    G(z) = sum m_j z^{-j-1}, from G/u = prod(1 - y_i u) / prod(1 - x_j u):
    times each 1 - y u, then divided by each 1 - x u."""
    if order < 1:
        raise ValueError("order must be >= 1")
    m = [Fraction(1)] + [Fraction(0)] * order
    for y in pair.y:
        m = [m[0]] + [a - y * b for a, b in zip(m[1:], m)]
    for x in pair.x:
        for i in range(1, order + 1):
            m[i] += x * m[i - 1]
    return m


def transition_moments(pair, order):
    """Moments via partial fractions: G has simple poles at the x_i with
    residues prod(x_i - y_j) / prod_{j != i}(x_i - x_j), so m_k = sum w_i x_i^k."""
    weights = []
    for i, xi in enumerate(pair.x):
        num = Fraction(1)
        for yj in pair.y:
            num *= xi - yj
        den = Fraction(1)
        for j, xj in enumerate(pair.x):
            if j != i:
                den *= xi - xj
        weights.append(num / den)
    return [sum(w * x**k for w, x in zip(weights, pair.x)) for k in range(order + 1)]


def full_order_cumulants(m):
    """Moment-to-cumulant inversion keeping every power M^s to full order."""
    order = len(m) - 1
    powers = [[1] + [0] * order]
    mpow = list(m)
    for _ in range(order):
        powers.append(mpow)
        mpow = [sum(mpow[i] * m[k - i] for i in range(k + 1)) for k in range(order + 1)]
    r = [0] * (order + 1)
    for n in range(1, order + 1):
        r[n] = m[n] - sum(r[s] * powers[s][n - s] for s in range(1, n))
    return r


def egf_cumulant_list(lams, k_max):
    """The block kernel by the exponential route, kept as the reference: from
    the corner power sums L_k = p_k(x) - p_k(y), a_k = (k-1)! L_k and
    h_{n,j} = n! [u^n] l(u)^j / j! for l(u) = sum_k L_k u^k / k satisfy
    h_{n,j} = (1/j) sum_k C(n,k) a_k h_{n-k,j-1}, and expanding
    M^(1-n) = exp((1-n) l) gives R_n = (1/n!) sum_j (-1)^(j+1) (n-1)^(j-1) h_{n,j}.
    Centered diagrams only (L_1 = 0)."""
    xs, ys = zip(*map(cumulants._corners, lams))
    xs, ys = cumulants._columns(xs), cumulants._columns(ys)
    px, py = xs, ys
    power_sums = [None]
    for k in range(1, k_max + 1):
        if k > 1:
            px = [list(map(mul, p, c)) for p, c in zip(px, xs)]
            py = [list(map(mul, p, c)) for p, c in zip(py, ys)]
        power_sums.append(list(map(sub, map(sum, zip(*px)), map(sum, zip(*py)))))
    assert not any(power_sums[1])
    zero = [0] * len(lams)
    a = [None, None] + [list(map(mul, power_sums[k], repeat(factorial(k - 1))))
                        for k in range(2, k_max + 1)]
    h = {}
    cols = [zero, zero]
    for n in range(2, k_max + 1):
        scaled = [None, None] + [list(map(mul, a[k], repeat(comb(n, k)))) for k in range(2, n - 1)]
        terms = [a[n]]
        h[n, 1] = a[n]
        for j in range(2, n // 2 + 1):
            col = map(sum, zip(*[map(mul, scaled[k], h[n - k, j - 1])
                                 for k in range(2, n - 2 * j + 3)]))
            col = h[n, j] = list(map(floordiv, col, repeat(j)))
            terms.append(map(mul, col, repeat((-1) ** (j + 1) * (n - 1) ** (j - 1))))
        cols.append(list(map(floordiv, map(sum, zip(*terms)), repeat(factorial(n)))))
    return cols


def set_partitions(n):
    """All set partitions of {0..n-1} by assigning each element to a block."""
    parts = [[]]
    for x in range(n):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([b + [x] if j == i else b for j, b in enumerate(p)])
            nxt.append(p + [[x]])
        parts = nxt
    return parts


def is_noncrossing(blocks):
    owner = {}
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    items = sorted(owner)
    for a in items:
        for b in items:
            for c in items:
                for d in items:
                    if a < b < c < d and owner[a] == owner[c] != owner[b] == owner[d]:
                        return False
    return True


def noncrossing_partitions(n):
    return [p for p in set_partitions(n) if is_noncrossing(p)]


def nc_moment(n, r):
    """Free moment-cumulant relation m_n = sum over non-crossing partitions
    of prod R_{|block|}."""
    total = Fraction(0)
    for p in noncrossing_partitions(n):
        prod = Fraction(1)
        for block in p:
            prod *= r.get(len(block), 0) if len(block) != 1 else r.get(1, 0)
        total += prod
    return total


def random_partition(rng, max_weight):
    n = rng.randint(1, max_weight)
    parts = []
    while n > 0:
        p = rng.randint(1, n)
        parts.append(p)
        n -= p
    return tuple(sorted(parts, reverse=True))


# ---------------------------------------------------------------------------
# interlacing pairs
# ---------------------------------------------------------------------------


def test_diagram_to_interlacing_examples():
    p = diagram_to_interlacing((1,))
    assert p.x == (-1, 1) and p.y == (0,)
    p = diagram_to_interlacing((2, 1))
    assert p.x == (-2, 0, 2) and p.y == (-1, 1)
    p = diagram_to_interlacing((3, 1))
    assert p.x == (-2, 0, 3) and p.y == (-1, 2)


def test_interlacing_endpoints_and_center():
    rng = random.Random(314)
    for _ in range(500):
        lam = random_partition(rng, 30)
        pair = diagram_to_interlacing(lam)
        assert pair.x[0] == -len(lam)
        assert pair.x[-1] == lam[0]
        merged = []
        for a, b in zip(pair.x, pair.y + (None,)):
            merged.append(a)
            if b is not None:
                merged.append(b)
        assert all(merged[i] < merged[i + 1] for i in range(len(merged) - 1))
        assert sum(pair.x) - sum(pair.y) == 0


def test_empty_diagram_rejected():
    with pytest.raises(ValueError):
        diagram_to_interlacing(())


def test_interlacing_pair_validation():
    with pytest.raises(ValueError):
        InterlacingPair((0, 2), (3,))  # not interlacing
    with pytest.raises(ValueError):
        InterlacingPair((-1, 2), (0,))  # center 1
    with pytest.raises(ValueError):
        InterlacingPair((-1, 0, 1), (0,))  # length mismatch


# ---------------------------------------------------------------------------
# resolvent series
# ---------------------------------------------------------------------------


def test_resolvent_series_examples():
    # one box: G = z/(z^2-1) = u + u^3 + u^5 + ...; partial fractions put
    # weight 1/2 at the two poles, so every even moment equals 1
    assert resolvent_series(diagram_to_interlacing((1,)), 4) == [1, 0, 1, 0, 1]
    assert resolvent_series(diagram_to_interlacing((2, 1)), 3) == [1, 0, 3, 0]
    assert resolvent_series(diagram_to_interlacing((2,)), 3) == [1, 0, 2, 2]


def test_resolvent_matches_partial_fractions():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            pair = diagram_to_interlacing(lam)
            assert resolvent_series(pair, 8) == transition_moments(pair, 8)


def test_resolvent_order_validation():
    with pytest.raises(ValueError):
        resolvent_series(diagram_to_interlacing((1,)), 0)


# ---------------------------------------------------------------------------
# free cumulants
# ---------------------------------------------------------------------------


def test_free_cumulants_examples():
    assert free_cumulants((1,), 4) == {2: 1, 3: 0, 4: -1}
    assert free_cumulants((2,), 3) == {2: 2, 3: 2}
    assert free_cumulants((2, 1), 4) == {2: 3, 3: 0, 4: -6}


def test_noncrossing_enumeration_is_catalan():
    assert [len(noncrossing_partitions(n)) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_moment_cumulant_noncrossing_relation():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            pair = diagram_to_interlacing(lam)
            moments = resolvent_series(pair, 6)
            r = dict(free_cumulants(lam, 6))
            r[1] = Fraction(0)
            for k in range(1, 7):
                assert nc_moment(k, r) == moments[k], (lam, k)


def test_inverse_composes_back_to_identity():
    # substitute u(w) = w / (1 + sum R_k w^k) into u * M(u) and check = w
    order = 8
    for lam in [(3, 1), (2, 2, 1), (5,), (4, 3, 1)]:
        m = resolvent_series(diagram_to_interlacing(lam), order)
        r = free_cumulants(lam, order)
        s = [Fraction(1)] + [Fraction(0)] + [r[k] for k in range(2, order + 1)]
        # invert s as a power series
        inv = [Fraction(1)] + [Fraction(0)] * order
        for k in range(1, order + 1):
            inv[k] = -sum(s[j] * inv[k - j] for j in range(1, k + 1))
        u = [Fraction(0)] + inv[:-1]  # u(w) = w * inv(w)
        # compose G = u * M(u), truncated
        powers = [[Fraction(1)] + [Fraction(0)] * order]
        for _ in range(order):
            prev = powers[-1]
            powers.append(
                [sum(prev[i] * u[k - i] for i in range(k + 1)) for k in range(order + 1)]
            )
        g = [Fraction(0)] * (order + 1)
        for j, mj in enumerate(m):
            for k in range(order + 1):
                g[k] += mj * powers[j + 1][k] if j + 1 <= order else 0
        assert g[1] == 1 and all(g[k] == 0 for k in range(2, order + 1) if k != 1), lam


def test_truncated_inversion_matches_full_order():
    # one block per weight mixes diagrams with different corner counts, so the
    # zero padding is exercised; blocks of one are the free_cumulants path
    for n in range(1, 15):
        lams = enumerate_partitions(n)
        moments = [resolvent_series(diagram_to_interlacing(lam), 20) for lam in lams]
        want = [full_order_cumulants(list(map(int, m))) for m in moments]
        for order in range(2, 21):
            cols = cumulants._cumulant_list(lams, order)
            assert len(cols) == order + 1, (n, order)
            assert [list(row) for row in zip(*cols)] == [w[: order + 1] for w in want], (n, order)
        for lam, w in zip(lams, want):
            for order in (2, 20):
                assert [col[0] for col in cumulants._cumulant_list([lam], order)] == w[: order + 1]


def test_block_kernel_matches_egf_reference():
    # seeded blocks at certificate size (weights 16..40, k_max 17..41), drawn
    # uniformly by rank; each block mixes corner counts, so the zero padding
    # is exercised, and its first diagrams also go through as blocks of one
    rng = random.Random(2454)
    for _ in range(12):
        k_max = rng.randint(17, 41)
        weights = [rng.randint(16, 40) for _ in range(rng.randint(2, 30))]
        lams = [unrank_partition(n, rng.randrange(partition_count(n))) for n in weights]
        lams.append((1,) * rng.randint(16, 40))
        assert len({len(cumulants._corners(lam)[1]) for lam in lams}) > 1
        want = egf_cumulant_list(lams, k_max)
        assert cumulants._cumulant_list(lams, k_max) == want, k_max
        for i, lam in enumerate(lams[:3]):
            assert cumulants._cumulant_list([lam], k_max) == [[col[i]] for col in want]
            assert free_cumulants(lam, k_max) == {k: want[k][i] for k in range(2, k_max + 1)}
    # k_max below the number of corners truncates the product of the x factors
    lams = [(8, 7, 6, 5, 4, 3, 2, 1), (12, 10, 8, 6, 4, 2), (5, 4, 3, 2, 1), (9,)]
    for k_max in range(2, 10):
        assert cumulants._cumulant_list(lams, k_max) == egf_cumulant_list(lams, k_max), k_max


def test_uncentered_cumulants_are_an_error(monkeypatch):
    # corners with center 1 give R_1 = 1; the block names the diagram that has it
    real_corners = cumulants._corners
    monkeypatch.setattr(cumulants, "_cumulant_cache", {})
    monkeypatch.setattr(
        cumulants, "_corners", lambda lam: ([-1, 2], [0]) if lam == (3, 1) else real_corners(lam)
    )
    with pytest.raises(RuntimeError, match=r"\(3, 1\) is not centered: R_1 = 1"):
        cumulants._cumulant_list([(2, 2), (3, 1), (4,)], 4)
    with pytest.raises(RuntimeError, match="R_1"):
        free_cumulants((3, 1), 4)
    assert free_cumulants((2, 2), 4) == {2: 4, 3: 0, 4: -16}


def test_r2_is_weight_and_conjugation_sign():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            r = free_cumulants(lam, 10)
            assert r[2] == n
            rc = free_cumulants(conjugate(lam), 10)
            for k in range(2, 11):
                assert rc[k] == (-1) ** k * r[k]
    for n in (13, 14):
        for lam in enumerate_partitions(n):
            assert free_cumulants(lam, 2)[2] == n


def test_validation():
    with pytest.raises(ValueError):
        free_cumulants((), 4)
    with pytest.raises(ValueError):
        free_cumulants((2,), 1)


# ---------------------------------------------------------------------------
# numeric C and Q values
# ---------------------------------------------------------------------------


def test_c_values_examples():
    assert c_values((1,), 2)[2] == 1
    cv = c_values((2, 1), 4)
    assert cv[0] == 1 and cv[1] == 0 and cv[4] == -9
    for lam in [(1,), (3, 2), (2, 2, 2)]:
        assert c_values(lam, 1)[1] == 0


def test_q_values_examples():
    qv = q_values((2,), 3)
    assert qv[2] == 2 and qv[3] == 4
    assert q_values((4, 1), 1) == {0: 1, 1: 0}
    assert q_values((2, 1), 4)[4] == Fraction(-27, 2)


def test_c_q_values_match_partition_sums():
    # the defining sums C_n = sum l(mu)! script_R_mu and Q_n = sum (l(mu)-1)!
    # script_R_mu over |mu| = n with parts >= 2, script_R_mu = prod ((i-1) R_i)^m_i / m_i!
    for n_lam in range(1, 9):
        for lam in enumerate_partitions(n_lam):
            r = free_cumulants(lam, 9)
            cv, qv = c_values(lam, 9), q_values(lam, 9)
            for n in range(2, 10):
                want_c = want_q = Fraction(0)
                for mu in enumerate_partitions(n, 2):
                    script = Fraction(1)
                    for i in set(mu):
                        m = mu.count(i)
                        script *= ((i - 1) * r[i]) ** m / factorial(m)
                    want_c += factorial(len(mu)) * script
                    want_q += factorial(len(mu) - 1) * script
                assert (cv[n], qv[n]) == (want_c, want_q), (lam, n)


def test_c_values_match_generating_series():
    # C(z) = (1 - sum (i-1) R_i z^i)^(-1) expanded directly
    order = 8
    for lam in [(3, 1), (2, 2), (4, 2, 1)]:
        r = free_cumulants(lam, order)
        denom = [Fraction(1)] + [Fraction(0)] * order
        for i in range(2, order + 1):
            denom[i] = -(i - 1) * r[i]
        series = [Fraction(1)] + [Fraction(0)] * order
        for k in range(1, order + 1):
            series[k] = -sum(denom[j] * series[k - j] for j in range(1, k + 1))
        cv = c_values(lam, order)
        assert [cv[k] for k in range(order + 1)] == series

import os
import random
from operator import mul
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kerovlab.linalg import (
    ECHELON_PRIME,
    FractionEchelon,
    ModularEchelon,
    _is_prime,
    _rational_reconstruct,
    _solve_mod_p,
    solve_bareiss,
    solve_crt,
    solve_exact,
    word_primes,
)
from kerovlab.partitions import enumerate_partitions
from kerovlab.symfunc import monomial_value


def fraction_ge_solve(rows, rhs):
    """Plain Gaussian elimination over Fraction, as reference."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


def fraction_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank, ncols = 0, len(rows[0])
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_system(rng, n, lo=-50, hi=50):
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if fraction_rank(rows) == n:
            return rows, [rng.randint(lo, hi) for _ in range(n)]


def test_solvers_agree_with_fraction_ge():
    rng = random.Random(11)
    for n in (1, 2, 3, 5, 8, 12):
        rows, rhs = random_system(rng, n)
        want = fraction_ge_solve(rows, rhs)
        assert solve_bareiss(rows, rhs) == want
        assert solve_crt(rows, rhs) == want
        assert solve_exact(rows, rhs) == want


def test_solvers_with_huge_entries():
    rng = random.Random(23)
    rows = [[rng.randint(-(10**18), 10**18) for _ in range(6)] for _ in range(6)]
    rhs = [rng.randint(-(10**18), 10**18) for _ in range(6)]
    want = fraction_ge_solve(rows, rhs)
    assert solve_bareiss(rows, rhs) == want
    assert solve_crt(rows, rhs) == want


def test_singular_mod_p_retries_on_the_next_prime():
    # det = ECHELON_PRIME: singular mod the first prime, nonsingular over Q
    rows, rhs = [[1, 2, 0], [3, 6 + ECHELON_PRIME, 0], [0, 5, 1]], [1, 1, -4]
    assert _solve_mod_p(rows, rhs, ECHELON_PRIME) is None
    assert word_primes(1) == [ECHELON_PRIME]
    assert solve_crt(rows, rhs) == fraction_ge_solve(rows, rhs)


def test_solve_mod_p_inconsistent_or_dependent_rows_give_none():
    p = ECHELON_PRIME
    assert _solve_mod_p([[1, 1], [2, 2]], [1, 3], p) is None  # rhs column pivots
    assert _solve_mod_p([[1, 1], [2, 2]], [1, 2 + p], p) is None  # row adds no pivot
    assert _solve_mod_p([[1, 1], [1, -1]], [3, 1], p) == [2, 1]


def test_singular_matrix_raises():
    rows = [[1, 2], [2, 4]]
    with pytest.raises(ValueError):
        solve_bareiss(rows, [1, 2])
    with pytest.raises(ValueError):
        solve_crt(rows, [1, 2])


def test_rational_reconstruct():
    m = 10**18 + 9
    for num, den in [(3, 7), (-22, 5), (10**6, 10**6 + 3), (0, 1)]:
        residue = (num * pow(den, -1, m)) % m
        assert _rational_reconstruct(residue, m) == Fraction(num, den)




def test_modular_echelon_rank_matches_exact_rank():
    rng = random.Random(5)
    for _ in range(8):
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 6)
        rank_target = rng.randint(1, min(nrows, ncols))
        basis = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rank_target)]
        rows = []
        for _ in range(nrows):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ncols)])
        ech = ModularEchelon(ncols)
        for row in rows:
            ech.add_row(row)
        assert ech.rank == fraction_rank(rows)


def test_modular_echelon_matches_rational_echelon_pivots():
    # large entries, dependent rows and zero columns; the pivot columns are
    # those of elimination over Q, taking each row's first free nonzero column
    rng = random.Random(7)
    for _ in range(6):
        ncols, rank_target = rng.randint(10, 30), rng.randint(3, 12)
        basis = [[rng.randint(-(10**30), 10**30) * rng.randint(0, 1) for _ in range(ncols)]
                 for _ in range(rank_target)]
        rows = []
        for _ in range(2 * rank_target):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ncols)])
        ech, want, reduced = ModularEchelon(ncols), [], []
        for row in rows:
            x = [Fraction(v) for v in row]
            for col, b in zip(want, reduced):
                x = [a - x[col] * c for a, c in zip(x, b)]
            col = next((j for j, v in enumerate(x) if v and j not in want), None)
            assert ech.add_row(row) == (col is not None)
            if col is not None:
                reduced = [[a - b[col] / x[col] * c for a, c in zip(b, x)] for b in reduced]
                reduced.append([v / x[col] for v in x])
                want.append(col)
        assert ech.pivot_cols == want and ech.rank == fraction_rank(rows)


class ColumnEchelon:
    """The column-stored echelon the packed one replaced, kept as reference:
    basis row k is 1 in its pivot column and 0 in the earlier ones, and a new
    row's coefficient on it is its entry there less the earlier rows' share."""

    def __init__(self, ncols, prime=ECHELON_PRIME):
        self.prime, self.pivot_cols, self._pivots = prime, [], []
        self._free = {j: [] for j in range(ncols)}

    @property
    def rank(self):
        return len(self.pivot_cols)

    def add_row(self, row_ints):
        p = self.prime
        coeffs = []
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


def seeded_rows(rng, ncols, nrows, rank, p):
    """Rows spanning at most `rank` dimensions, with entries >= p, negative and
    huge entries, all-zero columns and repeated rows."""
    pick = [lambda: rng.randint(-9, 9), lambda: p + rng.randint(0, 3 * p),
            lambda: -rng.randint(1, 10**30), lambda: p - 1, lambda: 0]
    dead = set(rng.sample(range(ncols), ncols // 5))
    basis = [[0 if j in dead else rng.choice(pick)() for j in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.2:
            rows.append(list(rng.choice(rows)))
        else:  # a combination of up to three basis rows
            terms = [(rng.randint(-2, 2), b) for b in rng.sample(basis, min(3, rank))]
            rows.append([sum(c * b[j] for c, b in terms) for j in range(ncols)])
    return rows


def test_packed_echelon_matches_the_column_stored_reference():
    rng = random.Random(23)
    for ncols in (1, 2, 3, 7, 40, 200):
        for p in (ECHELON_PRIME, 101, 2)[: 1 if ncols > 40 else 3]:
            for rank in {1, max(1, ncols // 2), ncols}:
                rows = seeded_rows(rng, ncols, 2 * rank + 3, rank, p)
                packed, ref = ModularEchelon(ncols, p), ColumnEchelon(ncols, p)
                got = [packed.add_row(row) for row in rows]
                assert got == [ref.add_row(row) for row in rows], (ncols, p, rank)
                assert (packed.rank, packed.pivot_cols) == (ref.rank, ref.pivot_cols)


def test_packed_echelon_slots_at_the_bound_do_not_carry():
    # p - 1 everywhere in a full-rank basis maximizes what each step adds
    p, n = ECHELON_PRIME, 200
    rows = [[p - 1 if j >= i else p - 1 - i for j in range(n)] for i in range(n)] + [[p - 1] * n]
    packed, ref = ModularEchelon(n), ColumnEchelon(n)
    assert [packed.add_row(r) for r in rows] == [ref.add_row(r) for r in rows]
    assert packed.pivot_cols == ref.pivot_cols


def test_packed_echelon_rejects_sizes_where_slots_could_carry():
    with pytest.raises(ValueError):
        ModularEchelon(2**13)
    with pytest.raises(ValueError):
        ModularEchelon(4, 2**25 + 1)
    assert ModularEchelon(2**13 - 1).rank == 0


def test_echelon_prime_is_the_largest_below_2_25():
    assert _is_prime(ECHELON_PRIME) and ECHELON_PRIME < 2**25
    assert not any(_is_prime(n) for n in range(ECHELON_PRIME + 1, 2**25))


def test_modular_echelon_tracks_pivot_rows():
    ech = ModularEchelon(2)
    assert ech.add_row([1, 1]) is True
    assert ech.add_row([2, 2]) is False
    assert ech.add_row([0, 5]) is True
    assert ech.rank == 2


def test_fraction_echelon_unique_solution():
    ech = FractionEchelon(2)
    ech.add_row([1, 1], 3, "a")
    ech.add_row([1, -1], 1, "b")
    ech.add_row([2, 0], 4, "c")  # redundant but consistent
    assert ech.rank == 2 and not ech.conflicts
    assert ech.solution() == [Fraction(2), Fraction(1)]


def test_fraction_echelon_reports_conflicts_with_labels():
    ech = FractionEchelon(2)
    ech.add_row([1, 1], 3, "a")
    ech.add_row([2, 2], 7, "bad")
    assert ech.conflicts == ["bad"]
    assert ech.solution() is None  # rank 1 < 2


def test_fraction_echelon_rank_deficient_without_conflict():
    ech = FractionEchelon(3)
    ech.add_row([1, 0, 1], 1, "a")
    ech.add_row([0, 1, 1], 1, "b")
    assert ech.rank == 2 and not ech.conflicts
    assert ech.solution() is None


class FractionReference:
    """The Fraction-based echelon the fraction-free one replaced, kept as
    reference: each basis row is scaled to 1 at its pivot, and a new row is
    reduced by subtracting multiples of the basis rows in Fractions."""

    def __init__(self, ncols):
        self.ncols, self.rows, self.b, self.pivot_cols, self.conflicts = ncols, [], [], [], []

    @property
    def rank(self):
        return len(self.rows)

    def add_row(self, coeffs, rhs, label):
        row, val = [Fraction(c) for c in coeffs], Fraction(rhs)
        for col, basis, bb in zip(self.pivot_cols, self.rows, self.b):
            f = row[col]
            if f:
                row = [a - f * c for a, c in zip(row, basis)]
                val -= f * bb
        for col, a in enumerate(row):
            if a:
                self.rows.append([c / a for c in row])
                self.b.append(val / a)
                self.pivot_cols.append(col)
                return
        if val:
            self.conflicts.append(label)

    def solution(self):
        if self.rank != self.ncols:
            return None
        x = [None] * self.ncols
        for i in range(self.rank - 1, -1, -1):
            s = self.b[i]
            for j, c in enumerate(self.rows[i]):
                if c and j != self.pivot_cols[i]:
                    s -= c * x[j]
            x[self.pivot_cols[i]] = s
        return x


def seeded_labeled_system(rng):
    """Rows of rank at most `rank` with int or Fraction entries, repeated and
    all-zero rows, and a rhs that is consistent, perturbed or random."""
    ncols, rank = rng.randint(1, 7), rng.randint(0, 7)
    entry = rng.choice([lambda: rng.randint(-9, 9), lambda: rng.randint(-(10**12), 10**12),
                        lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 12))])
    basis = [[entry() * rng.randint(0, 1) for _ in range(ncols)] for _ in range(rank)]
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ncols)]
    rows = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * ncols
        elif kind < 0.2 and rows:
            row = list(rng.choice(rows)[0])
        elif basis:
            terms = [(rng.randint(-3, 3), b) for b in rng.sample(basis, min(3, rank))]
            row = [sum(c * b[j] for c, b in terms) for j in range(ncols)]
        else:
            row = [entry() for _ in range(ncols)]
        b = sum(c * v for c, v in zip(row, x))
        mode = rng.random()
        if mode < 0.15:
            b += rng.randint(1, 3)
        elif mode < 0.3:
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        rows.append((row, b))
    return ncols, rows


def test_fraction_echelon_matches_the_fraction_reference():
    # rank, pivots, conflicts in row order and the solution, on seeded systems
    # with dependent rows, inconsistent rhs, Fraction entries and zero rows
    rng = random.Random(26)
    kinds = set()
    for trial in range(2000):
        ncols, rows = seeded_labeled_system(rng)
        ech, ref = FractionEchelon(ncols), FractionReference(ncols)
        for i, (row, b) in enumerate(rows):
            ech.add_row(row, b, i)
            ref.add_row(row, b, i)
        got = (ech.rank, ech.pivot_cols, ech.conflicts, ech.solution())
        assert got == (ref.rank, ref.pivot_cols, ref.conflicts, ref.solution()), trial
        kinds.add((bool(ech.conflicts), ech.rank == ncols))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_fraction_echelon_f4_shaped_rows_reach_the_mod_p_ranks():
    # f_4's rows: m_rho(mu) for rho of weight 0..12 (272 unknowns) and mu of
    # weight r - 7 with parts >= 2, against a random rhs; rank 77 at r <= 19
    # and 201 at r <= 23, the ranks mod p
    unknowns = [rho for d in range(13) for rho in enumerate_partitions(d)]
    rng = random.Random(4)
    ech = FractionEchelon(len(unknowns))
    ranks = {}
    for r in range(7, 24):
        for mu in enumerate_partitions(r - 7):
            if 1 not in mu:
                ech.add_row([monomial_value(rho, mu) for rho in unknowns], rng.randint(-99, 99), (r, mu))
        ranks[r] = ech.rank
    assert (len(unknowns), ranks[19], ranks[23]) == (272, 77, 201)


def test_solve_bareiss_raises_on_singular_or_inconsistent_systems():
    with pytest.raises(ValueError):
        solve_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, 2, 3])  # consistent, rank 2
    with pytest.raises(ValueError):
        solve_bareiss([[1, 2], [2, 4]], [1, 3])  # inconsistent
    with pytest.raises(ValueError):
        solve_bareiss([[0, 0], [0, 0]], [0, 0])
    assert solve_bareiss([[0, 2], [3, 0]], [Fraction(1, 2), 6]) == [2, Fraction(1, 4)]
    assert solve_bareiss([], []) == []


def test_echelon_and_solve_never_import_numpy():
    # the package is pure Python: neither the CLI import nor an echelon and
    # a modular solve loads numpy
    script = (
        "import kerovlab.cli, sys; print('numpy' in sys.modules)\n"
        "from fractions import Fraction\n"
        "from kerovlab.linalg import ModularEchelon, solve_exact\n"
        "e = ModularEchelon(2)\n"
        "assert e.add_row([1, 2]) and e.add_row([3, 4]) and not e.add_row([5, 6])\n"
        "assert solve_exact([[1, 2], [3, 4]], [5, 6]) == [-4, Fraction(9, 2)]\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["False", "False"]

import os
import random
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
    clear_denominators,
    solve_bareiss,
    solve_crt,
    solve_exact,
)


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


def test_clear_denominators():
    row = [Fraction(1, 2), Fraction(2, 3), 4]
    assert clear_denominators(row) == [3, 4, 24]
    assert clear_denominators([]) == []


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


def test_cli_import_defers_numpy_to_the_modular_solve():
    # a warm-cache verify never echelons or solves, so importing the CLI must
    # not load numpy; the modular echelon and solve load it when first used
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
    assert out.split() == ["False", "True"]

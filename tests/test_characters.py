from fractions import Fraction

import pytest

import kerovlab.characters as characters
from kerovlab.characters import dimension, mn_character, normalized_character
from kerovlab.partitions import conjugate, enumerate_partitions, multiplicities, z_factor

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_syt_cache = {(): 1}


def syt_count(lam):
    """Standard Young tableaux counted by removing corner boxes one at a time."""
    got = _syt_cache.get(lam)
    if got is not None:
        return got
    total = 0
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            smaller = list(lam)
            smaller[i] -= 1
            total += syt_count(tuple(p for p in smaller if p))
    _syt_cache[lam] = total
    return total


def fixed_points(mu):
    return multiplicities(mu).get(1, 0)


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------


def test_dimension_examples():
    assert dimension((3, 1)) == 3
    assert dimension((2, 2)) == 2
    for n in range(1, 9):
        assert dimension((n,)) == 1
        assert dimension((1,) * n) == 1


def test_dimension_matches_tableau_count():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == syt_count(lam)


def test_dimension_matches_character_at_identity():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == mn_character(lam, (1,) * n)


def test_dimension_rejects_empty():
    with pytest.raises(ValueError):
        dimension(())


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama values
# ---------------------------------------------------------------------------


def test_mn_spec_examples():
    assert mn_character((3, 1), (2, 1, 1)) == 1
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((3, 1), (4,)) == -1


def test_mn_weight_mismatch():
    with pytest.raises(ValueError):
        mn_character((3, 1), (3, 2))


def test_trivial_sign_and_standard_characters():
    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            assert mn_character((n,), mu) == 1
            sign = (-1) ** (n - len(mu))
            assert mn_character((1,) * n, mu) == sign
            assert mn_character((n - 1, 1), mu) == fixed_points(mu) - 1


def test_column_orthogonality():
    # sum over lam of chi_mu^lam chi_nu^lam = z_mu [mu == nu]
    for n in range(1, 8):
        lams = enumerate_partitions(n)
        mus = enumerate_partitions(n)
        table = {lam: {mu: mn_character(lam, mu) for mu in mus} for lam in lams}
        for mu in mus:
            for nu in mus:
                total = sum(table[lam][mu] * table[lam][nu] for lam in lams)
                assert total == (z_factor(mu) if mu == nu else 0)


def test_conjugate_twists_by_sign():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                sign = (-1) ** (n - len(mu))
                assert mn_character(conjugate(lam), mu) == sign * mn_character(lam, mu)


# ---------------------------------------------------------------------------
# normalized character
# ---------------------------------------------------------------------------


def test_normalized_examples():
    assert normalized_character((2,), 2) == 2
    assert normalized_character((3, 1), 2) == 4
    assert normalized_character((1, 1, 1), 2) == -6


def test_normalized_is_integral():
    for n in range(2, 13):
        for lam in enumerate_partitions(n):
            for r in range(2, min(n, 8) + 1):
                value = normalized_character(lam, r)
                assert isinstance(value, Fraction) and value.denominator == 1


def test_normalized_conjugation_sign():
    for n in range(2, 11):
        for lam in enumerate_partitions(n):
            for r in range(2, min(n, 8) + 1):
                lhs = normalized_character(conjugate(lam), r)
                assert lhs == (-1) ** (r - 1) * normalized_character(lam, r)


def test_normalized_validation():
    with pytest.raises(ValueError):
        normalized_character((2, 1), 4)
    with pytest.raises(ValueError):
        normalized_character((3,), 1)


def test_non_dividing_hook_product_is_an_error(monkeypatch):
    # the hook product of (3, 1) is 8; a "factorial" of 7 cannot be divided by it
    monkeypatch.setattr(characters, "factorial", lambda n: 7)
    with pytest.raises(RuntimeError, match="does not divide"):
        characters._hook_dimension((3, 1))

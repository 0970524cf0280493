"""Acceptance gate: one test per criterion, at the stated range and tolerance.

Every comparison is exact (integer or rational equality); there are no
numeric tolerances anywhere.  The terminal summary prints one line per
criterion (see conftest).
"""

import os
import random
import time
from fractions import Fraction

import pytest

from kerovlab.characters import normalized_character
from kerovlab.conjectures import (
    extract_symfunc,
    lemma_triple_e_in_h,
    lemma_triple_e_in_h_weighted,
    lemma_triple_e_in_p,
    lemma_triple_e_in_p_weighted,
    load_table,
    positivity_report,
    predicted_component,
    verify_table,
)
from kerovlab.cumulants import free_cumulants
from kerovlab.kerov import (
    change_generators,
    graded_component,
    kerov_findings,
    krr1_closed_form,
    krr3_closed_form,
    triple_sum_bruteforce,
    weighted_triple_sum,
)
from kerovlab.partitions import conjugate, enumerate_partitions

# the two theorem tables, frozen as printed (global scale times the function)
F2_5760 = {
    (4,): 3, (3, 1): 8, (2, 2): 10, (2, 1, 1): 16, (1, 1, 1, 1): 24,
    (3,): 20, (2, 1): 36, (1, 1, 1): 48, (2,): 35, (1, 1): 40, (1,): 18,
}
G2_8640 = {
    (4,): 9, (3, 1): 20, (2, 2): 22, (2, 1, 1): 28, (1, 1, 1, 1): 24,
    (3,): 60, (2, 1): 84, (1, 1, 1): 72, (2,): 105, (1, 1): 90, (1,): 54,
}


@pytest.mark.criterion(1, "Kerov theorem oracle equivalence, |lambda| <= 11, r <= 8")
def test_criterion_1_oracle_equivalence(provider):
    t0 = time.time()
    checked = 0
    for n in range(2, 12):
        for lam in enumerate_partitions(n):
            r_top = min(n, 8)
            cums = free_cumulants(lam, r_top + 1)
            for r in range(2, r_top + 1):
                assert provider.get(r).poly.evaluate(cums) == normalized_character(lam, r)
                checked += 1
    # sum over n of p(n) * (min(n, 8) - 1)
    assert checked == 1246
    assert time.time() - t0 < 120


@pytest.mark.criterion(2, "extraction reproduces 5760*f_2 exactly")
def test_criterion_2_f2_extraction(provider):
    rep = extract_symfunc("f", 2, (5, 12), provider)
    assert rep.consistent and rep.system_rank == rep.unknown_count
    assert rep.solution is not None
    scaled = rep.solution.scale(5760)
    assert scaled.terms == F2_5760
    assert rep.solution.terms.get((), 0) == 0  # constant term vanishes


@pytest.mark.criterion(3, "extraction reproduces 8640*g_2 exactly")
def test_criterion_3_g2_extraction(provider):
    rep = extract_symfunc("g", 2, (5, 12), provider)
    assert rep.consistent and rep.system_rank == rep.unknown_count
    assert rep.solution is not None
    assert rep.solution.scale(8640).terms == G2_8640
    assert rep.solution.terms.get((), 0) == 0


@pytest.mark.criterion(4, "F_2 forward check and its exact negative entries")
def test_criterion_4_F2_forward_and_negatives(provider):
    F2 = load_table("F2").to_symfunc()
    for r in range(5, 13):
        predicted = change_generators(predicted_component("F", 2, r, F2), "R")
        assert predicted == graded_component(provider.get(r), r - 3), r
    rep = positivity_report(F2)
    assert {mu: c * 2880 for mu, c in rep.negative} == {(2, 1, 1): -4, (1, 1, 1): -24}


@pytest.mark.criterion(5, "closed forms for the top two nontrivial components, r <= 14")
def test_criterion_5_closed_forms(provider):
    for r in range(3, 15):
        assert graded_component(provider.get(r), r - 1) == krr1_closed_form(r), r
    for r in range(5, 15):
        assert graded_component(provider.get(r), r - 3) == krr3_closed_form(r), r


@pytest.mark.criterion(6, "k=3 cumulant-expansion table forward check, 7 <= r <= 13")
def test_criterion_6_c3_table(provider):
    t0 = time.time()
    ver = verify_table("c3", (7, 13), provider)
    assert [c.r for c in ver.checks] == list(range(7, 14))
    assert ver.ok, ver.to_json_dict()
    assert time.time() - t0 < 600


@pytest.mark.criterion(7, "k=3 Q-expansion table forward check, 7 <= r <= 13")
def test_criterion_7_a3_table(provider):
    ver = verify_table("a3", (7, 13), provider)
    assert [c.r for c in ver.checks] == list(range(7, 14))
    assert ver.ok, ver.to_json_dict()


@pytest.mark.criterion(8, "k=4 cumulant-expansion table forward check, 9 <= r <= 12")
def test_criterion_8_c4_table(provider):
    t0 = time.time()
    ver = verify_table("c4", (9, 12), provider)
    assert [c.r for c in ver.checks] == list(range(9, 13))
    assert ver.ok, ver.to_json_dict()
    assert time.time() - t0 < 1200


@pytest.mark.criterion(9, "positivity sweeps in R, C and Q up to r = 14")
def test_criterion_9_positivity(provider):
    for r in range(2, 15):
        kp = provider.get(r)
        assert kerov_findings(kp) == [], r
        k = 1
        while r - 2 * k + 1 >= 0:
            s = r - 2 * k + 1
            comp = graded_component(kp, s)
            for family in ("C", "Q"):
                converted = change_generators(comp, family)
                bad = [(mu, c) for mu, c in converted.terms.items() if c < 0]
                assert not bad, (r, s, family, bad)
            k += 1


@pytest.mark.criterion(10, "identity suites: Cauchy lemmas and weighted triple sums")
def test_criterion_10_identities():
    for n in range(1, 11):
        for pair in (
            lemma_triple_e_in_p(n),
            lemma_triple_e_in_p_weighted(n),
            lemma_triple_e_in_h(n),
            lemma_triple_e_in_h_weighted(n),
        ):
            assert pair[0] == pair[1], n
    rng = random.Random(1234)
    for _ in range(20):
        a, b, c = (Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(3))
        for n in range(0, 13):
            brute = triple_sum_bruteforce(a, b, c, n)
            assert change_generators(brute, "R") == weighted_triple_sum(a, b, c, n, "R")
            assert change_generators(brute, "Q") == weighted_triple_sum(a, b, c, n, "Q")


@pytest.mark.criterion(11, "cumulant normalization and conjugation sign rule")
def test_criterion_11_cumulant_properties():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            r = free_cumulants(lam, 10)
            assert r[2] == n
            rc = free_cumulants(conjugate(lam), 10)
            for k in range(2, 11):
                assert rc[k] == (-1) ** k * r[k]


def stretch_extraction(provider, target, kind):
    """Extract target_3 from r = 7..21 and compare it with table `kind`.

    Skipped unless KEROVLAB_STRETCH is set, or when the extraction runs past
    its budget; an exception during the extraction fails the test."""
    if not os.environ.get("KEROVLAB_STRETCH"):
        pytest.skip("stretch run disabled; set KEROVLAB_STRETCH=1 to enable")
    budget = 3600.0
    t0 = time.time()
    rep = extract_symfunc(target, 3, (7, 21), provider)
    elapsed = time.time() - t0
    if elapsed > budget:
        pytest.skip(f"stretch extraction exceeded its {budget:.0f}s budget: {elapsed:.0f}s")
    assert rep.consistent and rep.solution is not None
    want = load_table(kind)
    assert rep.solution.scale(want.scale).terms == {
        mu: Fraction(v) for mu, v in want.entries.items()
    }
    assert rep.solution.terms.get((), 0) == 0


@pytest.mark.criterion(12, "stretch: full extraction of f_3 from r <= 21 (flagged)")
def test_criterion_12_stretch_f3_extraction(provider):
    stretch_extraction(provider, "f", "c3")


@pytest.mark.criterion(13, "stretch: full extraction of g_3 from r <= 21 (flagged)")
def test_criterion_13_stretch_g3_extraction(provider):
    stretch_extraction(provider, "g", "a3")

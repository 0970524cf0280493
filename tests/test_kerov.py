import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import kerovlab.kerov as kerov
import kerovlab.linalg as linalg
import kerovlab.partitions as partitions
from kerovlab.characters import normalized_character
from kerovlab.cumulants import c_values, diagram_to_interlacing, free_cumulants, q_values
from kerovlab.kerov import (
    CumulantPolynomial,
    KerovComputationError,
    KerovProvider,
    change_generators,
    compute_kerov,
    graded_component,
    kerov_findings,
    kerov_support,
    krr1_closed_form,
    krr3_closed_form,
    triple_sum_bruteforce,
    weighted_triple_sum,
)
from kerovlab.partitions import enumerate_partitions
from kerovlab.symfunc import SymFunc

# K_2..K_7 as frozen references; each is re-derivable here from the closed
# forms for the top three weights plus the character oracle for the rest,
# and the oracle-equivalence test below re-checks them end to end.
KNOWN = {
    2: {(3,): 1},
    3: {(4,): 1, (2,): 1},
    4: {(5,): 1, (3,): 5},
    5: {(6,): 1, (4,): 15, (2, 2): 5, (2,): 8},
    6: {(7,): 1, (5,): 35, (3, 2): 35, (3,): 84},
    7: {
        (8,): 1, (6,): 70, (4, 2): 84, (3, 3): 56, (2, 2, 2): 14,
        (4,): 469, (2, 2): 224, (2,): 180,
    },
}


def test_known_kerov_polynomials():
    for r, terms in KNOWN.items():
        assert compute_kerov(r).poly.terms == terms, r


def test_support_parity_and_bounds():
    for r in range(2, 12):
        for mu in kerov_support(r):
            assert sum(mu) <= r + 1
            assert sum(mu) % 2 == (r + 1) % 2
            assert all(p >= 2 for p in mu)
        assert (r + 1,) in kerov_support(r)


def test_graded_component_examples():
    k5 = compute_kerov(5)
    assert graded_component(k5, 4).terms == {(4,): 15, (2, 2): 5}
    assert not graded_component(k5, 3).terms
    assert graded_component(k5, 6).terms == {(6,): 1}


def test_structural_findings_empty_up_to_10():
    for r in range(2, 11):
        assert kerov_findings(compute_kerov(r)) == []


def test_oracle_equivalence():
    # K_r at the free cumulants equals the normalized character
    polys = {r: compute_kerov(r).poly for r in range(2, 11)}
    for n in range(2, 12):
        for lam in enumerate_partitions(n):
            cums = free_cumulants(lam, min(n, 10) + 1)
            for r in range(2, min(n, 10) + 1):
                assert polys[r].evaluate(cums) == normalized_character(lam, r), (lam, r)


def test_short_core_rank_reports_rank(short_echelon):
    with pytest.raises(KerovComputationError, match="rank"):
        compute_kerov(7)


# sha256 of the canonical cache JSON of K_8..K_13, as computed by sampling
# every diagram of each weight (before each weight stopped at its rank bound)
KNOWN_DIGESTS = {
    8: "49e6eac475195ee36d1bf10f3b66883a861e96a30b3fede94b19ecead870d31c",
    9: "c5d53c7da8e817cb96e2468fb8dc25b39a5153764f776a6e8aa11ab15285224e",
    10: "8277f55b90961f4ab29ad33e3bb6e34d68b13d03a299500a6902a38a5b26371e",
    11: "b15f8b58d54adfe3f5f82d38ccdc26d6ae7e7a4afa9e5c7f7d590b9fa0642591",
    12: "2d0c2dc490ba48487b08702210fb8b63d9068f01afd4fc3866bf96d3997549d6",
    13: "aa566b8db9c6b21811a3011f74bb9865b2df3fd9d6b87174005fbe65891094a2",
}


def test_each_weight_stops_at_its_rank_bound(monkeypatch):
    calls = []
    real_add_row = kerov.ModularEchelon.add_row

    def counting_add_row(self, row):
        calls.append(1)
        return real_add_row(self, row)

    monkeypatch.setattr(kerov.ModularEchelon, "add_row", counting_add_row)
    for r, digest in KNOWN_DIGESTS.items():
        calls.clear()
        kp = compute_kerov(r)
        assert len(calls) <= len(kerov_support(r)) + 10, r
        payload = json.dumps(kerov._cache_payload(kp), separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, r


def test_modular_solve_across_the_old_cutoff(monkeypatch):
    # K_14 (94 support monomials), K_15 (137) and K_16 (160) lie on both sides
    # of the old 150-unknown solver cutoff; each must come out with the digest
    # the benchmark records for its cache file, and no solver may run
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    digests = json.loads(golden.read_text())["cache_files"]

    def no_bareiss(rows, rhs):
        raise AssertionError("solve_bareiss called")

    monkeypatch.setattr(linalg, "solve_bareiss", no_bareiss)
    for r in (14, 15, 16):
        payload = json.dumps(kerov._cache_payload(compute_kerov(r)), separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == digests[f"kerov_r{r}.json"], r


def test_stop_keeps_the_pivots_of_full_sampling(monkeypatch):
    # each weight stops at full rank on its live cores, with the pivots that
    # adding every diagram of that weight finds
    added = []  # (echelon, row, pivot?)
    real_add_row = kerov.ModularEchelon.add_row

    def recording_add_row(self, row):
        got = real_add_row(self, row)
        added.append((self, row, got))
        return got

    monkeypatch.setattr(kerov.ModularEchelon, "add_row", recording_add_row)
    for r in range(8, 12):
        added.clear()
        compute_kerov(r)
        chains = kerov._cores(r)
        cores = list(chains)
        echelons = list(dict.fromkeys(ech for ech, _, _ in added))
        assert len(echelons) == max(chains.values()), r
        for j, ech in enumerate(echelons):
            live = [k for k, g in enumerate(cores) if chains[g] > j]
            ref = linalg.ModularEchelon(len(live))
            want = []
            block = enumerate_partitions(r + j)  # the whole weight as one block
            for row in zip(*kerov._evaluation_row(cores, kerov._cumulant_list(block, r + 1))):
                row = [row[k] for k in live]
                if real_add_row(ref, row):
                    want.append(row)
            assert ech.rank == ref.rank == len(live), (r, j)
            assert [row for e, row, pivot in added if e is ech and pivot] == want, (r, j)


@pytest.mark.parametrize("r", [8, 9])
def test_perturbed_solution_is_caught(monkeypatch, r):
    # +1 on any single coefficient of the closed form, over the whole support
    real_closed_form = kerov._closed_form
    for mu in kerov_support(r):

        def perturbed(r, mu=mu):
            terms = real_closed_form(r)
            terms[mu] = terms.get(mu, 0) + 1
            return terms

        monkeypatch.setattr(kerov, "_closed_form", perturbed)
        with pytest.raises(KerovComputationError, match="does not fit"):
            compute_kerov(r)


def test_closed_form_outside_the_support_is_an_error(monkeypatch):
    real_closed_form = kerov._closed_form
    monkeypatch.setattr(kerov, "_closed_form", lambda r: {**real_closed_form(r), (2,): 1})
    with pytest.raises(KerovComputationError, match="support"):
        compute_kerov(8)


def test_closed_form_matches_biane_generating_function():
    # Sigma_r = -(1/r) [u^{r+1}] prod_{j<r} prod_i (1 - (x_i + j)u) / (1 - (y_i + j)u),
    # expanded directly from the interlacing sequences of each diagram
    for r in range(2, 9):
        poly = CumulantPolynomial("R", kerov._closed_form(r))
        for lam in enumerate_partitions(r + 2):
            pair = diagram_to_interlacing(lam)
            series = [1] + [0] * (r + 1)
            for j in range(r):
                for x in pair.x:  # times 1 - (x + j)u
                    series = [1] + [c - (x + j) * d for c, d in zip(series[1:], series)]
                for y in pair.y:  # divided by 1 - (y + j)u
                    for k in range(1, r + 2):
                        series[k] += (y + j) * series[k - 1]
            want = Fraction(-series[r + 1], r)
            assert want == normalized_character(lam, r), (r, lam)
            assert poly.evaluate(free_cumulants(lam, r + 1)) == want, (r, lam)


def test_held_out_check_catches_a_wrong_polynomial():
    kp = compute_kerov(8)
    pool = [lam for n in range(9, 15) for lam in enumerate_partitions(n)]
    for mu in kp.poly.terms:
        wrong = kp.poly + CumulantPolynomial("R", {mu: 1})
        with pytest.raises(KerovComputationError, match="held-out"):
            kerov._verify_held_out(kerov.KerovPolynomial(8, wrong), pool)


@pytest.fixture(scope="module")
def certificates():
    return certificate_traces()


def certificate_traces():
    """For r = 2..16: rows sent to each weight's echelon, the diagrams checked
    against the character in order (pivots, then the re-check) and the ten
    held-out picks."""
    traces = {}
    real_add_row = kerov.ModularEchelon.add_row
    real_verify, real_character = kerov._verify_held_out, kerov._integer_character
    rec = {}

    def recording_add_row(self, row):
        rec["rows"][self] = rec["rows"].get(self, 0) + 1  # keyed by the echelon itself
        return real_add_row(self, row)

    def recording_verify(kp, pool):
        rec["picks"].append(real_verify(kp, pool))
        return rec["picks"][-1]

    def recording_character(lam, r):
        rec["checked"].append(lam)
        return real_character(lam, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kerov.ModularEchelon, "add_row", recording_add_row)
        mp.setattr(kerov, "_verify_held_out", recording_verify)
        mp.setattr(kerov, "_integer_character", recording_character)
        for r in range(2, 17):
            rec.update(rows={}, checked=[], picks=[])
            compute_kerov(r)
            traces[r] = (tuple(rec["rows"].values()), rec["checked"], rec["picks"])
    return traces


def test_held_out_checks_ten_unchecked_diagrams(certificates):
    # ten distinct diagrams at every r, none of them a pivot or re-checked one
    for r, (_, checked, picked) in certificates.items():
        [picks] = picked
        assert len(set(picks)) == 10, r
        assert not set(picks) & set(checked), r
        assert all(sum(lam) >= r for lam in picks), r


# r -> (rows sent to the echelon of each weight r, r+1, ..., number of
# diagrams checked against the character, sha256 prefixes of the checked
# sequence and of the ten held-out picks), as the one-diagram-at-a-time
# certificate recorded them
PINNED_CERTIFICATES = {
    2: ((1,), 2, "d423b4adab2fdfa7", "2c6596fe8d8182f4"),
    3: ((2, 1, 1), 15, "17fbb65c5754ea5d", "3ae1b722c1fe0f1c"),
    4: ((2, 1), 12, "bb5355b1c3add319", "630b38ccf4840d3a"),
    5: ((4, 2, 1, 1), 55, "62793bf834fb67a4", "cce6f2a30a89c10a"),
    6: ((4, 2, 1), 48, "05ed408b95a56501", "5f3c7bad3fe686e0"),
    7: ((7, 4, 2, 1, 1), 165, "13594984d7cdc805", "47cc47af662ac335"),
    8: ((9, 4, 2, 1), 150, "3826c269bad09d21", "cba39fe942571aa5"),
    9: ((12, 7, 4, 2, 1, 1), 327, "e3a36ced74fc0ee7", "f73348e75819ee40"),
    10: ((15, 9, 4, 2, 1), 329, "f648680e5f4bb37b", "53798f3cb8bdd891"),
    11: ((24, 12, 7, 4, 2, 1, 1), 348, "3e87c011a0e5038b", "e0be034a43689675"),
    12: ((25, 15, 9, 4, 2, 1), 353, "d8204b2da3aa82e8", "1121371a870fd3ee"),
    13: ((36, 25, 12, 7, 4, 2, 1, 1), 382, "06679c6d2a0aba85", "5cd9add96d5721df"),
    14: ((42, 25, 15, 9, 4, 2, 1), 394, "4a5a9daf9eb8e562", "d66e0a0b38356637"),
    15: ((58, 37, 25, 12, 7, 4, 2, 1, 1), 437, "da811a14fd144741", "0b4847e5cbb02089"),
    16: ((74, 42, 25, 15, 9, 4, 2, 1), 460, "6c1b7b9fb7a77887", "e489bb953f21c30d"),
}


def test_certificate_diagrams_are_pinned(certificates):
    # blocks of diagrams build no row past the one that completes each rank,
    # and check the same pivots, re-check sample and held-out picks, in order
    def digest(x):
        return hashlib.sha256(repr(x).encode()).hexdigest()[:16]

    assert sum(certificates[16][0]) == 172
    for r, (rows, checked, [picks]) in certificates.items():
        assert (rows, len(checked), digest(checked), digest(picks)) == PINNED_CERTIFICATES[r], r


def test_row_chunks_keep_the_pinned_certificates(monkeypatch, certificates):
    # rows built 7 diagrams at a time split the larger blocks and the
    # re-check, and send, check and hold out the same diagrams in order
    sizes = []
    real = kerov._evaluation_row

    def recording(monomials, cols):
        sizes.append(len(cols[0]))
        return real(monomials, cols)

    monkeypatch.setattr(kerov, "ROW_CHUNK", 7)
    monkeypatch.setattr(kerov, "_evaluation_row", recording)
    assert certificate_traces() == certificates
    assert max(sizes) == 7 and sizes.count(7) > 100


def test_certificate_enumerates_no_certified_weight(monkeypatch):
    # every enumeration goes through the partitions memo; the diagrams of
    # weights 16.. are unranked one by one instead, so only the support's
    # parts->=2 partitions are enumerated at those weights
    calls = []
    real = partitions._partitions_cached

    def counting(n, min_part):
        calls.append((n, min_part))
        return real(n, min_part)

    monkeypatch.setattr(partitions, "_partitions_cached", counting)
    compute_kerov(16)
    assert calls and not [(n, m) for n, m in calls if n >= 16 and m < 2]


def test_lazy_diagrams_match_the_materialized_list():
    rng = random.Random(3)
    for weights in ([5], [2, 3, 4], [8, 9, 10, 11]):
        view = kerov._Diagrams()
        full = []
        for n in weights:
            view.add(n)
            full += enumerate_partitions(n)
        view.skip = sorted(rng.sample(range(len(full)), len(full) // 3))
        kept = [lam for i, lam in enumerate(full) if i not in set(view.skip)]
        assert len(view) == len(kept) and list(view) == kept
        assert [view.position(i) for i in range(len(view))] == [
            i for i in range(len(full)) if i not in set(view.skip)]
        for k in (1, min(10, len(kept)), len(kept)):
            assert random.Random(k).sample(view, k) == random.Random(k).sample(kept, k)
        with pytest.raises(IndexError):
            view[len(view)]


def test_non_integer_character_is_an_error(monkeypatch):
    monkeypatch.setattr(kerov, "normalized_character", lambda lam, r: Fraction(1, 2))
    with pytest.raises(KerovComputationError, match="not an integer"):
        compute_kerov(5)


# ---------------------------------------------------------------------------
# generator changes
# ---------------------------------------------------------------------------


def test_change_generators_examples():
    assert change_generators(CumulantPolynomial.gen("C", 4), "R").terms == {(4,): 3, (2, 2): 1}
    comp = CumulantPolynomial("R", {(4,): 15, (2, 2): 5})
    assert change_generators(comp, "Q").terms == {(4,): 5, (2, 2): Fraction(5, 2)}
    assert change_generators(comp, "C").terms == {(4,): 5}


def test_change_generators_roundtrip_random():
    rng = random.Random(17)
    for src in ("R", "C", "Q"):
        for _ in range(6):
            terms = {}
            for _ in range(5):
                w = rng.randint(0, 16)
                mus = enumerate_partitions(w, 2)
                if not mus:
                    continue
                terms[mus[rng.randrange(len(mus))]] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            poly = CumulantPolynomial(src, terms)
            for mid in ("R", "C", "Q"):
                back = change_generators(change_generators(poly, mid), src)
                assert back == poly, (src, mid)


def test_family_relations_match_numeric_values():
    # symbolic C_n, Q_n re-expressed over R agree with the numeric per-diagram
    # values; this ties change_generators to c_values/q_values independently
    for lam in [(3, 1), (2, 2, 1), (5, 3), (4, 2, 1)]:
        cv, qv = c_values(lam, 8), q_values(lam, 8)
        for n in range(2, 9):
            for family, want in (("C", cv[n]), ("Q", qv[n])):
                poly = change_generators(CumulantPolynomial.gen(family, n), "R")
                assert poly.evaluate(free_cumulants(lam, 8)) == want


def test_family_relation_sums():
    # Q_n = sum (-1)^(l+1) (l-1)! script-C_mu: the sign is pinned by the
    # definitions, which force Q_2 = C_2 = R_2 (all three equal the weight);
    # likewise (1-n) R_n = sum (-1)^l script-Q_mu and C_n = sum script-Q_mu
    from math import factorial

    from kerovlab.partitions import mult_factorial

    for n in range(2, 10):
        qn = change_generators(CumulantPolynomial.gen("Q", n), "C")
        want = {
            mu: Fraction((-1) ** (len(mu) + 1) * factorial(len(mu) - 1), mult_factorial(mu))
            for mu in enumerate_partitions(n, 2)
        }
        assert qn.terms == want, n
        rn = change_generators(CumulantPolynomial.gen("R", n).scale(1 - n), "Q")
        want = {
            mu: Fraction((-1) ** len(mu), mult_factorial(mu))
            for mu in enumerate_partitions(n, 2)
        }
        assert rn.terms == want, n
        cn = change_generators(CumulantPolynomial.gen("C", n), "Q")
        want = {
            mu: Fraction(1, mult_factorial(mu)) for mu in enumerate_partitions(n, 2)
        }
        assert cn.terms == want, n


def _full_ring_route(poly, target):
    # reference conversion through the whole symmetric-function ring: lift to
    # the alphabet where (i-1) R_i = -h_i, C_i = (-1)^i e_i and Q_i = -p_i / i,
    # change basis there, drop every index with a part 1 (h_1 = e_1 = p_1 = 0
    # in the quotient) and rescale
    basis = {"R": "h", "C": "e", "Q": "p"}

    def factor(family, i):
        if family == "R":
            return Fraction(-1, i - 1)
        return Fraction((-1) ** i) if family == "C" else Fraction(-1, i)

    lifted = {}
    for mu, c in poly.terms.items():
        for i in mu:
            c *= factor(poly.family, i)
        lifted[mu] = c
    out = {}
    for nu, c in SymFunc(basis[poly.family], lifted).convert(basis[target]).terms.items():
        if 1 not in nu:
            for i in nu:
                c /= factor(target, i)
            out[nu] = c
    return CumulantPolynomial(target, out)


def _assert_matches_full_ring_route(poly):
    for target in ("R", "C", "Q"):
        if target != poly.family:
            got = change_generators(poly, target)
            assert got.terms == _full_ring_route(poly, target).terms, (poly, target)


def test_change_generators_matches_full_ring_route_on_components():
    for r in range(2, 13):
        kp = compute_kerov(r)
        for s in kp.poly.weights():
            comp = graded_component(kp, s)
            for poly in (comp, _full_ring_route(comp, "C"), _full_ring_route(comp, "Q")):
                _assert_matches_full_ring_route(poly)


def test_change_generators_matches_full_ring_route_on_random_polynomials():
    rng = random.Random(29)
    for src in ("R", "C", "Q"):
        for _ in range(8):
            terms = {}
            for _ in range(6):
                mus = enumerate_partitions(rng.randint(0, 10), 2)
                if mus:
                    terms[rng.choice(mus)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            _assert_matches_full_ring_route(CumulantPolynomial(src, terms))


def test_degree_one_is_erased_exactly():
    # the C_2 -> R conversion passes through e_2 = (p_1^2 - p_2)/2 whose p_1^2
    # part must vanish in the quotient; the surviving part is -p_2/2 = R_2
    assert change_generators(CumulantPolynomial.gen("C", 2), "R").terms == {(2,): 1}
    assert change_generators(CumulantPolynomial.gen("C", 0), "R").terms == {(): 1}
    assert not change_generators(CumulantPolynomial.gen("C", 1), "R").terms


# ---------------------------------------------------------------------------
# closed forms and weighted sums
# ---------------------------------------------------------------------------


def test_krr1_examples():
    assert not krr1_closed_form(2).terms
    assert krr1_closed_form(3).terms == {(2,): 1}
    assert krr1_closed_form(4).terms == {(3,): 5}
    assert krr1_closed_form(5).terms == {(4,): 15, (2, 2): 5}


def test_krr3_examples():
    assert krr3_closed_form(5).terms == {(2,): 8}
    assert krr3_closed_form(6).terms == {(3,): 84}
    assert graded_component(compute_kerov(7), 4) == krr3_closed_form(7)
    with pytest.raises(ValueError):
        krr3_closed_form(4)


def test_weighted_triple_sum_examples():
    assert weighted_triple_sum(1, 0, 0, 2, "R").terms == {(2,): 3}
    assert weighted_triple_sum(0, 0, 1, 2, "R").terms == {(2,): 4}
    assert weighted_triple_sum(1, 0, 0, 0, "Q").terms == {(): 1}
    with pytest.raises(ValueError):
        weighted_triple_sum(1, 0, 0, 2, "C")


def test_weighted_triple_sum_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(6):
        a, b, c = (Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3))
        for n in range(0, 10):
            brute = triple_sum_bruteforce(a, b, c, n)
            for fam in ("R", "Q"):
                assert change_generators(brute, fam) == weighted_triple_sum(a, b, c, n, fam)


def test_triple_sum_matches_per_triple_fraction_sum():
    # reference: one Fraction update per triple, as the sum is written
    rng = random.Random(15)
    for _ in range(8):
        a, b, c = (Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3))
        for n in range(0, 13):
            want = {}
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    k = n - i - j
                    if 1 not in (i, j, k):
                        mu = tuple(sorted((v for v in (i, j, k) if v), reverse=True))
                        want[mu] = want.get(mu, 0) + a + b * i + c * i * i
            assert triple_sum_bruteforce(a, b, c, n) == CumulantPolynomial("C", want), (a, b, c, n)


# ---------------------------------------------------------------------------
# polynomial container behavior
# ---------------------------------------------------------------------------


def test_cumulant_polynomial_validation():
    with pytest.raises(ValueError):
        CumulantPolynomial("R", {(2, 1): 1})
    with pytest.raises(ValueError):
        CumulantPolynomial("X", {})
    with pytest.raises(ValueError):
        CumulantPolynomial("R", {}) + CumulantPolynomial("C", {})


def test_polynomial_arithmetic():
    a = CumulantPolynomial("R", {(3,): 2, (2,): 1})
    b = CumulantPolynomial("R", {(2,): Fraction(1, 2)})
    assert (a + b).terms == {(3,): 2, (2,): Fraction(3, 2)}
    assert not (a - a).terms
    assert (a * b).terms == {(3, 2): 1, (2, 2): Fraction(1, 2)}
    assert a.weight_component(3).terms == {(3,): 2}
    assert a.weights() == [2, 3]
    assert a.evaluate({2: Fraction(5), 3: Fraction(-1)}) == 3


def test_terms_json_order_and_text():
    poly = compute_kerov(5).poly
    data = poly.terms_json()
    assert [t["partition"] for t in data] == [[6], [4], [2, 2], [2]]
    assert poly.to_text() == "1*R6 + 15*R4 + 5*R2*R2 + 8*R2"
    assert CumulantPolynomial.from_terms_json("R", data) == poly


# ---------------------------------------------------------------------------
# provider and disk cache
# ---------------------------------------------------------------------------


def test_provider_memory_and_disk_cache(tmp_path):
    prov = KerovProvider(cache_dir=str(tmp_path))
    k6 = prov.get(6)
    assert (tmp_path / "kerov_r6.json").exists()
    prov2 = KerovProvider(cache_dir=str(tmp_path))
    assert prov2.get(6).poly == k6.poly  # served from disk
    assert prov2.component(6, 3).terms == {(3,): 84}


def test_stale_format_version_is_recomputed(tmp_path):
    prov = KerovProvider(cache_dir=str(tmp_path))
    k4 = prov.get(4)
    path = tmp_path / "kerov_r4.json"
    data = json.loads(path.read_text())
    data["format_version"] = 999
    data["terms"] = [{"partition": [5], "coef": "123"}]
    path.write_text(json.dumps(data))
    fresh = KerovProvider(cache_dir=str(tmp_path))
    assert fresh.get(4).poly == k4.poly
    assert json.loads(path.read_text())["format_version"] != 999


def test_partial_cache_file_is_regenerated(tmp_path):
    path = tmp_path / "kerov_r3.json"
    path.write_text('{"format_version": 1, "r": 3, "terms": [{"partiti')
    prov = KerovProvider(cache_dir=str(tmp_path))
    assert prov.get(3).poly.terms == KNOWN[3]
    assert json.loads(path.read_text())["r"] == 3


def test_precompute_parallel_matches_sequential(tmp_path):
    # the pool returns KerovPolynomials, kept by the same step as a sequential
    # run: the same polynomials and byte-identical cache files
    provs, files = {}, {}
    for jobs in (1, 2):
        provs[jobs] = KerovProvider(cache_dir=str(tmp_path / str(jobs)))
        provs[jobs].precompute([4, 5, 6, 7], jobs=jobs)
        files[jobs] = {p.name: p.read_bytes() for p in (tmp_path / str(jobs)).iterdir()}
    assert sorted(files[1]) == [f"kerov_r{r}.json" for r in (4, 5, 6, 7)]
    assert files[2] == files[1]
    for r in (4, 5, 6, 7):
        assert provs[2].get(r).poly == provs[1].get(r).poly

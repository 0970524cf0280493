"""The integer-numerator paths against the Fraction-per-term formulas they replaced.

Conversion, evaluation, generator changes, the triple sums and the block
evaluation of the kerov-theorem suite all scale their rationals to integers
over one common denominator.  The formulas below are the earlier ones, which
built a Fraction per term; they are kept here as references and compared on
seeded random inputs with negative, zero and non-integer coefficients.
"""

import random
from fractions import Fraction
from math import factorial

import kerovlab.conjectures as conj
from kerovlab.characters import normalized_character
from kerovlab.cli import main
from kerovlab.cumulants import _cumulant_list
from kerovlab.kerov import (
    CumulantPolynomial,
    KerovPolynomial,
    KerovProvider,
    change_generators,
    triple_sum_bruteforce,
    weighted_triple_sum,
)
from kerovlab.partitions import (
    enumerate_partitions,
    power_sum_value,
    series_coefficients,
    z_factor,
)
from kerovlab.symfunc import (
    BASES,
    SymFunc,
    _free_mul,
    _generator_values,
    monomial_value,
    p_in_m,
)


def _rational(rng):
    """Zero, a negative or positive integer, or a non-integer rational."""
    return rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-40, 40), rng.randint(2, 9))])


# ---------------------------------------------------------------------------
# symmetric functions: Fraction-per-term conversion and evaluation
# ---------------------------------------------------------------------------


def _old_gen_in_p(basis, n):
    # e_n has the sign epsilon(mu) = (-1)^(n - l(mu)) on p_mu / z_mu
    sign = -1 if basis == "e" else 1
    return {mu: Fraction(sign ** (n - len(mu)), z_factor(mu)) for mu in enumerate_partitions(n)}


def _old_p_in_gen(basis, n):
    sign = (-1) ** (n - 1) if basis == "e" else 1
    return series_coefficients(
        n, 1, lambda l: sign * n * (-1) ** (l - 1) * factorial(l - 1), lambda i: 1
    )


_old_m_table: dict = {}


def _old_m_in_p(lam):
    """m_lam in p by forward substitution over Fractions, degree by degree."""
    if lam not in _old_m_table:
        for mu in enumerate_partitions(sum(lam)):
            row = p_in_m(mu)
            acc = {mu: Fraction(1)}
            for nu, a in row.items():
                if nu != mu:
                    _free_mul({(): -a}, _old_m_table[nu], acc)
            _old_m_table[mu] = {nu: b / row[mu] for nu, b in acc.items()}
    return _old_m_table[lam]


def _old_product(single, lam):
    expansion = {(): Fraction(1)}
    for part in lam:
        expansion = _free_mul(expansion, single(part))
    return expansion


def _old_convert(f, target):
    if target == f.basis:
        return dict(f.terms)
    pterms = dict(f.terms) if f.basis == "p" else {}
    if f.basis != "p":
        for lam, c in f.terms.items():
            if f.basis == "m":
                expansion = _old_m_in_p(lam)
            else:
                expansion = _old_product(lambda n: _old_gen_in_p(f.basis, n), lam)
            _free_mul({(): c}, expansion, pterms)
    if target == "p":
        return pterms
    out = {}
    for mu, c in pterms.items():
        if target == "m":
            expansion = p_in_m(mu)
        else:
            expansion = _old_product(lambda n: _old_p_in_gen(target, n), mu)
        _free_mul({(): c}, expansion, out)
    return out


def _old_evaluate(f, v):
    if f.basis == "m":
        values = [monomial_value(lam, v) for lam in f.terms]
    else:
        top = max((lam[0] for lam in f.terms if lam), default=0)
        g = _generator_values(f.basis, v, top)
        values = []
        for lam in f.terms:
            val = 1
            for part in lam:
                val *= g[part]
            values.append(val)
    return sum((c * val for c, val in zip(f.terms.values(), values)), Fraction(0))


def _random_monomial(rng, top):
    """A partition of weight <= top with parts >= 2, the empty one included."""
    return rng.choice([mu for w in range(top + 1) for mu in enumerate_partitions(w, 2)])


def _random_symfunc(rng, basis, max_deg, nterms):
    terms = {}
    for _ in range(nterms):
        lams = enumerate_partitions(rng.randint(0, max_deg))
        terms[rng.choice(lams)] = _rational(rng)
    return SymFunc(basis, terms)


def test_evaluate_matches_fraction_sum_in_every_basis():
    rng = random.Random(2201)
    points = [v for n in range(0, 8) for v in enumerate_partitions(n)]
    for basis in BASES:
        for _ in range(12):
            f = _random_symfunc(rng, basis, max_deg=9, nterms=7)
            for v in rng.sample(points, 25) + [()]:
                assert f.evaluate(v) == _old_evaluate(f, v), (basis, f, v)


def test_convert_matches_fraction_expansion_for_every_basis_pair():
    rng = random.Random(2202)
    for source in BASES:
        for target in BASES:
            if target == source:
                continue
            for _ in range(6):
                f = _random_symfunc(rng, source, max_deg=8, nterms=6)
                assert f.convert(target).terms == _old_convert(f, target), (source, target, f)
            for d in range(0, 9):  # every basis element of degree <= 8
                for lam in enumerate_partitions(d):
                    f = SymFunc(source, {lam: Fraction(-3, 7)})
                    assert f.convert(target).terms == _old_convert(f, target), (source, target, lam)


def test_equality_through_p_matches_fraction_comparison():
    rng = random.Random(2203)
    for _ in range(40):
        f = _random_symfunc(rng, rng.choice(BASES), max_deg=6, nterms=4)
        g = f.convert(rng.choice(BASES))
        assert f == g
        assert _old_convert(f, "p") == _old_convert(g, "p")
        bumped = SymFunc(g.basis, {**g.terms, (1,): g.terms.get((1,), 0) + Fraction(1, 3)})
        assert f != bumped and bumped != f


# ---------------------------------------------------------------------------
# generator families
# ---------------------------------------------------------------------------

_OLD_PHI = {
    ("C", "R"): factorial,
    ("Q", "R"): lambda l: factorial(l - 1),
    ("R", "C"): lambda l: (-1) ** l * factorial(l),
    ("R", "Q"): lambda l: (-1) ** l,
    ("C", "Q"): lambda l: 1,
    ("Q", "C"): lambda l: (-1) ** (l - 1) * factorial(l - 1),
}


def _old_monomial(src, dst, mu):
    if not mu:
        return {(): Fraction(1)}
    i = mu[0]
    weight = (lambda j: j - 1) if dst == "R" else (lambda j: 1)
    gen = series_coefficients(i, 2, _OLD_PHI[(src, dst)], weight)
    if src == "R":
        gen = {nu: c / (1 - i) for nu, c in gen.items()}
    return _free_mul(gen, _old_monomial(src, dst, mu[1:]))


def _old_change_generators(poly, target):
    out = {}
    for mu, c in poly.terms.items():
        _free_mul({(): c}, _old_monomial(poly.basis, target, mu), out)
    return out


def test_change_generators_matches_fraction_expansion_in_all_six_directions():
    rng = random.Random(2204)
    for src in ("R", "C", "Q"):
        for dst in ("R", "C", "Q"):
            if dst == src:
                continue
            for _ in range(8):
                terms = {}
                for _ in range(8):
                    terms[_random_monomial(rng, 11)] = _rational(rng)
                poly = CumulantPolynomial(src, terms)
                got = change_generators(poly, dst)
                assert got.terms == _old_change_generators(poly, dst), (src, dst, poly)


def test_change_generators_on_kerov_components_matches_fraction_expansion(provider):
    for r in range(2, 12):
        poly = provider.get(r).poly
        for dst in ("C", "Q"):
            there = change_generators(poly, dst)
            assert there.terms == _old_change_generators(poly, dst)
            assert change_generators(there, "R").terms == _old_change_generators(there, "R")


# ---------------------------------------------------------------------------
# the weighted triple sums
# ---------------------------------------------------------------------------


def _old_triple_sum_bruteforce(a, b, c, n):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    i_values = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            if 1 not in (i, j, k):
                mu = tuple(sorted((v for v in (i, j, k) if v), reverse=True))
                i_values.setdefault(mu, []).append(i)
    return CumulantPolynomial("C", {
        mu: a * len(iv) + b * sum(iv) + c * sum(i * i for i in iv) for mu, iv in i_values.items()
    })


def _old_phi_hat_terms(a, b, c, n):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return {(): a / 2 + b * n / 6 + c * n * n / 12, (2,): c / 12}


def _old_weighted_triple_sum(a, b, c, n, family):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if family == "R":
        kernel_terms = _old_phi_hat_terms(a, b, c, n)

        def kernel(mu):
            return kernel_terms[()] + kernel_terms[(2,)] * power_sum_value(2, mu)

        factors = series_coefficients(n, 2, lambda l: factorial(l + 2), lambda i: i - 1)
    else:
        def kernel(mu):
            return a + b * n / 3 + c * (n * n + 2 * power_sum_value(2, mu)) / 9

        factors = series_coefficients(n, 2, lambda l: 3**l, lambda i: 1)
    return CumulantPolynomial(family, {mu: fac * kernel(mu) for mu, fac in factors.items()})


def test_triple_sums_match_fraction_formulas():
    rng = random.Random(2205)
    draws = [(0, 0, 0), (1, 0, 0), (0, Fraction(-1, 2), 0), (0, 0, 7)]
    draws += [tuple(_rational(rng) for _ in range(3)) for _ in range(46)]
    for a, b, c in draws:
        for n in range(0, 15):
            assert triple_sum_bruteforce(a, b, c, n) == _old_triple_sum_bruteforce(a, b, c, n)
            for fam in ("R", "Q"):
                got = weighted_triple_sum(a, b, c, n, fam)
                assert got == _old_weighted_triple_sum(a, b, c, n, fam), (a, b, c, n, fam)


# ---------------------------------------------------------------------------
# the kerov-theorem suite: block evaluation against per-diagram evaluation
# ---------------------------------------------------------------------------


def _old_kerov_theorem_findings(polys, lo, hi):
    """The suite's earlier loop: K_r evaluated diagram by diagram."""
    findings, checked = [], 0
    for n in range(2, 12):
        lams = enumerate_partitions(n)
        cols = _cumulant_list(lams, min(n, hi) + 1)
        for i, lam in enumerate(lams):
            cums = {k: cols[k][i] for k in range(2, len(cols))}
            for r in range(lo, min(n, hi) + 1):
                checked += 1
                got = polys[r].evaluate(cums)
                want = normalized_character(lam, r)
                if got != want:
                    findings.append(f"K_{r} at lambda={lam}: {got} != {want}")
    return findings, checked


class _FixedProvider:
    def __init__(self, polys):
        self.polys = polys

    def get(self, r):
        return KerovPolynomial(r, self.polys[r])


def test_block_kerov_theorem_matches_per_diagram_evaluation(provider):
    rng = random.Random(2206)
    true = {r: provider.get(r).poly for r in range(2, 11)}
    perturbed = {}
    for r, poly in true.items():
        terms = dict(poly.terms)
        for _ in range(3):
            mu = _random_monomial(rng, r + 1)
            terms[mu] = terms.get(mu, 0) + _rational(rng)
        perturbed[r] = CumulantPolynomial("R", terms)
    for polys in (true, perturbed):
        want_findings, want_checked = _old_kerov_theorem_findings(polys, 2, 10)
        report = conj._suite_kerov_theorem(_FixedProvider(polys), 2, 10)
        assert report.findings == want_findings
        assert report.detail["checked"] == want_checked
    assert not report.ok and len(report.findings) > 100


# ---------------------------------------------------------------------------
# the faster checks still fail when they should, through the CLI
# ---------------------------------------------------------------------------


def test_lemmas_reports_a_changed_triple_sum_coefficient(capsys, monkeypatch):
    real = conj.weighted_triple_sum

    def off_by_one(a, b, c, n, family):
        poly = real(a, b, c, n, family)
        if n == 7 and family == "Q":
            mu, coef = poly.sorted_terms()[0]
            poly = CumulantPolynomial(family, {**poly.terms, mu: coef + 1})
        return poly

    monkeypatch.setattr(conj, "weighted_triple_sum", off_by_one)
    code = main(["verify", "--suite", "lemmas", "--jobs", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert '"ok":false' in out
    assert "triple sum Q-form fails at n=7" in err
    assert "R-form" not in err


def test_kerov_theorem_reports_a_changed_term_of_k5(capsys, monkeypatch):
    real_get = KerovProvider.get

    def changed_k5(self, r):
        kp = real_get(self, r)
        if r == 5:
            kp = KerovPolynomial(5, CumulantPolynomial("R", {**kp.poly.terms, (4,): 6}))
        return kp

    monkeypatch.setattr(KerovProvider, "get", changed_k5)
    code = main(["verify", "--suite", "kerov-theorem", "--jobs", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert '"ok":false' in out
    assert "finding: K_5 at lambda=(5,):" in err
    assert "K_4 at" not in err and "K_6 at" not in err

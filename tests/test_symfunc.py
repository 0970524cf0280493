import itertools
import math
import random
from fractions import Fraction

import pytest

import kerovlab.symfunc as symfunc
from kerovlab.partitions import enumerate_partitions, epsilon, z_factor
from kerovlab.symfunc import (
    SymFunc,
    gen_product_in_p,
    m_scalar_specialize,
    p_in_gen,
    p_scalar_specialize,
    phi_hat,
)

NVARS = 7

# ---------------------------------------------------------------------------
# independent oracle: expand symmetric functions as explicit polynomials in
# NVARS variables (dict exponent-tuple -> coefficient), straight from the
# definitions of m / p / e / h
# ---------------------------------------------------------------------------


def poly_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def expand_gen(basis, n):
    one = {(0,) * NVARS: Fraction(1)}
    if n == 0:
        return one
    if basis == "p":
        return {
            tuple(n if i == j else 0 for i in range(NVARS)): Fraction(1)
            for j in range(NVARS)
        }
    if basis == "e":
        return {
            tuple(1 if i in picks else 0 for i in range(NVARS)): Fraction(1)
            for picks in itertools.combinations(range(NVARS), n)
        }
    if basis == "h":
        out = {}
        for picks in itertools.combinations_with_replacement(range(NVARS), n):
            expo = [0] * NVARS
            for i in picks:
                expo[i] += 1
            out[tuple(expo)] = Fraction(1)
        return out
    raise ValueError(basis)


def expand_m(lam):
    expos = set(itertools.permutations(lam + (0,) * (NVARS - len(lam))))
    return {e: Fraction(1) for e in expos}


def expand_symfunc(f):
    total = {}
    for lam, c in f.terms.items():
        if f.basis == "m":
            if len(lam) > NVARS:
                continue
            term = expand_m(lam)
        else:
            term = {(0,) * NVARS: Fraction(1)}
            for part in lam:
                term = poly_mul(term, expand_gen(f.basis, part))
        for e, v in term.items():
            total[e] = total.get(e, 0) + c * v
    return {k: v for k, v in total.items() if v}


def random_symfunc(rng, basis, max_deg=6, nterms=4):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(0, max_deg)
        lams = enumerate_partitions(d)
        lam = lams[rng.randrange(len(lams))]
        if basis == "m" and len(lam) > NVARS:
            continue
        terms[lam] = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    return SymFunc(basis, terms)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def test_classical_conversion_examples():
    e2 = SymFunc.gen("e", 2).convert("p")
    assert e2.terms == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    assert SymFunc.gen("p", 2).convert("m").terms == {(2,): 1}
    assert SymFunc.gen("h", 2).convert("e").terms == {(1, 1): 1, (2,): -1}


def test_generator_conversions_match_polynomial_expansion():
    for basis in ("p", "e", "h", "m"):
        for n in range(0, 7):
            f = SymFunc.gen(basis, n) if basis != "m" else SymFunc("m", {(n,) if n else (): 1})
            want = expand_symfunc(f)
            for target in ("p", "e", "h", "m"):
                assert expand_symfunc(f.convert(target)) == want, (basis, n, target)


def test_roundtrips_on_random_functions():
    rng = random.Random(42)
    for basis in ("m", "p", "e", "h"):
        for _ in range(6):
            f = random_symfunc(rng, basis, max_deg=10 if basis != "m" else 8)
            for target in ("m", "p", "e", "h"):
                assert f.convert(target).convert(basis) == f, (basis, target)


def test_mixed_degree_conversion():
    f = SymFunc("m", {(3, 1): Fraction(2, 3), (2,): -1, (): 5})
    g = f.convert("h").convert("e").convert("p").convert("m")
    assert g == f


def test_multiply_spec_examples():
    p2, p1 = SymFunc.gen("p", 2), SymFunc.gen("p", 1)
    assert (p2 * p1).terms == {(2, 1): 1}
    e1 = SymFunc.gen("e", 1)
    assert (e1 * e1).convert("m").terms == {(2,): 1, (1, 1): 2}
    one = SymFunc.constant(1, "e")
    f = SymFunc("e", {(2, 1): Fraction(3, 7)})
    assert (one * f) == f


def test_multiply_matches_polynomial_expansion():
    rng = random.Random(5)
    for _ in range(5):
        f = random_symfunc(rng, "e", max_deg=4, nterms=3)
        g = random_symfunc(rng, "h", max_deg=4, nterms=3)
        assert expand_symfunc(f * g.convert("e")) == poly_mul(expand_symfunc(f), expand_symfunc(g))


# ---------------------------------------------------------------------------
# evaluation and scalar specializations
# ---------------------------------------------------------------------------


def test_evaluate_spec_examples():
    assert SymFunc("m", {(2, 1): 1}).evaluate((3, 1)) == 12
    assert SymFunc.gen("p", 2).evaluate((2, 2)) == 8
    assert SymFunc("m", {(1, 1, 1): 1}).evaluate((2, 1)) == 0


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    vectors = [(3, 1), (2, 2, 1), (5,), (4, 4, 2, 1)]
    for _ in range(6):
        f = random_symfunc(rng, "p", max_deg=6, nterms=3)
        g = random_symfunc(rng, "e", max_deg=6, nterms=3)
        for v in vectors:
            assert (f * g.convert("p")).evaluate(v) == f.evaluate(v) * g.evaluate(v)


# the p route that evaluation replaced, kept as the reference: expand in p
# (e_n and h_n as Fraction sums over z_mu, m by the transition matrix), then
# substitute the power sums of v


def _old_gen_in_p(basis, n):
    sign = epsilon if basis == "e" else (lambda mu: 1)
    return {mu: Fraction(sign(mu), z_factor(mu)) for mu in enumerate_partitions(n)}


def _old_product_in_p(basis, lam):
    expansion = {(): Fraction(1)}
    for part in lam:
        expansion = symfunc._free_mul(expansion, _old_gen_in_p(basis, part))
    return expansion


def _fractions(expansion):
    """A (denominator, integer numerators) expansion as a map to Fractions."""
    den, numerators = expansion
    return {nu: Fraction(a, den) for nu, a in numerators.items()}


def _p_route(f):
    """The p expansion of f as (denominator, integer numerators)."""
    out = {}
    for lam, c in f.terms.items():
        if f.basis == "p":
            expansion = {lam: 1}
        elif f.basis == "m":
            expansion = _fractions(symfunc.m_in_p(lam))
        else:
            expansion = _old_product_in_p(f.basis, lam)
        symfunc._free_mul({(): c}, expansion, out)
    den = math.lcm(*(c.denominator for c in out.values()))
    return den, {lam: int(c * den) for lam, c in out.items()}


EVAL_POINTS = [v for n in range(0, 9) for v in enumerate_partitions(n)]
POWER_SUMS = {v: [len(v)] + [sum(x**k for x in v) for k in range(1, 11)] for v in EVAL_POINTS}


def _p_route_value(route, v):
    den, numerators = route
    psum = POWER_SUMS[v]
    return Fraction(sum(a * math.prod(psum[part] for part in lam) for lam, a in numerators.items()), den)


def test_evaluate_matches_power_sum_route_on_every_basis_element():
    # every basis element of degree <= 10 at every partition v with |v| <= 8,
    # the empty v included
    for basis in ("m", "p", "e", "h"):
        for d in range(0, 11):
            for lam in enumerate_partitions(d):
                f = SymFunc(basis, {lam: 1})
                route = _p_route(f)
                for v in EVAL_POINTS:
                    assert f.evaluate(v) == _p_route_value(route, v), (basis, lam, v)


def test_evaluate_matches_power_sum_route_on_random_functions():
    rng = random.Random(1510)
    for basis in ("m", "p", "e", "h"):
        for _ in range(5):
            f = random_symfunc(rng, basis, max_deg=10, nterms=6)
            route = _p_route(f)
            for v in EVAL_POINTS:
                assert f.evaluate(v) == _p_route_value(route, v), (basis, f, v)


def test_e_h_products_match_fraction_generator_products():
    for basis in ("e", "h"):
        for d in range(0, 11):
            for lam in enumerate_partitions(d):
                den, numerators = gen_product_in_p(basis, lam)
                got = {nu: Fraction(a, den) for nu, a in numerators.items()}
                assert got == _old_product_in_p(basis, lam), (basis, lam)


# the Newton recurrences that Waring's formula replaced, kept as the reference


def _newton_p_in_e(n):
    """p_n = sum_{k=1}^{n-1} (-1)^{k-1} e_k p_{n-k} + (-1)^{n-1} n e_n."""
    out = {(n,): Fraction((-1) ** (n - 1) * n)}
    for k in range(1, n):
        symfunc._free_mul({(k,): (-1) ** (k - 1)}, _newton_p_in_e(n - k), out)
    return out


def _newton_p_in_h(n):
    """p_n = n h_n - sum_{k=1}^{n-1} h_k p_{n-k}."""
    out = {(n,): Fraction(n)}
    for k in range(1, n):
        symfunc._free_mul({(k,): -1}, _newton_p_in_h(n - k), out)
    return out


def test_waring_p_in_gen_matches_newton_recurrences():
    for n in range(1, 13):
        assert _fractions(p_in_gen("e", n)) == _newton_p_in_e(n), n
        assert _fractions(p_in_gen("h", n)) == _newton_p_in_h(n), n


def test_p_scalar_specialize():
    assert p_scalar_specialize((2, 1), 3) == 9
    assert p_scalar_specialize((), Fraction(7, 2)) == 1
    assert p_scalar_specialize((5,), -2) == -2


def test_m_scalar_specialize():
    assert m_scalar_specialize((1, 1), 3) == 3
    assert m_scalar_specialize((2,), Fraction(5, 3)) == Fraction(5, 3)
    assert m_scalar_specialize((2, 1), 2) == 2


def test_m_scalar_specialize_matches_all_ones_vector():
    for n in range(0, 7):
        for mu in enumerate_partitions(n):
            for t in range(len(mu), 7):
                ones = (1,) * t
                assert m_scalar_specialize(mu, t) == SymFunc("m", {mu: 1}).evaluate(ones)


def test_phi_hat_spec_examples():
    assert phi_hat(1, 0, 0, 9).terms == {(): Fraction(1, 2)}
    ph = phi_hat(0, 0, 1, 2)
    assert ph.terms == {(): Fraction(1, 3), (2,): Fraction(1, 12)}
    assert ph.evaluate((2,)) == Fraction(2, 3)
    # 3! * phi_hat value at (2) recovers the brute-force i^2-weighted triple
    # convolution coefficient: sum_{i+j+k=2} i^2 C_i C_j C_k = 4 C_2
    assert 6 * ph.evaluate((2,)) == 4


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_text_form_sorted_by_degree_then_revlex():
    f = SymFunc("m", {(3, 1): Fraction(8, 5760), (4,): Fraction(3, 5760)})
    assert f.to_text() == "1/1920*m[4] + 1/720*m[3,1]"
    assert SymFunc.zero("p").to_text() == "0"


def test_json_roundtrip():
    f = SymFunc("h", {(2, 2): Fraction(-3, 7), (): 2, (5, 1): 1})
    data = f.to_json_dict()
    assert SymFunc.from_json_dict(data) == f
    assert data["basis"] == "h"
    assert data["terms"][0]["partition"] == [5, 1]


def test_constructor_validation():
    with pytest.raises(ValueError):
        SymFunc("x", {})
    with pytest.raises(ValueError):
        SymFunc("m", {(1, 2): 1})
    assert not SymFunc("m", {(2,): 0}).terms


def test_non_triangular_transition_is_an_error(monkeypatch):
    # every p_mu claims the support {m_(1,1,1)}, the last partition of 3, so
    # the row of p_(3) reaches past the diagonal
    monkeypatch.setattr(symfunc, "_m_in_p", {})
    monkeypatch.setattr(symfunc, "p_in_m", lambda mu: {(1, 1, 1): 1})
    with pytest.raises(RuntimeError, match="not triangular"):
        symfunc._fill_m_to_p(3)

"""Kerov character polynomials and the R / C / Q generator families.

K_r comes from Biane's closed form in the log-moments of a diagram, with no
linear solve, and is served only with a certificate against the character
engine: weight by weight, the cores still live reach full column rank mod p
on sampled diagrams and the closed form matches the integer character on
every pivot diagram, which forces it to equal K_r; 300 seeded other diagrams
and ten held-out ones are checked on top.  The certificate works a block of
diagrams at a time: their free cumulants and core monomials are columns, one
int per diagram, so the Python-level work is paid once per block.  At each
weight a block is the next (live cores - rank) diagrams; a row adds at most
one pivot, so no row is built past the diagram that completes the rank.

Generator-family conversion is a series substitution in the quotient ring
where the degree-one generators vanish: with X = sum (i-1) R_i z^i, the
identities 1/(1-X) = C(z), -log(1-X) = Q(z) and exp(Q(z)) = C(z) give each
generator of one family as a partition sum over the generators of another,
with parts >= 2 (`partitions.series_coefficients`), and each monomial's
expansion is memoized as a suffix product.  Exact arithmetic runs on integer
numerators over one common denominator: a conversion, an evaluation or a
triple sum scales its rationals to integers once and builds one Fraction per
output term.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial, prod
from operator import mul
from typing import NamedTuple

from .characters import normalized_character
from .cumulants import _cumulant_list, _ratio_series
from .linalg import ModularEchelon
from .partitions import (
    Partition,
    enumerate_partitions,
    mult_factorial,
    partition_count,
    power_sum_value,
    series_coefficients,
    triple_sums,
    unrank_partition,
    z_factor,
)
from .symfunc import (Expansion, SparseTerms, _expand, _free_mul, _numerators, _product_expansion,
                      _sort_key, phi_hat)

FAMILIES = ("R", "C", "Q")

CACHE_FORMAT_VERSION = 1

# the most diagrams whose rows are built at once in compute_kerov; no block at
# r <= 25 is split, nor the 300-diagram re-check
ROW_CHUNK = 512


class KerovComputationError(RuntimeError):
    """K_r failed its certificate against the character oracle."""


class CumulantPolynomial(SparseTerms):
    """Polynomial in one generator family, as sparse map monomial -> rational.

    A monomial is the partition of its generator indices; all parts are >= 2
    (the degree-one generators are identically zero) and the empty partition
    indexes the constant term.
    """

    __slots__ = ()
    TAGS, TAG_NAME, MIN_PART = FAMILIES, "family", 2

    @property
    def family(self) -> str:
        return self.tag

    def __add__(self, other: "CumulantPolynomial") -> "CumulantPolynomial":
        if other.family != self.family:
            raise ValueError("cannot add polynomials from different families")
        return CumulantPolynomial(self.family, _free_mul({(): 1}, other.terms, dict(self.terms)))

    def __mul__(self, other: "CumulantPolynomial") -> "CumulantPolynomial":
        if other.family != self.family:
            raise ValueError("cannot multiply polynomials from different families")
        return CumulantPolynomial(self.family, _free_mul(self.terms, other.terms))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CumulantPolynomial):
            return NotImplemented
        return self.family == other.family and self.terms == other.terms

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.terms.items()))))

    def weight_component(self, s: int) -> "CumulantPolynomial":
        return CumulantPolynomial(
            self.family, {mu: c for mu, c in self.terms.items() if sum(mu) == s}
        )

    def weights(self) -> list[int]:
        return sorted({sum(mu) for mu in self.terms})

    def evaluate(self, values: dict[int, Fraction]) -> Fraction:
        """Evaluate with generator i mapped to values[i], in integers.

        With d and e the lcms of the denominators of the values and of the
        coefficients, c_mu prod_i v_i = (e c_mu) prod_i (d v_i) / (e d^l(mu));
        each monomial is raised to the longest length L by d^(L - l(mu)), the
        numerators are summed over shared suffix products and one Fraction
        is built over e d^L.
        """
        if not self.terms:
            return Fraction(0)
        d, scaled = _numerators(values.values())
        scaled = dict(zip(values, scaled))
        e, numerators = _numerators(self.terms.values())
        longest = max(map(len, self.terms))
        lift = [d ** (longest - length) for length in range(longest + 1)]
        products = _suffix_products(self.terms, lambda i, v: scaled[i] * v, 1)
        total = sum(a * p * lift[len(mu)] for mu, a, p in zip(self.terms, numerators, products))
        return Fraction(total, e * d**longest)

    def _monomial_text(self, mu: Partition) -> str:
        return "*".join(f"{self.family}{i}" for i in mu) or "1"


class KerovPolynomial(NamedTuple):
    r: int
    poly: CumulantPolynomial


def kerov_findings(k: KerovPolynomial) -> list[str]:
    """Check the structural claims on K_r; violations are findings, not crashes.

    Checked: monic top term R_{r+1}, vanishing of weights with the parity of
    r, and nonnegative integer coefficients.
    """
    findings = []
    r, terms = k.r, k.poly.terms
    if terms.get((r + 1,)) != 1:
        findings.append(f"K_{r}: top term is not R_{r + 1} with coefficient 1")
    for mu, c in terms.items():
        if sum(mu) == r + 1 and mu != (r + 1,):
            findings.append(f"K_{r}: unexpected weight-{r + 1} monomial {mu}")
        if sum(mu) % 2 == r % 2:
            findings.append(f"K_{r}: parity rule violated by monomial {mu}")
        if c.denominator != 1 or c < 0:
            findings.append(f"K_{r}: coefficient of {mu} is {c}, not a nonnegative integer")
    return findings


# ---------------------------------------------------------------------------
# K_r in closed form, certified against the character oracle
# ---------------------------------------------------------------------------


def kerov_support(r: int) -> list[Partition]:
    """Monomials that can appear in K_r: parts >= 2, weight <= r+1, weight ~ r+1 mod 2."""
    support = [mu for w in range(r + 1, -1, -2) for mu in enumerate_partitions(w, 2)]
    return sorted(support, key=_sort_key)


def _core(mu: Partition) -> Partition:
    return tuple(p for p in mu if p != 2)


def _cores(r: int) -> Counter:
    """Core g (free of 2s) -> chain length L_g: the support holds g * R_2^i, i < L_g."""
    return Counter(_core(mu) for mu in kerov_support(r))


# L_n = n [u^n] log M(u) for the moment series M; Lagrange inversion of
# M = 1 + sum R_s (uM)^s gives
# L_n = sum over mu |- n with parts >= 2 of n! / ((n - l(mu))! prod m_i(mu)!) R_mu.
def _log_moment(n: int) -> Expansion:
    return 1, {mu: factorial(n) // (factorial(n - len(mu)) * mult_factorial(mu))
               for mu in enumerate_partitions(n, 2)}


def _closed_form(r: int) -> dict[Partition, Fraction]:
    """The terms of K_r from Biane's formula (LNM 1815, 2003), with no solve.

    Sigma_r = -(1/r) [u^{r+1}] prod_{j<r} (1 - ju) / M(u/(1 - ju)), whose log
    is sum_N Lambda_N u^N, Lambda_N = -S_N/N - sum_n C(N-1, N-n) S_{N-n} L_n/n
    with S_m = sum_{j<r} j^m.  Solving the Newton recurrence for its exp
    monomial by monomial, with c(u) = prod_{j<r} (1 - ju) and
    B_n(u) = sum_{j<r} (u/(1-ju))^n, gives
    K_r = sum_nu (-1)^{l(nu)+1} / (r z_nu) [u^{r+1}] (c(u) prod_i B_{nu_i}(u)) L_nu.
    The u-series are integer suffix products; only the last step divides.
    """
    top = r + 1
    s = [sum(j**m for j in range(r)) for m in range(top + 1)]
    c = [col[0] for col in _ratio_series([[j] for j in range(1, r)], [], top, 1)]
    series = {(): c}  # nu -> c(u) prod_i B_{nu_i}(u) / u^|nu|, to degree r + 1 - |nu|

    def product(nu: Partition) -> list[int]:
        got = series.get(nu)
        if got is None:
            rest = product(nu[1:])
            b = [comb(nu[0] + k - 1, k) * s[k] for k in range(top - sum(nu) + 1)]  # B_n / u^n
            got = series[nu] = [sum(map(mul, b[: k + 1], rest[k::-1])) for k in range(len(b))]
        return got

    scale, out = factorial(top), {}  # z_nu divides |nu|!, hence (r+1)!
    log_moments = {}  # nu -> L_nu = prod L_{nu_i} in the R_i, by suffix; freed on return
    for w in range(top + 1):
        for nu in enumerate_partitions(w, 2):
            coef = (-1) ** (len(nu) + 1) * (scale // z_factor(nu)) * product(nu)[top - w]
            if coef:
                _, monomial = _product_expansion(log_moments, "L", nu, _log_moment)
                _free_mul({(): coef}, monomial, out)
    return {mu: Fraction(v, r * scale) for mu, v in out.items()}


def _suffix_products(monomials, times, one) -> list:
    """prod_i g_{mu_i} for each monomial mu, with times(i, v) = g_i * v.

    Suffixes of a (parts >= 2)-partition are again such partitions, so each
    suffix product is computed once and shared.
    """
    cache = {(): one}

    def value(mu):
        v = cache.get(mu)
        if v is None:
            v = cache[mu] = times(mu[0], value(mu[1:]))
        return v

    return [value(mu) for mu in monomials]


def _evaluation_row(monomials, cols) -> list[list[int]]:
    """The monomials' columns over a block of diagrams (row i of the result's
    transpose is diagram i's row), from its cumulant columns: cols[k][i] is
    R_k of diagram i."""
    return _suffix_products(monomials, lambda i, v: list(map(mul, cols[i], v)), [1] * len(cols[0]))


def _integer_character(lam: Partition, r: int) -> int:
    chi = normalized_character(lam, r)
    if chi.denominator != 1:
        raise KerovComputationError(
            f"K_{r}: normalized character at lambda={lam} is {chi}, not an integer"
        )
    return int(chi)


def compute_kerov(r: int) -> KerovPolynomial:
    """K_r from its closed form F, certified against the character oracle.

    On weight n, R_2 = n, so D = F - K_r is sum_g g * d_g(n) over the cores g,
    with deg d_g < L_g.  At n = r + j the cores with L_g <= j are dead (d_g
    vanished at L_g earlier weights); diagrams of weight n join an echelon mod
    p over the live cores until it has full column rank (so full rank over Q),
    and F must equal the integer character on every pivot diagram.  That
    forces d_g(n) = 0 for the live cores, so D = 0 after the longest chain.
    A seeded 300 of the other diagrams are checked too, as one block, and
    ten held out.  Rows are built a block at a time, each block as long as
    the rank still missing and built in chunks of at most ROW_CHUNK
    diagrams, so the rows and pivots are those of adding the diagrams one
    by one.  No weight is enumerated: the blocks, the re-check
    and the held-out picks are unranked from a lazy view of the diagrams.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    terms = _closed_form(r)
    outside = set(terms).difference(kerov_support(r))
    if outside:
        raise KerovComputationError(f"K_{r}: closed form leaves the support at {min(outside)}")
    chains = _cores(r)
    cores = list(chains)
    den, numerators = _numerators(terms.values())  # den * F = sum_g g * f_g(R_2)
    f_coeffs = {g: [0] * length for g, length in chains.items()}
    for mu, a in zip(terms, numerators):
        f_coeffs[_core(mu)][mu.count(2)] = a
    f_values: dict[int, list[int]] = {}  # n -> f_g(n) for every core

    def rows_of(block: list[Partition]):
        """The core row of each diagram of the block, built ROW_CHUNK diagrams
        at a time."""
        for i in range(0, len(block), ROW_CHUNK):
            chunk = block[i:i + ROW_CHUNK]
            yield from zip(*_evaluation_row(cores, _cumulant_list(chunk, r + 1)))

    def check(lam: Partition, row: list[int]) -> None:
        n = sum(lam)
        if n not in f_values:
            f_values[n] = [sum(a * n**i for i, a in enumerate(f_coeffs[g])) for g in cores]
        if sum(map(mul, row, f_values[n])) != den * _integer_character(lam, r):
            raise KerovComputationError(f"K_{r}: closed form does not fit diagram {lam}")

    others = _Diagrams()  # the diagrams of these weights, less the pivots
    for j in range(max(chains.values())):
        n = r + j
        live = [k for k, g in enumerate(cores) if chains[g] > j]
        ech = ModularEchelon(len(live))
        start = others.ends[-1]
        others.add(n)
        while ech.rank < len(live):  # each row adds at most one pivot
            ranks = range(start, min(others.ends[-1], start + len(live) - ech.rank))
            if not ranks:
                raise KerovComputationError(
                    f"K_{r}: rank {ech.rank} of {len(live)} live cores at weight {n}"
                )
            block = [others.at(i) for i in ranks]
            for i, lam, row in zip(ranks, block, rows_of(block)):
                if ech.add_row([row[k] for k in live]):
                    check(lam, row)
                    others.skip.append(i)
            start = ranks.stop
    picks = random.Random(20_000 + r).sample(range(len(others)), min(300, len(others)))
    recheck = [others[i] for i in picks]
    for lam, row in zip(recheck, rows_of(recheck)):
        check(lam, row)
    others.skip = sorted(others.skip + [others.position(i) for i in picks])  # the held-out pool
    while len(others) < 10:  # small r: add the next weights, none of them sampled
        n += 1
        others.add(n)
    kp = KerovPolynomial(r, CumulantPolynomial("R", terms))
    _verify_held_out(kp, others)
    return kp


class _Diagrams(Sequence):
    """The diagrams of a run of weights in enumerate_partitions order, less
    the sorted positions in skip; each is unranked only when read."""

    def __init__(self):
        self.weights, self.ends, self.skip = [], [0], []  # skip: positions among all

    def add(self, n: int) -> None:
        self.weights.append(n)
        self.ends.append(self.ends[-1] + partition_count(n))

    def __len__(self) -> int:
        return self.ends[-1] - len(self.skip)

    def position(self, i: int) -> int:
        """Where the i-th diagram not skipped sits: the least p = i + #(skip <= p)."""
        if not 0 <= i < len(self):
            raise IndexError(i)
        p = i
        while (q := i + bisect_right(self.skip, p)) != p:
            p = q
        return p

    def at(self, p: int) -> Partition:
        k = bisect_right(self.ends, p) - 1
        return unrank_partition(self.weights[k], p - self.ends[k])

    def __getitem__(self, i: int) -> Partition:
        return self.at(self.position(i))


def _verify_held_out(kp: KerovPolynomial, pool: Sequence[Partition]) -> list[Partition]:
    """Evaluate the polynomial at the free cumulants of ten seeded diagrams of
    the pool against the oracle; returns the ten."""
    r = kp.r
    picks = random.Random(10_000 + r).sample(pool, 10)
    cols = _cumulant_list(picks, r + 1)
    for i, lam in enumerate(picks):
        got = kp.poly.evaluate({k: cols[k][i] for k in range(2, r + 2)})
        want = normalized_character(lam, r)
        if got != want:
            raise KerovComputationError(
                f"K_{r}: held-out check failed at lambda={lam}: {got} != {want}"
            )
    return picks


def graded_component(kp: KerovPolynomial, s: int) -> CumulantPolynomial:
    """The weight-s part K_{r,s}; the zero polynomial when nothing has weight s."""
    return kp.poly.weight_component(s)


# ---------------------------------------------------------------------------
# family conversion by series substitution in the quotient ring
# ---------------------------------------------------------------------------

# Each family as a generating series: C(z) = 1 + sum C_i z^i, Q(z) = sum Q_i z^i
# and H(z) = 1 - X(z) = 1 - sum (i-1) R_i z^i standing for R.  Between them
# H = 1/C, C = exp(Q) and Q = -log H, so the source series is F(target series)
# and its z^i coefficient is a partition sum with phi(l) = l! [x^l] F:
# _PHI[(src, dst)] is that phi, with the weight i - 1 of X when dst is R.
_PHI = {
    ("C", "R"): factorial,
    ("Q", "R"): lambda l: factorial(l - 1),
    ("R", "C"): lambda l: (-1) ** l * factorial(l),
    ("R", "Q"): lambda l: (-1) ** l,
    ("C", "Q"): lambda l: 1,
    ("Q", "C"): lambda l: (-1) ** (l - 1) * factorial(l - 1),
}
# ((src, dst), mu) -> the source monomial mu in the target generators
_monomials: dict[tuple[tuple[str, str], Partition], Expansion] = {}


def _monomial(src: str, dst: str, mu: Partition) -> Expansion:
    """The source monomial mu in the target generators, generator by generator."""
    def gen(i):
        weight = (lambda j: j - 1) if dst == "R" else (lambda j: 1)
        coeffs = series_coefficients(i, 2, _PHI[(src, dst)], weight)
        den, numerators = _numerators(coeffs.values())
        if src == "R":  # (i-1) R_i = -H_i
            den, numerators = den * (i - 1), [-a for a in numerators]
        return den, dict(zip(coeffs, numerators))

    return _product_expansion(_monomials, (src, dst), mu, gen)


def change_generators(poly: CumulantPolynomial, target: str) -> CumulantPolynomial:
    """Re-express a polynomial in another generator family, exactly.

    The conversion is a series substitution in the quotient ring where the
    degree-one generators vanish: through 1/(1-X) = C, -log(1-X) = Q and
    exp(Q) = C with X = sum (i-1) R_i z^i, each source generator is one
    partition sum over the target generators, and the expansion of each
    source monomial is memoized.
    """
    if target not in FAMILIES:
        raise ValueError(f"unknown family {target!r}")
    if target == poly.family:
        return poly
    den, numerators = _numerators(poly.terms.values())
    den, out = _expand(den, zip(poly.terms, numerators),
                       lambda mu: _monomial(poly.family, target, mu))
    return CumulantPolynomial(target, {nu: Fraction(v, den) for nu, v in out.items()})


# ---------------------------------------------------------------------------
# closed forms and the weighted triple sums
# ---------------------------------------------------------------------------


def krr1_closed_form(r: int) -> CumulantPolynomial:
    """Weight r-1 component: (1/4) C(r+1,3) sum l(mu)! script-R_mu over |mu| = r-1."""
    if r < 2:
        raise ValueError("r must be >= 2")
    pref = Fraction(comb(r + 1, 3), 4)
    terms = series_coefficients(r - 1, 2, factorial, lambda i: i - 1)
    return CumulantPolynomial("R", {mu: pref * c for mu, c in terms.items()})


def a_coeff(r: int) -> Fraction:
    return -Fraction((r - 1) * (r - 3) * (r * r - 4 * r - 6), 2880)


def b_coeff(r: int) -> Fraction:
    return Fraction(2 * r * r - 3, 480)


def krr3_closed_form(r: int) -> CumulantPolynomial:
    """Weight r-3 component via the triple C-sum with weight a(r) + b(r) i^2."""
    if r < 5:
        raise ValueError("r must be >= 5")
    c_poly = triple_sum_bruteforce(a_coeff(r), 0, b_coeff(r), r - 3).scale(comb(r + 1, 3))
    return change_generators(c_poly, "R")


def triple_sum_bruteforce(a, b, c, n: int) -> CumulantPolynomial:
    """sum over (i,j,k) with i+j+k = n of (a + b i + c i^2) C_i C_j C_k.

    Triples containing 1 drop out (C_1 = 0); zeros contribute C_0 = 1.  The
    weights are summed in integers, with a, b and c over one denominator.
    """
    d, (a, b, c) = _numerators(map(Fraction, (a, b, c)))
    sums = triple_sums(n, lambda i: a + b * i + c * i * i)  # d times each summed weight
    return CumulantPolynomial("C", {mu: Fraction(v, d) for mu, v in sums.items() if 1 not in mu})


def weighted_triple_sum(a, b, c, n: int, family: str) -> CumulantPolynomial:
    """Closed form of the weighted triple C-sum in the R or Q family.

    R form: (l(mu)+2)! phi_hat(mu) script-R_mu summed over |mu| = n;
    Q form: 3^l(mu) (a + b n/3 + (c/9)(n^2 + 2 p_2(mu))) script-Q_mu.
    One Fraction per monomial: with a, b, c = A, B, C over d, the Q coefficient
    is 3^l (9A + 3Bn + C(n^2 + 2 p_2)) / (9 d prod_i m_i(mu)!).
    """
    if family not in ("R", "Q"):
        raise ValueError("family must be 'R' or 'Q'")
    terms = {}
    if family == "R":
        kernel = phi_hat(a, b, c, n).terms  # its p-terms, evaluated in integers
        den, numerators = _numerators(kernel.values())
        for mu in enumerate_partitions(n, 2):
            value = sum(coef * prod(power_sum_value(k, mu) for k in lam)
                        for lam, coef in zip(kernel, numerators))
            fac = factorial(len(mu) + 2) * prod(i - 1 for i in mu)
            terms[mu] = Fraction(fac * value, den * mult_factorial(mu))
    else:
        d, (a, b, c) = _numerators(map(Fraction, (a, b, c)))
        for mu in enumerate_partitions(n, 2):
            value = 9 * a + 3 * b * n + c * (n * n + 2 * power_sum_value(2, mu))
            terms[mu] = Fraction(3 ** len(mu) * value, 9 * d * mult_factorial(mu))
    return CumulantPolynomial(family, terms)


# ---------------------------------------------------------------------------
# provider with in-memory and on-disk caching
# ---------------------------------------------------------------------------


def _cache_payload(kp: KerovPolynomial) -> dict:
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "r": kp.r,
        "terms": kp.poly.terms_json(),
    }


class KerovProvider:
    """Caching access to computed K_r, optionally persisted as JSON files.

    `get` and `precompute` end in one keep step: the K_r goes to memory and,
    with a cache_dir, to disk.  precompute's process pool maps compute_kerov
    and returns its KerovPolynomials.  Cache files are written once via an
    atomic rename; partial or version-stale files are ignored and regenerated.
    """

    def __init__(self, cache_dir: str | None = None):
        self.cache_dir = cache_dir
        self._mem: dict[int, KerovPolynomial] = {}

    def get(self, r: int) -> KerovPolynomial:
        if r not in self._mem and self._load_disk(r) is None:  # a disk hit is memoized
            self._keep([compute_kerov(r)])
        return self._mem[r]

    def component(self, r: int, s: int, family: str = "R") -> CumulantPolynomial:
        comp = graded_component(self.get(r), s)
        return change_generators(comp, family)

    def precompute(self, rs, jobs: int = 1) -> None:
        todo = [r for r in sorted(set(rs)) if r not in self._mem and self._load_disk(r) is None]
        if jobs > 1 and len(todo) > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
                    self._keep(pool.map(compute_kerov, todo))
                return
            except (OSError, ImportError):
                pass  # no process pool available: fall back to sequential
        self._keep(map(compute_kerov, todo))

    def _keep(self, kps) -> None:
        for kp in kps:
            self._mem[kp.r] = kp
            self._store_disk(kp)

    def _cache_path(self, r: int) -> str | None:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"kerov_r{r}.json")

    def _load_disk(self, r: int) -> KerovPolynomial | None:
        path = self._cache_path(r)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if data.get("format_version") != CACHE_FORMAT_VERSION or data.get("r") != r:
                return None
            kp = KerovPolynomial(r, CumulantPolynomial.from_terms_json("R", data["terms"]))
        except (ValueError, KeyError, OSError):
            return None  # partial or corrupt file: regenerate
        self._mem[r] = kp
        return kp

    def _store_disk(self, kp: KerovPolynomial) -> None:
        path = self._cache_path(kp.r)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        payload = json.dumps(_cache_payload(kp), separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)

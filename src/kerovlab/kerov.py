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

K_r and its components are SymFuncs in the R, C or Q family, and
`change_generators` is `SymFunc.convert` held to the families: a series
substitution in the quotient ring where the degree-one generators vanish,
read from `symfunc.SUBSTITUTIONS` and memoized by `symfunc.monomial_in`.
Every weighted triple sum's closed form (of the C_i in R or Q, of the e_i
in h or p) is one row of TRIPLE_FORMS, and `character_mismatches` checks K_r
against the characters a block of diagrams at a time.  Exact arithmetic runs
on integer numerators over one common denominator: a conversion, an
evaluation or a triple sum builds one Fraction per output term.
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
    triple_sums,
    unrank_partition,
    z_factor,
)
from .symfunc import FAMILIES, SymFunc, _free_mul, _numerators, _sort_key

# K_r and its components are SymFuncs in a cumulant family, under this name too
CumulantPolynomial = SymFunc

CACHE_FORMAT_VERSION = 1

# the most diagrams whose rows are built at once: of 64..512 the lowest peak RSS at
# r = 25..33, in the same time; the re-check splits from r = 7, the first block from 16
ROW_CHUNK = 64


class KerovComputationError(RuntimeError):
    """K_r failed its certificate against the character oracle."""


class KerovPolynomial(NamedTuple):
    r: int
    poly: SymFunc


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


def _closed_form(r: int) -> dict[Partition, Fraction]:
    """The terms of K_r from Biane's formula (LNM 1815, 2003), with no solve.

    Sigma_r = -(1/r) [u^{r+1}] prod_{j<r} (1 - ju) / M(u/(1 - ju)), whose log
    is sum_N Lambda_N u^N, Lambda_N = -S_N/N - sum_n C(N-1, N-n) S_{N-n} L_n/n
    with S_m = sum_{j<r} j^m and L_n = n [u^n] log M(u), which Lagrange
    inversion of M = 1 + sum R_s (uM)^s makes the sum over mu |- n with parts
    >= 2 of n! / ((n - l(mu))! prod m_i(mu)!) R_mu.  Solving the Newton
    recurrence for its exp monomial by monomial, with c(u) = prod_{j<r} (1 - ju)
    and B_n(u) = sum_{j<r} (u/(1-ju))^n, gives K_r = sum_nu coef(nu) L_nu / (r (r+1)!),
    coef(nu) = (-1)^{l(nu)+1} ((r+1)! / z_nu) [u^{r+1}] c(u) prod_i B_{nu_i}(u).
    That sum is T(()) by Horner's rule on the trie of the nu (parts weakly
    decreasing), T(nu) = coef(nu) + sum_n L_n T(nu + (n,)); each node's integer
    u-series is its parent's times B_n / u^n, so no product over a nu is kept.
    """
    top = r + 1
    s = [sum(j**m for j in range(r)) for m in range(top + 1)]
    c = [col[0] for col in _ratio_series([[j] for j in range(1, r)], [], top, 1)]
    scale = factorial(top)  # z_nu divides |nu|!, hence (r+1)!
    log_moments = [{mu: factorial(n) // (factorial(n - len(mu)) * mult_factorial(mu))
                    for mu in enumerate_partitions(n, 2)} for n in range(top + 1)]

    def times(n: int, rest: list[int]) -> list[int]:  # (B_n / u^n) rest, to len(rest) - n terms
        b = [comb(n + k - 1, k) * s[k] for k in range(len(rest) - n)]
        return [sum(map(mul, b[: k + 1], rest[k::-1])) for k in range(len(b))]

    def horner(nu: Partition, u_series: list[int]) -> dict[Partition, int]:
        coef = (-1) ** (len(nu) + 1) * (scale // z_factor(nu)) * u_series[-1]
        total = {(): coef} if coef else {}
        for n in range(2, min(nu[-1] if nu else top, len(u_series) - 1) + 1):
            _free_mul(log_moments[n], horner(nu + (n,), times(n, u_series)), total)
        return total

    return {mu: Fraction(v, r * scale) for mu, v in horner((), c).items()}


def _evaluation_row(monomials, cols) -> list[list[int]]:
    """The monomials' columns over a block of diagrams (row i of the result's
    transpose is diagram i's row), from its cumulant columns: cols[k][i] is
    R_k of diagram i.  Suffixes of a (parts >= 2)-partition are again such
    partitions, so each suffix's column is computed once and shared."""
    cache = {(): [1] * len(cols[0])}

    def column(mu):
        v = cache.get(mu)
        if v is None:
            v = cache[mu] = list(map(mul, cols[mu[0]], column(mu[1:])))
        return v

    return [column(mu) for mu in monomials]


def _rows(monomials, lams: list[Partition], k_max: int):
    """Each diagram's row of monomial values, built ROW_CHUNK diagrams at a time."""
    for i in range(0, len(lams), ROW_CHUNK):
        yield from zip(*_evaluation_row(monomials, _cumulant_list(lams[i:i + ROW_CHUNK], k_max)))


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
            for i, lam, row in zip(ranks, block, _rows(cores, block, r + 1)):
                if ech.add_row([row[k] for k in live]):
                    check(lam, row)
                    others.skip.append(i)
            start = ranks.stop
    picks = random.Random(20_000 + r).sample(range(len(others)), min(300, len(others)))
    recheck = [others[i] for i in picks]
    for lam, row in zip(recheck, _rows(cores, recheck, r + 1)):
        check(lam, row)
    others.skip = sorted(others.skip + [others.position(i) for i in picks])  # the held-out pool
    while len(others) < 10:  # small r: add the next weights, none of them sampled
        n += 1
        others.add(n)
    kp = KerovPolynomial(r, SymFunc("R", terms))
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
    """Check the polynomial against the oracle on ten seeded diagrams of the
    pool, as one block; returns the ten."""
    r = kp.r
    picks = random.Random(10_000 + r).sample(pool, 10)
    for lam, _, got, want in character_mismatches([kp], picks):
        raise KerovComputationError(
            f"K_{r}: held-out check failed at lambda={lam}: {got} != {want}"
        )
    return picks


def character_mismatches(kps: Sequence[KerovPolynomial], lams: Sequence[Partition]):
    """(lam, r, K_r(lam), chi) wherever K_r differs from the normalized
    character, diagram by diagram and then in the order of kps.  One block of
    free cumulants per ROW_CHUNK diagrams serves every K_r, each evaluated on
    it as its integer numerators dotted with its monomials' columns."""
    if not kps:
        return
    forms = [(kp.r, list(kp.poly.terms), *_numerators(kp.poly.terms.values())) for kp in kps]
    k_max = max(kp.r for kp in kps) + 1
    for i in range(0, len(lams), ROW_CHUNK):
        block = lams[i:i + ROW_CHUNK]
        cols = _cumulant_list(block, k_max)
        values = [(r, den, [sum(map(mul, numerators, row))
                            for row in zip(*_evaluation_row(monomials, cols))])
                  for r, monomials, den, numerators in forms]
        for j, lam in enumerate(block):
            for r, den, got in values:
                want = normalized_character(lam, r)
                if got[j] * want.denominator != want.numerator * den:
                    yield lam, r, Fraction(got[j], den), want


def graded_component(kp: KerovPolynomial, s: int) -> SymFunc:
    """The weight-s part K_{r,s}; the zero polynomial when nothing has weight s."""
    return SymFunc(kp.poly.basis, {mu: c for mu, c in kp.poly.terms.items() if sum(mu) == s})


# ---------------------------------------------------------------------------
# family conversion by series substitution in the quotient ring
# ---------------------------------------------------------------------------


def change_generators(poly: SymFunc, target: str) -> SymFunc:
    """Re-express a polynomial in another generator family, exactly."""
    if target not in FAMILIES:
        raise ValueError(f"unknown family {target!r}")
    return poly.convert(target)


# ---------------------------------------------------------------------------
# closed forms and the weighted triple sums
# ---------------------------------------------------------------------------


def krr1_closed_form(r: int) -> SymFunc:
    """Weight r-1 component: (1/4) C(r+1,3) C_{r-1}, in the R family."""
    if r < 2:
        raise ValueError("r must be >= 2")
    return SymFunc.gen("C", r - 1).convert("R").scale(Fraction(comb(r + 1, 3), 4))


def a_coeff(r: int) -> Fraction:
    return -Fraction((r - 1) * (r - 3) * (r * r - 4 * r - 6), 2880)


def b_coeff(r: int) -> Fraction:
    return Fraction(2 * r * r - 3, 480)


def krr3_closed_form(r: int) -> SymFunc:
    """Weight r-3 component via the triple C-sum with weight a(r) + b(r) i^2."""
    if r < 5:
        raise ValueError("r must be >= 5")
    c_poly = triple_sum_bruteforce(a_coeff(r), 0, b_coeff(r), r - 3).scale(comb(r + 1, 3))
    return change_generators(c_poly, "R")


def triple_sum_bruteforce(a, b, c, n: int, basis: str = "C") -> SymFunc:
    """sum over (i,j,k) with i+j+k = n of (a + b i + c i^2) X_i X_j X_k, X = C or e.

    Zeros contribute X_0 = 1 and, for C, triples containing 1 drop out (C_1 = 0).
    The weights are summed in integers, with a, b and c over one denominator.
    """
    if basis not in ("C", "e"):
        raise ValueError("basis must be 'C' or 'e'")
    d, (a, b, c) = _numerators(map(Fraction, (a, b, c)))
    sums = triple_sums(n, lambda i: a + b * i + c * i * i)  # d times each summed weight
    return SymFunc(basis, {mu: Fraction(v, d) for mu, v in sums.items()
                           if basis == "e" or 1 not in mu})


# The weighted triple sum of the C_i (in R or Q) or of the e_i (in h or p) is
# the coefficient of z^n in a G(z)^3, through 1/(1 - X) for R and h and through
# exp for Q and p.  Each row is basis -> (min_part, phi, weight, denominator,
# kernel): over |mu| = n with parts >= min_part, the coefficient of g_mu is
# phi(l(mu)) prod_j weight(mu_j) K(mu) / denominator(mu).  The kernel (q, x, y, v)
# is K = (x a + y b n + c (n^2 + v p_2(mu))) / q: phi_hat, a/2 + b n/6 +
# c (n^2 + p_2)/12, for R and h, and a + b n/3 + (c/9)(n^2 + 2 p_2) for Q and p.
TRIPLE_FORMS = {
    "R": (2, lambda l: factorial(l + 2), lambda i: i - 1, mult_factorial, (12, 6, 2, 1)),
    "h": (1, lambda l: factorial(l + 2), lambda i: (-1) ** (i - 1), mult_factorial, (12, 6, 2, 1)),
    "Q": (2, lambda l: 3**l, lambda i: 1, mult_factorial, (9, 9, 3, 2)),
    "p": (1, lambda l: 3**l, lambda i: (-1) ** (i - 1), z_factor, (9, 9, 3, 2)),
}


def weighted_triple_sum(a, b, c, n: int, basis: str) -> SymFunc:
    """Closed form of the weighted triple sum, the C-sum in R or Q or the e-sum
    in h or p, from its TRIPLE_FORMS row, with one Fraction per monomial."""
    if basis not in TRIPLE_FORMS:
        raise ValueError(f"basis must be one of {', '.join(TRIPLE_FORMS)}")
    min_part, phi, weight, denominator, (q, x, y, v) = TRIPLE_FORMS[basis]
    d, (a, b, c) = _numerators(map(Fraction, (a, b, c)))  # K = (k0 + k2 p_2) / (q d)
    k0, k2 = x * a + y * b * n + c * n * n, v * c
    return SymFunc(basis, {
        mu: Fraction(phi(len(mu)) * prod(map(weight, mu)) * (k0 + k2 * power_sum_value(2, mu)),
                     q * d * denominator(mu))
        for mu in enumerate_partitions(n, min_part)
    })


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

    def component(self, r: int, s: int, family: str = "R") -> SymFunc:
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
            # _cache_payload's shape, on which the parser raises only ValueError/KeyError
            terms = data.get("terms") if isinstance(data, dict) else None
            if (
                not isinstance(terms, list)
                or (data.get("format_version"), data.get("r")) != (CACHE_FORMAT_VERSION, r)
                or not all(isinstance(t, dict) for t in terms)
                or not all(isinstance(t.get("partition"), list) for t in terms)
                or not all(isinstance(p, int) for t in terms for p in t["partition"])
            ):
                return None  # another version or r, or a wrong shape: regenerate
            kp = KerovPolynomial(r, SymFunc.from_terms_json("R", terms))
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

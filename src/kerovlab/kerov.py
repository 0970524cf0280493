"""Kerov character polynomials and the R / C / Q generator families.

K_r is reconstructed by exact interpolation against the character engine:
the unknown support is the parity-admissible set of cumulant monomials, rows
are diagrams sampled weight by weight until the evaluation matrix provably
reaches full column rank, and the solved polynomial is re-verified against
the character oracle on held-out diagrams.

Generator-family conversion is a series substitution in the quotient ring
where the degree-one generators vanish: with X = sum (i-1) R_i z^i, the
identities 1/(1-X) = C(z), -log(1-X) = Q(z) and exp(Q(z)) = C(z) give each
generator of one family as a polynomial in another over indices with parts
>= 2, and each monomial's expansion is memoized as a suffix product.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .characters import normalized_character
from .cumulants import _cumulant_list, c_values, free_cumulants, q_values
from .linalg import ModularEchelon, solve_exact
from .partitions import (
    Partition,
    check_partition,
    enumerate_partitions,
    format_rational,
    mult_factorial,
    multiplicities,
    power_sum_value,
)
from .symfunc import _free_mul, _sort_key, phi_hat

FAMILIES = ("R", "C", "Q")

CACHE_FORMAT_VERSION = 1
CACHE_ENV_VAR = "KEROVLAB_CACHE"


def default_sampling_budget(r: int) -> int:
    """Largest number of weights sampled: n = r, ..., r + budget - 1.

    For a core monomial g in the R_k (k >= 3) alone, the chain g * R_2^j
    restricts on each fixed-weight stratum to a multiple of g, so telling the
    chain members apart needs as many distinct weights as the chain is long.
    The longest chain has the empty core for odd r and core (3) for even r;
    two extra weights of margin are added on top.  The same chains bound the
    rank each weight can add, which lets compute_kerov stop every weight at
    its bound; the budget only caps how many weights may be visited.
    """
    chain = (r + 1) // 2 + 1 if r % 2 else (r - 2) // 2 + 1
    return max(4, chain + 2)


class KerovComputationError(RuntimeError):
    """Interpolation could not be completed or failed its self-checks."""


class CumulantPolynomial:
    """Polynomial in one generator family, as sparse map monomial -> rational.

    A monomial is the partition of its generator indices; all parts are >= 2
    (the degree-one generators are identically zero) and the empty partition
    indexes the constant term.
    """

    __slots__ = ("family", "terms")

    def __init__(self, family: str, terms=None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        clean: dict[Partition, Fraction] = {}
        for mu, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            mu = check_partition(mu)
            if mu and mu[-1] < 2:
                raise ValueError(f"monomial {mu} has a part < 2")
            clean[mu] = c
        self.terms = clean

    @classmethod
    def zero(cls, family: str = "R") -> "CumulantPolynomial":
        return cls(family, {})

    @classmethod
    def gen(cls, family: str, i: int) -> "CumulantPolynomial":
        """The single generator of index i; i = 0 gives the constant 1."""
        if i == 1:
            return cls(family, {})  # degree-one generators vanish
        return cls(family, {() if i == 0 else (i,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CumulantPolynomial") -> "CumulantPolynomial":
        if other.family != self.family:
            raise ValueError("cannot add polynomials from different families")
        return CumulantPolynomial(self.family, _free_mul({(): 1}, other.terms, dict(self.terms)))

    def __sub__(self, other: "CumulantPolynomial") -> "CumulantPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "CumulantPolynomial":
        c = Fraction(c)
        return CumulantPolynomial(self.family, {mu: c * v for mu, v in self.terms.items()})

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
        """Evaluate with generator i mapped to values[i]."""
        total = Fraction(0)
        for mu, c in self.terms.items():
            v = c
            for i in mu:
                v *= values[i]
            total += v
        return total

    def sorted_terms(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mu, c in self.sorted_terms():
            mono = "*".join(f"{self.family}{i}" for i in mu) or "1"
            bits.append(f"{format_rational(c)}*{mono}")
        return " + ".join(bits)

    def terms_json(self) -> list[dict]:
        return [
            {"partition": list(mu), "coef": format_rational(c)}
            for mu, c in self.sorted_terms()
        ]

    @classmethod
    def from_terms_json(cls, family: str, terms: list[dict]) -> "CumulantPolynomial":
        return cls(family, {tuple(t["partition"]): Fraction(t["coef"]) for t in terms})

    def __repr__(self):
        return f"CumulantPolynomial[{self.family}]({self.to_text()})"


@dataclass(frozen=True)
class KerovPolynomial:
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
# interpolation against the character oracle
# ---------------------------------------------------------------------------


def kerov_support(r: int) -> list[Partition]:
    """Monomials that can appear in K_r: parts >= 2, weight <= r+1, weight ~ r+1 mod 2."""
    support: list[Partition] = []
    for w in range(r + 1, -1, -1):
        if w % 2 != (r + 1) % 2:
            continue
        support.extend(enumerate_partitions(w, 2))
    return sorted(support, key=_sort_key)


def _evaluation_row(support, cums, cache) -> list[int]:
    # suffixes of a (parts >= 2)-partition are again such partitions, so a
    # shared per-diagram suffix cache cuts the multiplication count
    def value(mu):
        v = cache.get(mu)
        if v is None:
            v = cums[mu[0]] * value(mu[1:]) if mu else 1
            cache[mu] = v
        return v

    return [value(mu) for mu in support]


def _integer_character(lam: Partition, r: int) -> int:
    chi = normalized_character(lam, r)
    if chi.denominator != 1:
        raise KerovComputationError(
            f"K_{r}: normalized character at lambda={lam} is {chi}, not an integer"
        )
    return int(chi)


def compute_kerov(r: int, sampling_budget: int | None = None) -> KerovPolynomial:
    """Interpolate K_r from normalized character values.

    Diagrams are sampled by increasing weight starting at n = r until the
    evaluation matrix reaches full column rank (certified modulo a word-size
    prime), the square pivot subsystem is solved exactly, the solution is
    checked against the sampled non-pivot rows (a seeded sample of 300 when
    there are more than 3,000), and finally re-verified on ten held-out
    diagrams of weight up to r + 6.

    Each weight stops at its rank bound.  A support monomial is core * R_2^i
    with a core free of 2s, and R_2 = n on every diagram of weight n, so on
    weights r..r+j the columns of one core span at most min(L, j + 1)
    dimensions, L being the core's chain length.  Once the rank mod p reaches
    bound_j = sum over cores of min(L, j + 1) (rank mod p never exceeds the
    rank over Q), no further row of weight <= r + j can add a pivot.  The
    rest of the weight joins the non-pivot list without its row or character
    being built, so the pivots, the solve and the diagrams the re-check and
    held-out passes pick are exactly those of sampling every diagram.
    Characters are computed only for rows that are solved or checked.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    budget = default_sampling_budget(r) if sampling_budget is None else sampling_budget
    if budget < 1:
        raise ValueError("sampling budget must be >= 1")
    support = kerov_support(r)
    ncols = len(support)
    # chain length of each core: the support monomials core * R_2^i
    chains = Counter(tuple(p for p in mu if p != 2) for mu in support).values()
    ech = ModularEchelon(ncols)
    pivot_rows: list[list[int]] = []
    pivot_rhs: list[int] = []
    pivot_set: set[Partition] = set()
    others: list[Partition] = []  # non-pivot diagrams, rows rebuilt on demand
    n_stop = r - 1
    for n in range(r, r + budget):
        if ech.rank == ncols:
            break
        n_stop = n
        bound = sum(min(length, n - r + 1) for length in chains)
        diagrams = enumerate_partitions(n)
        for i, lam in enumerate(diagrams):
            if ech.rank == bound:
                others.extend(diagrams[i:])
                break
            cums = _cumulant_list(lam, r + 1)
            row = _evaluation_row(support, cums, {})
            if ech.add_row(row):
                pivot_rows.append(row)
                pivot_rhs.append(_integer_character(lam, r))
                pivot_set.add(lam)
            else:
                others.append(lam)
    if ech.rank < ncols:
        raise KerovComputationError(
            f"K_{r}: rank {ech.rank} of {ncols} after sampling diagrams of "
            f"weight {r}..{n_stop}; increase the sampling budget"
        )
    try:
        x = solve_exact(pivot_rows, pivot_rhs)
    except ValueError as exc:
        raise KerovComputationError(f"K_{r}: exact solve failed: {exc}") from exc
    if all(v.denominator == 1 for v in x):
        x = [int(v) for v in x]  # keeps the residual checks in integer arithmetic
    # re-check the solution against sampled diagrams outside the solve; all of
    # them at ordinary scale, a seeded sample on very large runs
    if len(others) > 3000:
        rng = random.Random(20_000 + r)
        others = rng.sample(others, 300)
    for lam in others:
        cums = _cumulant_list(lam, r + 1)
        row = _evaluation_row(support, cums, {})
        if sum(c * v for c, v in zip(row, x)) != _integer_character(lam, r):
            raise KerovComputationError(f"K_{r}: solution does not fit diagram {lam}")
    poly = CumulantPolynomial("R", {mu: v for mu, v in zip(support, x) if v})
    kp = KerovPolynomial(r, poly)
    _verify_held_out(kp, n_stop, pivot_set, others)
    return kp


def _verify_held_out(kp, n_stop, pivot_set, sampled) -> None:
    """Re-check the polynomial against the oracle on diagrams outside the solve.

    Prefers diagrams of weights never sampled (up to r + 6); when sampling
    already consumed those weights, falls back to sampled diagrams whose rows
    were not pivots of the solve.
    """
    r = kp.r
    pool: list[Partition] = []
    for n in range(n_stop + 1, r + 7):
        pool.extend(enumerate_partitions(n))
    if len(pool) < 10:
        pool.extend(lam for lam in sampled if sum(lam) <= r + 6 and lam not in pivot_set)
    rng = random.Random(10_000 + r)
    picks = rng.sample(pool, min(10, len(pool)))
    for lam in picks:
        got = kp.poly.evaluate(free_cumulants(lam, r + 1))
        want = normalized_character(lam, r)
        if got != want:
            raise KerovComputationError(
                f"K_{r}: held-out check failed at lambda={lam}: {got} != {want}"
            )


def graded_component(kp: KerovPolynomial, s: int) -> CumulantPolynomial:
    """The weight-s part K_{r,s}; the zero polynomial when nothing has weight s."""
    return kp.poly.weight_component(s)


def evaluate_at_diagram(poly: CumulantPolynomial, lam: Partition) -> Fraction:
    """Evaluate a polynomial in any family at the numeric values of a diagram."""
    top = max((mu[0] for mu in poly.terms if mu), default=2)
    if poly.family == "R":
        values = free_cumulants(lam, top)
    elif poly.family == "C":
        values = c_values(lam, top)
    else:
        values = q_values(lam, top)
    return poly.evaluate(values)


# ---------------------------------------------------------------------------
# family conversion by series substitution in the quotient ring
# ---------------------------------------------------------------------------

# Each family as a generating series: C(z) = 1 + sum C_i z^i, Q(z) = sum Q_i z^i
# and H(z) = 1 - X(z) = 1 - sum (i-1) R_i z^i standing for R.  Between them
# H = 1/C, C = exp(Q) and Q = -log H.  _series[(src, dst)] lists the
# coefficients of the source series as polynomials in the target generators;
# entry n is homogeneous of weight n, and entry 1 is zero.
_series: dict[tuple[str, str], list[dict[Partition, Fraction]]] = {}
# (src, dst, mu) -> the source monomial mu expanded in the target generators
_monomials: dict[tuple[str, str, Partition], dict[Partition, Fraction]] = {}


def _source_series(src: str, dst: str, n: int) -> list[dict[Partition, Fraction]]:
    """Coefficients 0..n of the source series in the target generators.

    The source series is the inverse of the target series (C <-> H), its log
    (Q from C, or from H with sign -1) or the exp of +-Q (C or H from Q),
    extended one weight at a time by the truncated recurrence.
    """
    out = _series.setdefault((src, dst), [{} if src == "Q" else {(): Fraction(1)}, {}])
    sign = -1 if "R" in (src, dst) else 1

    def a(k, c):  # c times the z^k coefficient of the target series
        return {(k,): Fraction(c * (1 - k) if dst == "R" else c)}

    for m in range(len(out), n + 1):
        if src == "Q":  # s = sign log a: s_m = sign a_m - (1/m) sum k s_k a_{m-k}
            s = a(m, sign)
            for k in range(2, m - 1):
                _free_mul(a(m - k, Fraction(-k, m)), out[k], s)
        else:  # exp(sign Q): s_m = (sign/m) sum k Q_k s_{m-k}; 1/a: s_m = -sum a_k s_{m-k}
            s = {}
            for k in range(2, m + 1):
                c = Fraction(sign * k, m) if dst == "Q" else -1
                _free_mul(a(k, c), out[m - k], s)
        out.append(s)
    return out


def _monomial(src: str, dst: str, mu: Partition) -> dict[Partition, Fraction]:
    """The source monomial mu in the target generators: gen(mu[0]) * (mu[1:])."""
    key = (src, dst, mu)
    got = _monomials.get(key)
    if got is None:
        if mu:
            i = mu[0]
            gen = _source_series(src, dst, i)[i]
            if src == "R":  # (i-1) R_i = -H_i
                gen = {nu: c / (1 - i) for nu, c in gen.items()}
            got = _free_mul(gen, _monomial(src, dst, mu[1:]))
        else:
            got = {(): Fraction(1)}
        _monomials[key] = got
    return got


def change_generators(poly: CumulantPolynomial, target: str) -> CumulantPolynomial:
    """Re-express a polynomial in another generator family, exactly.

    The conversion is a series substitution in the quotient ring where the
    degree-one generators vanish: each source monomial is expanded through
    1/(1-X) = C, -log(1-X) = Q and exp(Q) = C with X = sum (i-1) R_i z^i,
    and the expansions are memoized per monomial.
    """
    if target not in FAMILIES:
        raise ValueError(f"unknown family {target!r}")
    if target == poly.family:
        return poly
    out: dict[Partition, Fraction] = {}
    for mu, c in poly.terms.items():
        _free_mul({(): c}, _monomial(poly.family, target, mu), out)
    return CumulantPolynomial(target, out)


# ---------------------------------------------------------------------------
# closed forms and the weighted triple sums
# ---------------------------------------------------------------------------


def script_r_factor(mu: Partition) -> Fraction:
    """prod (i-1)^{m_i} / m_i!: the ratio between script-R_mu and the plain monomial."""
    val = Fraction(1, mult_factorial(mu))
    for i, m in multiplicities(mu).items():
        val *= (i - 1) ** m
    return val


def krr1_closed_form(r: int) -> CumulantPolynomial:
    """Weight r-1 component: (1/4) C(r+1,3) sum l(mu)! script-R_mu over |mu| = r-1."""
    if r < 2:
        raise ValueError("r must be >= 2")
    pref = Fraction(comb(r + 1, 3), 4)
    terms = {
        mu: pref * factorial(len(mu)) * script_r_factor(mu)
        for mu in enumerate_partitions(r - 1, 2)
    }
    return CumulantPolynomial("R", terms)


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
    weight is applied once per monomial, to the integer sums of 1, i and i^2.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    i_values: dict[Partition, list[int]] = {}  # monomial -> the i of each of its triples
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            if 1 not in (i, j, k):
                mu = tuple(sorted((v for v in (i, j, k) if v), reverse=True))
                i_values.setdefault(mu, []).append(i)
    return CumulantPolynomial("C", {
        mu: a * len(iv) + b * sum(iv) + c * sum(i * i for i in iv) for mu, iv in i_values.items()
    })


def weighted_triple_sum(a, b, c, n: int, family: str) -> CumulantPolynomial:
    """Closed form of the weighted triple C-sum in the R or Q family.

    R form: (l(mu)+2)! phi_hat(mu) script-R_mu summed over |mu| = n;
    Q form: 3^l(mu) (a + b n/3 + (c/9)(n^2 + 2 p_2(mu))) script-Q_mu.
    """
    if family not in ("R", "Q"):
        raise ValueError("family must be 'R' or 'Q'")
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    terms: dict[Partition, Fraction] = {}
    if family == "R":
        kernel = phi_hat(a, b, c, n)
        for mu in enumerate_partitions(n, 2):
            coef = factorial(len(mu) + 2) * kernel.evaluate(mu) * script_r_factor(mu)
            if coef:
                terms[mu] = coef
    else:
        for mu in enumerate_partitions(n, 2):
            weight = a + b * n / 3 + c * (n * n + 2 * power_sum_value(2, mu)) / 9
            coef = 3 ** len(mu) * weight / mult_factorial(mu)
            if coef:
                terms[mu] = coef
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


def _compute_terms(args) -> tuple[int, list[dict]]:
    r, budget = args
    return r, _cache_payload(compute_kerov(r, budget))["terms"]


class KerovProvider:
    """Caching access to computed K_r, optionally persisted as JSON files.

    Cache files are written once via an atomic rename; partial or
    version-stale files are ignored and regenerated.
    """

    def __init__(self, cache_dir: str | None = None, sampling_budget: int | None = None):
        self.cache_dir = cache_dir
        self.sampling_budget = sampling_budget
        self._mem: dict[int, KerovPolynomial] = {}

    def get(self, r: int) -> KerovPolynomial:
        kp = self._mem.get(r)
        if kp is None:
            kp = self._load_disk(r)
        if kp is None:
            kp = compute_kerov(r, self.sampling_budget)
            self._store_disk(kp)
        self._mem[r] = kp
        return kp

    def component(self, r: int, s: int, family: str = "R") -> CumulantPolynomial:
        comp = graded_component(self.get(r), s)
        return change_generators(comp, family)

    def precompute(self, rs, jobs: int = 1) -> None:
        todo = sorted(set(rs) - set(self._mem))
        todo = [r for r in todo if self._load_disk(r, keep=True) is None]
        if not todo:
            return
        if jobs > 1 and len(todo) > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
                    work = [(r, self.sampling_budget) for r in todo]
                    for r, terms in pool.map(_compute_terms, work):
                        kp = KerovPolynomial(r, CumulantPolynomial.from_terms_json("R", terms))
                        self._mem[r] = kp
                        self._store_disk(kp)
                return
            except (OSError, ImportError):
                pass  # no process pool available: fall back to sequential
        for r in todo:
            self.get(r)

    def _cache_path(self, r: int) -> str | None:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"kerov_r{r}.json")

    def _load_disk(self, r: int, keep: bool = True) -> KerovPolynomial | None:
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
        if keep:
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

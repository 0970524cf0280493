"""Exact polynomials in the m / p / e / h bases and the R / C / Q families.

A SymFunc is a sparse map from index partitions to rational coefficients,
tagged with its basis: one of the four bases of the symmetric functions, or
one of the three cumulant families, which span the quotient ring where the
degree-one generators vanish.  +, - and * stay in one basis, where a product
of generators is concatenation of the index partitions (m, which is not
multiplicative, multiplies through p).  Every multiplicative change of
generators, e/h to and from p and among R, C and Q, is one series
substitution: a row of SUBSTITUTIONS gives each generator as a partition sum
(`generator_in`), and one memo holds each monomial's expansion as a suffix
product (`monomial_in`).  `convert` runs every change of generators within a
ring, through p when neither end is p; == compares in the ring's hub, p or R.
Evaluation is direct integer substitution in the polynomial's own basis.
Exact arithmetic runs on integer numerators over one common denominator
(`_numerators`, `_expand`): every cached expansion is a denominator and
integer numerators, and a conversion or evaluation builds one Fraction per
output term.  Inhomogeneous values are first class; the empty partition
indexes the constant term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, prod
from operator import mul

from .partitions import (
    Partition,
    check_partition,
    enumerate_partitions,
    format_partition,
    format_rational,
    mult_factorial,
    series_coefficients,
)

BASES = ("m", "p", "e", "h")
FAMILIES = ("R", "C", "Q")
# each basis's hub, the basis its ring compares in: p for the symmetric
# functions, R for the quotient ring of the cumulant families
_HUB = dict.fromkeys(BASES, "p") | dict.fromkeys(FAMILIES, "R")

# ---------------------------------------------------------------------------
# expansion caches (idempotent fill: recomputation yields identical entries)
# ---------------------------------------------------------------------------

Expansion = tuple[int, dict[Partition, int]]  # (denominator, integer numerators)

_monomials: dict[tuple[str, str, Partition], Expansion] = {}  # (src, dst, lam) -> monomial_in
_m_in_p: dict[Partition, Expansion] = {}


def _numerators(coeffs) -> tuple[int, list[int]]:
    """The lcm d of the rationals' denominators and the integers d * c."""
    coeffs = list(coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _expand(den: int, terms, expansion) -> Expansion:
    """sum of (a / den) expansion(lam) over (lam, a) in terms, each expansion a
    (d, numerators) pair: integer numerators over den * lcm(d), zeros dropped."""
    expanded = [(a, expansion(lam)) for lam, a in terms]
    scale = lcm(*(d for _, (d, _) in expanded))
    out: dict[Partition, int] = {}
    for a, (d, ex) in expanded:
        a *= scale // d
        for nu, b in ex.items():
            out[nu] = out.get(nu, 0) + a * b
    return den * scale, {nu: v for nu, v in out.items() if v}


def _free_mul(f: dict, g: dict, out: dict | None = None) -> dict:
    """Product in a free multiplicative basis: concatenate index partitions.

    Given `out`, the product is added into it in place; with f = {(): c}
    that adds c * g to out.
    """
    if out is None:
        out = {}
    for lam, a in f.items():
        for mu, b in g.items():
            key = tuple(sorted(lam + mu, reverse=True))
            c = out.get(key, 0) + a * b
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _log1p(l: int) -> int:
    """l! [x^l] log(1 + x)."""
    return (-1) ** (l - 1) * factorial(l - 1)


def _one(_) -> int:
    return 1


# Generator n of family src is scale(n) [z^n] F(sum_i weight(i) g_i z^i) in the
# generators g of dst, with phi(l) = l! [x^l] F and parts >= min_part:
# SUBSTITUTIONS[(src, dst)] = (min_part, phi, weight, scale).  e and h are exp
# of their p series and p_n is Waring's log.  The cumulant families live in the
# quotient ring where the degree-one generators vanish: C(z) = 1 + sum C_i z^i,
# Q(z) = sum Q_i z^i and H(z) = 1 - X(z), X = sum (i-1) R_i z^i, standing for R,
# with H = 1/C, C = exp(Q) and Q = -log H; (i-1) R_i = -H_i gives R's scale.
SUBSTITUTIONS = {
    ("e", "p"): (1, _one, lambda i: Fraction((-1) ** (i - 1), i), _one),
    ("h", "p"): (1, _one, lambda i: Fraction(1, i), _one),
    ("p", "e"): (1, _log1p, _one, lambda n: (-1) ** (n - 1) * n),
    ("p", "h"): (1, _log1p, _one, lambda n: n),
    ("C", "R"): (2, factorial, lambda i: i - 1, _one),
    ("Q", "R"): (2, lambda l: factorial(l - 1), lambda i: i - 1, _one),
    ("R", "C"): (2, lambda l: (-1) ** l * factorial(l), _one, lambda n: Fraction(-1, n - 1)),
    ("R", "Q"): (2, lambda l: (-1) ** l, _one, lambda n: Fraction(-1, n - 1)),
    ("C", "Q"): (2, _one, _one, _one),
    ("Q", "C"): (2, _log1p, _one, _one),
}


def generator_in(src: str, dst: str, n: int) -> Expansion:
    """Generator n of src in the generators of dst, by its SUBSTITUTIONS row."""
    min_part, phi, weight, scale = SUBSTITUTIONS[src, dst]
    coeffs = series_coefficients(n, min_part, phi, weight)
    den, numerators = _numerators(scale(n) * c for c in coeffs.values())
    return den, dict(zip(coeffs, numerators))


def monomial_in(src: str, dst: str, lam: Partition) -> Expansion:
    """prod_i generator_in(src, dst, lam_i), memoized per suffix of lam."""
    got = _monomials.get((src, dst, lam))
    if got is None:
        if len(lam) <= 1:
            got = generator_in(src, dst, lam[0]) if lam else (1, {(): 1})
        else:
            head_den, head = monomial_in(src, dst, lam[:1])
            tail_den, tail = monomial_in(src, dst, lam[1:])
            got = (head_den * tail_den, _free_mul(head, tail))
        _monomials[src, dst, lam] = got
    return got


def _m_times_pn(f: dict[Partition, int], n: int) -> dict[Partition, int]:
    """Multiply an m-expansion by p_n.

    Adding n to a part of value v (v=0 adjoins a new part) sends m_lam to
    m_mu with multiplicity m_{v+n}(mu); distinct v give distinct mu.
    """
    out: dict[Partition, int] = {}
    for lam, c in f.items():
        for v in set(lam) | {0}:
            if v:
                lst = list(lam)
                lst.remove(v)
                lst.append(v + n)
                mu = tuple(sorted(lst, reverse=True))
            else:
                mu = tuple(sorted(lam + (n,), reverse=True))
            out[mu] = out.get(mu, 0) + c * mu.count(v + n)
    return {k: v for k, v in out.items() if v}


def p_in_m(mu: Partition) -> dict[Partition, int]:
    """Expand the power-sum product p_mu into monomial symmetric functions."""
    got = {(): 1}
    for part in mu:
        got = _m_times_pn(got, part)
    return got


def _fill_m_to_p(degree: int) -> None:
    """Solve the per-degree transition m_lam -> p basis.

    In reverse-lexicographic order the matrix of p_mu over m_lam is
    triangular (the m-support of p_mu consists of merges of mu, which
    dominate mu), so forward substitution inverts it exactly.
    """
    parts = enumerate_partitions(degree)
    index = {lam: i for i, lam in enumerate(parts)}
    for i, mu in enumerate(parts):
        row = p_in_m(mu)
        if any(index[lam] > i for lam in row):
            raise RuntimeError(f"p -> m transition in degree {degree} is not triangular")
        earlier = [(lam, -a) for lam, a in row.items() if lam != mu]
        den, acc = _expand(1, earlier, m_in_p)
        acc[mu] = acc.get(mu, 0) + den
        den *= row[mu]
        g = gcd(den, *acc.values())
        _m_in_p[mu] = (den // g, {nu: v // g for nu, v in acc.items()})


def m_in_p(lam: Partition) -> Expansion:
    got = _m_in_p.get(lam)
    if got is None:
        _fill_m_to_p(sum(lam))
        got = _m_in_p[lam]
    return got


@cache
def monomial_value(rho: Partition, v: Partition) -> int:
    """m_rho at x = v (the remaining variables 0), in integers.

    The first variable takes no part of rho, or one part value a; taking each
    distinct a once counts each distinct exponent vector once.
    """
    if not rho:
        return 1
    if len(rho) > len(v):
        return 0
    x, rest = v[0], v[1:]
    total = monomial_value(rho, rest)
    for i, a in enumerate(rho):
        if i == 0 or a != rho[i - 1]:
            total += x**a * monomial_value(rho[:i] + rho[i + 1:], rest)
    return total


def _generator_values(basis: str, v: Partition, n: int) -> list[int]:
    """p_k(v), or e_k(v) / h_k(v) from the factors 1 + x t / 1/(1 - x t), for k <= n."""
    if basis == "p":
        return [sum(x**k for x in v) for k in range(n + 1)]
    g = [1] + [0] * n
    for x in v:
        for k in range(n, 0, -1) if basis == "e" else range(1, n + 1):
            g[k] += x * g[k - 1]
    return g


# ---------------------------------------------------------------------------
# SymFunc: one sparse polynomial type for every generator set
# ---------------------------------------------------------------------------


def _sort_key(lam: Partition):
    # weight descending, then reverse-lexicographic within a weight
    return (-sum(lam), tuple(-p for p in lam))


def _parse_rational(text) -> Fraction:
    """The "num" or "num/den" text of format_rational, parsed as integers."""
    num, _, den = str(text).partition("/")
    den = int(den or 1)
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)


def _route(src: str, dst: str) -> list[tuple[str, str]]:
    """The conversion steps from src to dst: one, or two through p when
    neither end of a change of bases is p."""
    if src == dst:
        return []
    if "p" in (src, dst) or src in FAMILIES:
        return [(src, dst)]
    return [(src, "p"), ("p", dst)]


def _step(src: str, dst: str):
    """One step's expansion of each index partition, as (den, numerators)."""
    if src == "m":
        return m_in_p
    if dst == "m":
        return lambda mu: (1, p_in_m(mu))
    return lambda lam: monomial_in(src, dst, lam)


class SymFunc:
    """A polynomial in one of seven generator sets: a sparse map from index
    partitions to nonzero rationals, tagged with its basis.

    The bases m, p, e and h span the symmetric functions; the families R, C
    and Q span the quotient ring where the degree-one generators vanish, so
    their parts are >= 2.  The empty partition indexes the constant term.
    +, - and * need equal bases, convert stays within a ring, and
    polynomials of different rings compare unequal.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in _HUB:
            raise ValueError(f"unknown basis {basis!r}")
        min_part = 1 if _HUB[basis] == "p" else 2
        self.basis = basis
        clean: dict[Partition, Fraction] = {}
        for lam, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                lam = check_partition(lam)
                if lam and lam[-1] < min_part:
                    raise ValueError(f"monomial {lam} has a part < {min_part}")
                clean[lam] = c
        self.terms = clean

    @classmethod
    def zero(cls, basis: str) -> "SymFunc":
        return cls(basis, {})

    @classmethod
    def constant(cls, c, basis: str = "p") -> "SymFunc":
        return cls(basis, {(): c})

    @classmethod
    def gen(cls, basis: str, n: int) -> "SymFunc":
        """The generator of index n; n = 0 gives the constant 1, and a degree-one
        generator of a family is zero."""
        if n < 0:
            raise ValueError("generator index must be nonnegative")
        return cls(basis, {} if n == 1 and basis in FAMILIES else {() if n == 0 else (n,): 1})

    def weights(self) -> list[int]:
        return sorted({sum(lam) for lam in self.terms})

    # -- ring structure ------------------------------------------------------

    def _same_basis(self, other: "SymFunc", op: str) -> None:
        if other.basis != self.basis:
            raise ValueError(f"cannot {op} {self.basis} and {other.basis}: convert one first")

    def scale(self, c) -> "SymFunc":
        c = Fraction(c)
        return SymFunc(self.basis, {lam: c * v for lam, v in self.terms.items()})

    def __neg__(self) -> "SymFunc":
        return self.scale(-1)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        self._same_basis(other, "add")
        return SymFunc(self.basis, _free_mul({(): 1}, other.terms, dict(self.terms)))

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        """Concatenation of index partitions; m, not multiplicative, goes through p."""
        self._same_basis(other, "multiply")
        if self.basis == "m":
            return (self.convert("p") * other.convert("p")).convert("m")
        return SymFunc(self.basis, _free_mul(self.terms, other.terms))

    def __eq__(self, other) -> bool:
        """Equal as functions: across bases of one ring, on the integer
        numerators in its hub; bases of different rings are never equal."""
        if not isinstance(other, SymFunc):
            return NotImplemented
        if other.basis == self.basis:
            return self.terms == other.terms
        hub = _HUB[self.basis]
        if _HUB[other.basis] != hub:
            return False
        (d, f), (e, g) = self._numerators_in(hub), other._numerators_in(hub)
        return f.keys() == g.keys() and all(a * e == g[mu] * d for mu, a in f.items())

    def __hash__(self):
        return hash(tuple(sorted(self.convert(_HUB[self.basis]).terms.items())))

    # -- change of generators ------------------------------------------------

    def convert(self, target: str) -> "SymFunc":
        """The same polynomial in the generators of target, a basis of its ring."""
        if target not in _HUB:
            raise ValueError(f"unknown basis {target!r}")
        if _HUB[target] != _HUB[self.basis]:
            raise ValueError(f"cannot convert {self.basis} to {target}: another ring")
        if target == self.basis:
            return self
        den, terms = self._numerators_in(target)
        return SymFunc(target, {mu: Fraction(v, den) for mu, v in terms.items()})

    def _numerators_in(self, target: str) -> Expansion:
        """The polynomial in target, as integer numerators over one denominator."""
        den, numerators = _numerators(self.terms.values())
        terms = dict(zip(self.terms, numerators))
        for src, dst in _route(self.basis, target):
            den, terms = _expand(den, terms.items(), _step(src, dst))
        return den, terms

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, v) -> Fraction:
        """The value at a point, by direct substitution with no basis change.

        For m, p, e and h, v is a partition: x_1..x_l are its entries and the
        rest 0; m_rho(v) comes from `monomial_value`, a p/e/h product from the
        generator values at v.  For R, C and Q, v maps each generator index to
        its value.
        """
        if self.basis == "m":
            values = (monomial_value(lam, v) for lam in self.terms)
        else:
            g = v
            if self.basis in BASES:
                top = max((lam[0] for lam in self.terms if lam), default=0)
                g = _generator_values(self.basis, v, top)
            values = (prod(g[part] for part in lam) for lam in self.terms)
        den, numerators = _numerators(self.terms.values())
        return Fraction(sum(map(mul, numerators, values)), den)

    # -- serialization -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def terms_json(self) -> list[dict]:
        return [
            {"partition": list(lam), "coef": format_rational(c)}
            for lam, c in self.sorted_terms()
        ]

    @classmethod
    def from_terms_json(cls, basis: str, terms: list[dict]) -> "SymFunc":
        return cls(basis, {tuple(t["partition"]): _parse_rational(t["coef"]) for t in terms})

    def to_json_dict(self) -> dict:
        return {"basis": self.basis, "terms": self.terms_json()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymFunc":
        return cls.from_terms_json(data["basis"], data["terms"])

    def _monomial_text(self, lam: Partition) -> str:
        if self.basis in FAMILIES:
            return "*".join(f"{self.basis}{i}" for i in lam) or "1"
        return f"{self.basis}[{format_partition(lam)}]"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{format_rational(c)}*{self._monomial_text(lam)}" for lam, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"SymFunc[{self.basis}]({self.to_text()})"


# ---------------------------------------------------------------------------
# scalar (lambda-ring) specializations and the triple-sum kernel
# ---------------------------------------------------------------------------


def p_scalar_specialize(mu: Partition, t) -> Fraction:
    """p_mu at the scalar alphabet t: t^l(mu)."""
    return Fraction(t) ** len(mu)


def m_scalar_specialize(mu: Partition, t) -> Fraction:
    """m_mu at the scalar alphabet t: t(t-1)...(t-l+1) / prod_i m_i(mu)!."""
    t = Fraction(t)
    val = Fraction(1)
    for j in range(len(mu)):
        val *= t - j
    return val / mult_factorial(mu)


def phi_hat(a, b, c, n: int) -> SymFunc:
    """Symmetric-function kernel for the weight phi(i) = a + b*i + c*i^2.

    Returns a/2 + b*n/6 + c*(n^2 + p_2)/12 in the p basis; evaluating it at a
    partition of n turns the weighted triple convolution of a sequence into a
    single sum over partitions.
    """
    d, (a, b, c) = _numerators(map(Fraction, (a, b, c)))
    const = Fraction(6 * a + 2 * b * n + c * n * n, 12 * d)
    return SymFunc("p", {(): const, (2,): Fraction(c, 12 * d)})

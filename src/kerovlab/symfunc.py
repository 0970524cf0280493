"""Exact symmetric functions in the m / p / e / h bases.

A SymFunc is a sparse map from index partitions to rational coefficients,
tagged with the basis it is written in; SparseTerms, the term map it shares
with the cumulant polynomials, owns cleaning, text and JSON.  Power sums are
the reference basis: multiplication and equality go through p, where the
algebra is free and a product of basis elements is concatenation of the
index partitions.  An e or h product reaches p through class sizes, and p_n
goes back to e or h by Waring's formula, one partition sum per generator.
Evaluation at an integer vector is direct integer substitution in the
function's own basis, with no basis change.  Exact arithmetic runs on integer
numerators over one common denominator (`_numerators`, `_expand`): every
cached expansion is a denominator and integer numerators, and a conversion or
evaluation builds one Fraction per output term.  Inhomogeneous values are
first class; the empty partition indexes the constant term.
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
    epsilon,
    format_partition,
    format_rational,
    mult_factorial,
    series_coefficients,
    z_factor,
)

BASES = ("m", "p", "e", "h")

# ---------------------------------------------------------------------------
# expansion caches (idempotent fill: recomputation yields identical entries)
# ---------------------------------------------------------------------------

Expansion = tuple[int, dict[Partition, int]]  # (denominator, integer numerators)

_gen_in_p: dict[tuple[str, Partition], Expansion] = {}
_p_in_gen: dict[tuple[str, Partition], Expansion] = {}
_p_in_m: dict[Partition, dict[Partition, int]] = {}
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


def _product_expansion(table: dict, key, lam: Partition, single) -> Expansion:
    """prod_i single(lam_i) of (d, numerators) pairs, memoized per suffix of lam."""
    got = table.get((key, lam))
    if got is None:
        if len(lam) <= 1:
            got = single(lam[0]) if lam else (1, {(): 1})
        else:
            head_den, head = _product_expansion(table, key, lam[:1], single)
            tail_den, tail = _product_expansion(table, key, lam[1:], single)
            got = (head_den * tail_den, _free_mul(head, tail))
        table[key, lam] = got
    return got


def gen_product_in_p(basis: str, lam: Partition) -> Expansion:
    """e_lam or h_lam in p, as integer numerators over the denominator prod lam_i!.

    n! h_n = sum over |mu| = n of (n!/z_mu) p_mu, with n!/z_mu the size of the
    class of cycle type mu; n! e_n carries the sign eps(mu).
    """
    def single(n):
        den = factorial(n)
        sign = epsilon if basis == "e" else (lambda mu: 1)
        return den, {mu: sign(mu) * (den // z_factor(mu)) for mu in enumerate_partitions(n)}

    return _product_expansion(_gen_in_p, basis, lam, single)


def p_in_gen(basis: str, n: int) -> Expansion:
    """p_n in the e or h basis by Waring's formula:

    p_n = n [t^n] log(1 + sum_k h_k t^k) = (-1)^(n-1) n [t^n] log(1 + sum_k e_k t^k).
    """
    sign = (-1) ** (n - 1) if basis == "e" else 1
    coeffs = series_coefficients(
        n, 1, lambda l: sign * n * (-1) ** (l - 1) * factorial(l - 1), lambda i: 1
    )
    den, numerators = _numerators(coeffs.values())
    return den, dict(zip(coeffs, numerators))


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
    got = _p_in_m.get(mu)
    if got is None:
        got = {(): 1}
        for part in mu:
            got = _m_times_pn(got, part)
        _p_in_m[mu] = got
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
# sparse term maps and SymFunc
# ---------------------------------------------------------------------------


def _sort_key(lam: Partition):
    # weight descending, then reverse-lexicographic within a weight
    return (-sum(lam), tuple(-p for p in lam))


def _parse_rational(text) -> Fraction:
    """The "num" or "num/den" text of format_rational, parsed as integers."""
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den or 1))


class SparseTerms:
    """A sparse map from partitions to nonzero rationals, tagged with one of
    the subclass's TAGS: the basis or generator family the partitions index.

    The empty partition indexes the constant term.  Parts below MIN_PART are
    rejected, and a generator of such an index is zero.  A subclass names its
    monomials in `_monomial_text` and defines its own ring operations.
    """

    __slots__ = ("tag", "terms")
    TAGS: tuple[str, ...]
    TAG_NAME: str
    MIN_PART = 1

    def __init__(self, tag: str, terms=None):
        if tag not in self.TAGS:
            raise ValueError(f"unknown {self.TAG_NAME} {tag!r}")
        self.tag = tag
        clean: dict[Partition, Fraction] = {}
        for lam, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                lam = check_partition(lam)
                if lam and lam[-1] < self.MIN_PART:
                    raise ValueError(f"monomial {lam} has a part < {self.MIN_PART}")
                clean[lam] = c
        self.terms = clean

    @classmethod
    def zero(cls, tag: str):
        return cls(tag, {})

    @classmethod
    def gen(cls, tag: str, n: int):
        """The generator of index n; n = 0 gives the constant 1."""
        if n < 0:
            raise ValueError("generator index must be nonnegative")
        return cls(tag, {} if 0 < n < cls.MIN_PART else {() if n == 0 else (n,): 1})

    def scale(self, c):
        c = Fraction(c)
        return type(self)(self.tag, {lam: c * v for lam, v in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def sorted_terms(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def terms_json(self) -> list[dict]:
        return [
            {"partition": list(lam), "coef": format_rational(c)}
            for lam, c in self.sorted_terms()
        ]

    @classmethod
    def from_terms_json(cls, tag: str, terms: list[dict]):
        return cls(tag, {tuple(t["partition"]): _parse_rational(t["coef"]) for t in terms})

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{format_rational(c)}*{self._monomial_text(lam)}" for lam, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"{type(self).__name__}[{self.tag}]({self.to_text()})"


class SymFunc(SparseTerms):
    """A symmetric function: basis tag plus sparse partition -> rational map."""

    __slots__ = ()
    TAGS, TAG_NAME = BASES, "basis"

    @property
    def basis(self) -> str:
        return self.tag

    @classmethod
    def constant(cls, c, basis: str = "p") -> "SymFunc":
        return cls(basis, {(): c})

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if other.basis != self.basis:
            other = other.convert(self.basis)
        return SymFunc(self.basis, _free_mul({(): 1}, other.terms, dict(self.terms)))

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        """Product, computed in p where multiplication is concatenation."""
        a = self.convert("p").terms
        b = other.convert("p").terms
        return SymFunc("p", _free_mul(a, b)).convert(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        (d, f), (e, g) = self._p_numerators(), other._p_numerators()
        return f.keys() == g.keys() and all(a * e == g[mu] * d for mu, a in f.items())

    def __hash__(self):
        return hash((("p"), tuple(sorted(self.convert("p").terms.items()))))

    # -- basis conversion ----------------------------------------------------

    def convert(self, target: str) -> "SymFunc":
        if target not in BASES:
            raise ValueError(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        return SymFunc(target, self._to_basis(target))

    def _p_numerators(self) -> Expansion:
        """The function in p, as integer numerators over one denominator."""
        den, numerators = _numerators(self.terms.values())
        terms = zip(self.terms, numerators)
        if self.basis == "p":
            return den, dict(terms)
        if self.basis == "m":
            return _expand(den, terms, m_in_p)
        return _expand(den, terms, lambda lam: gen_product_in_p(self.basis, lam))

    def _to_basis(self, target: str) -> dict[Partition, Fraction]:
        den, pterms = self._p_numerators()
        if target == "m":
            den, pterms = _expand(den, pterms.items(), lambda mu: (1, p_in_m(mu)))
        elif target != "p":
            den, pterms = _expand(den, pterms.items(), lambda mu: _product_expansion(
                _p_in_gen, target, mu, lambda n: p_in_gen(target, n)))
        return {mu: Fraction(v, den) for mu, v in pterms.items()}

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, v: Partition) -> Fraction:
        """Specialize x_1..x_l to the entries of v and the rest to 0.

        Direct integer substitution, with no basis change: m_rho(v) by
        `monomial_value`, a p/e/h product from the generator values at v.
        """
        if self.basis == "m":
            values = (monomial_value(lam, v) for lam in self.terms)
        else:
            top = max((lam[0] for lam in self.terms if lam), default=0)
            g = _generator_values(self.basis, v, top)
            values = (prod(g[part] for part in lam) for lam in self.terms)
        den, numerators = _numerators(self.terms.values())
        return Fraction(sum(map(mul, numerators, values)), den)

    # -- serialization -------------------------------------------------------

    def _monomial_text(self, lam: Partition) -> str:
        return f"{self.basis}[{format_partition(lam)}]"

    def to_json_dict(self) -> dict:
        return {"basis": self.basis, "terms": self.terms_json()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymFunc":
        return cls.from_terms_json(data["basis"], data["terms"])


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

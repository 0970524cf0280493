"""Exact symmetric functions in the m / p / e / h bases.

A SymFunc is a sparse map from index partitions to rational coefficients,
tagged with the basis it is written in.  Power sums are the reference basis:
multiplication and equality go through p, where the algebra is free and a
product of basis elements is concatenation of the index partitions.
Inhomogeneous values are first class; the empty partition indexes the
constant term.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod

from .partitions import (
    Partition,
    check_partition,
    enumerate_partitions,
    epsilon,
    format_rational,
    mult_factorial,
    z_factor,
)

BASES = ("m", "p", "e", "h")

# ---------------------------------------------------------------------------
# expansion caches (idempotent fill: recomputation yields identical entries)
# ---------------------------------------------------------------------------

_e_in_p: dict[int, dict[Partition, Fraction]] = {}
_h_in_p: dict[int, dict[Partition, Fraction]] = {}
_p_in_e: dict[int, dict[Partition, Fraction]] = {}
_p_in_h: dict[int, dict[Partition, Fraction]] = {}
_p_in_m: dict[Partition, dict[Partition, int]] = {}
_m_in_p: dict[Partition, dict[Partition, Fraction]] = {}


def _free_mul(f: dict, g: dict) -> dict:
    """Product in a free multiplicative basis: concatenate index partitions."""
    if not f or not g:
        return {}
    out: dict[Partition, Fraction] = {}
    for lam, a in f.items():
        for mu, b in g.items():
            key = tuple(sorted(lam + mu, reverse=True))
            c = out.get(key, 0) + a * b
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def e_in_p(n: int) -> dict[Partition, Fraction]:
    """e_n = sum over |mu|=n of eps(mu) * p_mu / z_mu."""
    got = _e_in_p.get(n)
    if got is None:
        got = {mu: Fraction(epsilon(mu), z_factor(mu)) for mu in enumerate_partitions(n)}
        _e_in_p[n] = got
    return got


def h_in_p(n: int) -> dict[Partition, Fraction]:
    """h_n = sum over |mu|=n of p_mu / z_mu."""
    got = _h_in_p.get(n)
    if got is None:
        got = {mu: Fraction(1, z_factor(mu)) for mu in enumerate_partitions(n)}
        _h_in_p[n] = got
    return got


def p_in_e(n: int) -> dict[Partition, Fraction]:
    """Newton: p_n = sum_{k=1}^{n-1} (-1)^{k-1} e_k p_{n-k} + (-1)^{n-1} n e_n."""
    got = _p_in_e.get(n)
    if got is not None:
        return got
    out: dict[Partition, Fraction] = {(n,): Fraction((-1) ** (n - 1) * n)}
    for k in range(1, n):
        sign = (-1) ** (k - 1)
        for lam, c in p_in_e(n - k).items():
            key = tuple(sorted(lam + (k,), reverse=True))
            val = out.get(key, 0) + sign * c
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    _p_in_e[n] = out
    return out


def p_in_h(n: int) -> dict[Partition, Fraction]:
    """Newton: p_n = n h_n - sum_{k=1}^{n-1} h_k p_{n-k}."""
    got = _p_in_h.get(n)
    if got is not None:
        return got
    out: dict[Partition, Fraction] = {(n,): Fraction(n)}
    for k in range(1, n):
        for lam, c in p_in_h(n - k).items():
            key = tuple(sorted(lam + (k,), reverse=True))
            val = out.get(key, 0) - c
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    _p_in_h[n] = out
    return out


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
    rows = [p_in_m(mu) for mu in parts]
    for i, row in enumerate(rows):
        if any(index[lam] > i for lam in row):
            raise RuntimeError(f"p -> m transition in degree {degree} is not triangular")
    for i, mu in enumerate(parts):
        acc: dict[Partition, Fraction] = {mu: Fraction(1)}
        diag = Fraction(rows[i][mu])
        for lam, a in rows[i].items():
            j = index[lam]
            if j == i:
                continue
            for nu, b in _m_in_p[lam].items():
                val = acc.get(nu, 0) - a * b
                if val:
                    acc[nu] = val
                elif nu in acc:
                    del acc[nu]
        _m_in_p[parts[i]] = {nu: b / diag for nu, b in acc.items()}


def m_in_p(lam: Partition) -> dict[Partition, Fraction]:
    got = _m_in_p.get(lam)
    if got is None:
        _fill_m_to_p(sum(lam))
        got = _m_in_p[lam]
    return got


# ---------------------------------------------------------------------------
# SymFunc
# ---------------------------------------------------------------------------


def _sort_key(lam: Partition):
    # weight descending, then reverse-lexicographic within a weight
    return (-sum(lam), tuple(-p for p in lam))


class SymFunc:
    """A symmetric function: basis tag plus sparse partition -> rational map."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        clean: dict[Partition, Fraction] = {}
        for lam, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[check_partition(lam)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def gen(cls, basis: str, n: int) -> "SymFunc":
        """The degree-n generator (m_(n), p_n, e_n or h_n); n = 0 gives 1."""
        if n < 0:
            raise ValueError("generator degree must be nonnegative")
        return cls(basis, {() if n == 0 else (n,): 1})

    @classmethod
    def constant(cls, c, basis: str = "p") -> "SymFunc":
        return cls(basis, {(): c})

    @classmethod
    def zero(cls, basis: str = "p") -> "SymFunc":
        return cls(basis, {})

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if other.basis != self.basis:
            other = other.convert(self.basis)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            val = out.get(lam, 0) + c
            if val:
                out[lam] = val
            elif lam in out:
                del out[lam]
        return SymFunc(self.basis, out)

    def __neg__(self) -> "SymFunc":
        return SymFunc(self.basis, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def scale(self, c) -> "SymFunc":
        c = Fraction(c)
        return SymFunc(self.basis, {lam: c * v for lam, v in self.terms.items()})

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        """Product, computed in p where multiplication is concatenation."""
        a = self.convert("p").terms
        b = other.convert("p").terms
        return SymFunc("p", _free_mul(a, b)).convert(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.convert("p").terms == other.convert("p").terms

    def __hash__(self):
        return hash((("p"), tuple(sorted(self.convert("p").terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    # -- basis conversion ----------------------------------------------------

    def convert(self, target: str) -> "SymFunc":
        if target not in BASES:
            raise ValueError(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        return SymFunc(target, self._to_basis(target))

    def _to_p_terms(self) -> dict[Partition, Fraction]:
        if self.basis == "p":
            return self.terms
        out: dict[Partition, Fraction] = {}
        for lam, c in self.terms.items():
            if self.basis == "m":
                expansion = m_in_p(lam)
            else:
                gen = e_in_p if self.basis == "e" else h_in_p
                expansion = {(): Fraction(1)}
                for part in lam:
                    expansion = _free_mul(expansion, gen(part))
            for mu, b in expansion.items():
                val = out.get(mu, 0) + c * b
                if val:
                    out[mu] = val
                elif mu in out:
                    del out[mu]
        return out

    def _to_basis(self, target: str) -> dict[Partition, Fraction]:
        pterms = self._to_p_terms()
        if target == "p":
            return dict(pterms)
        out: dict[Partition, Fraction] = {}
        for mu, c in pterms.items():
            if target == "m":
                expansion: dict = p_in_m(mu)
            else:
                gen = p_in_e if target == "e" else p_in_h
                expansion = {(): Fraction(1)}
                for part in mu:
                    expansion = _free_mul(expansion, gen(part))
            for lam, b in expansion.items():
                val = out.get(lam, 0) + c * b
                if val:
                    out[lam] = val
                elif lam in out:
                    del out[lam]
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, v: Partition) -> Fraction:
        """Specialize x_1..x_l to the entries of v and the rest to 0."""
        pterms = self._to_p_terms()
        maxpart = max((lam[0] for lam in pterms if lam), default=0)
        psum = [Fraction(len(v))] + [Fraction(sum(x**k for x in v)) for k in range(1, maxpart + 1)]
        total = Fraction(0)
        for lam, c in pterms.items():
            total += c * prod((psum[part] for part in lam), start=Fraction(1))
        return total

    # -- serialization -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for lam, c in self.sorted_terms():
            bits.append(f"{format_rational(c)}*{self.basis}[{','.join(str(p) for p in lam)}]")
        return " + ".join(bits)

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"partition": list(lam), "coef": format_rational(c)}
                for lam, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymFunc":
        terms = {tuple(t["partition"]): Fraction(t["coef"]) for t in data["terms"]}
        return cls(data["basis"], terms)

    def __repr__(self):
        return f"SymFunc({self.to_text()})"


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
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    const = a / 2 + b * n / 6 + c * n * n / 12
    return SymFunc("p", {(): const, (2,): c / 12})

"""Embedded coefficient tables and verification of the positivity conjectures.

The shipped CSV tables carry the monomial coefficients of the conjectural
symmetric functions describing Kerov components uniformly in r: f-family
tables for the cumulant expansion (kinds c3, c4), the g-family table for the
Q expansion (kind a3), and the degree-4 closed forms f2 / g2 / F2.  Each file
is checksummed at load.  Verification compares the components predicted by
these tables against the components of interpolated Kerov polynomials, and
extraction goes the other way: it solves for the unknown symmetric function
from computed components and reports rank, consistency and conflicts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import comb, factorial

from .kerov import (
    CumulantPolynomial,
    KerovProvider,
    change_generators,
    kerov_findings,
    krr1_closed_form,
    krr3_closed_form,
    script_r_factor,
    triple_sum_bruteforce,
    weighted_triple_sum,
)
from .characters import normalized_character
from .cumulants import free_cumulants
from .linalg import FractionEchelon
from .partitions import (
    Partition,
    enumerate_partitions,
    epsilon,
    format_partition,
    format_rational,
    mult_factorial,
    parse_partition,
    power_sum_value,
    z_factor,
)
from .symfunc import SymFunc


class ChecksumError(RuntimeError):
    """A shipped table does not hash to its recorded checksum."""


TABLE_SCALES = {
    "c3": 2 * factorial(6) * factorial(8),
    "c4": 2 * factorial(8) * factorial(12),
    "a3": 500 * factorial(5) * factorial(7),
    "f2": 5760,
    "g2": 8640,
    "F2": 2880,
}

# which symmetric function each table describes: (target family, k)
TABLE_TARGETS = {
    "c3": ("f", 3),
    "c4": ("f", 4),
    "a3": ("g", 3),
    "f2": ("f", 2),
    "g2": ("g", 2),
    "F2": ("F", 2),
}


@dataclass(frozen=True)
class PaperTable:
    kind: str
    scale: int
    entries: dict[Partition, int]

    def to_symfunc(self) -> SymFunc:
        return SymFunc("m", {mu: Fraction(v, self.scale) for mu, v in self.entries.items()})


_table_cache: dict[str, PaperTable] = {}


def _read_table_file(name: str) -> bytes:
    return (resources.files("kerovlab") / "tables" / name).read_bytes()


def _checksums() -> dict:
    return json.loads(_read_table_file("checksums.json"))


def load_table(kind: str) -> PaperTable:
    """Load and checksum-verify one embedded table."""
    got = _table_cache.get(kind)
    if got is not None:
        return got
    if kind not in TABLE_SCALES:
        raise ValueError(f"unknown table kind {kind!r}")
    fname = "closed_forms.json" if kind in ("f2", "g2", "F2") else f"{kind}.csv"
    raw = _read_table_file(fname)
    want = _checksums()["sha256"][fname]
    have = hashlib.sha256(raw).hexdigest()
    if have != want:
        raise ChecksumError(f"{fname}: sha256 {have} != recorded {want}")
    if fname.endswith(".csv"):
        entries: dict[Partition, int] = {}
        for line in raw.decode("utf-8").splitlines():
            if not line.strip():
                continue
            part_text, value_text = line.split(";")
            entries[parse_partition(part_text)] = int(value_text)
        table = PaperTable(kind, TABLE_SCALES[kind], entries)
        _table_cache[kind] = table
    else:
        data = json.loads(raw.decode("utf-8"))
        for sub, block in data.items():
            entries = {parse_partition(k): int(v) for k, v in block["entries"].items()}
            if block["scale"] != TABLE_SCALES[sub]:
                raise ChecksumError(
                    f"{fname}: {sub} scale {block['scale']} != expected {TABLE_SCALES[sub]}"
                )
            _table_cache[sub] = PaperTable(sub, block["scale"], entries)
        table = _table_cache[kind]
    return table


# ---------------------------------------------------------------------------
# predicted components
# ---------------------------------------------------------------------------


def predicted_component_f(k: int, r: int, f_k: SymFunc) -> CumulantPolynomial:
    """R-family component predicted by the f-expansion:

    C(r+1,3) * sum over |mu| = r-2k+1 of (l(mu)+2k-2)! f_k(mu) script-R_mu.
    """
    s = r - 2 * k + 1
    if s < 0:
        raise ValueError("need r - 2k + 1 >= 0")
    pref = comb(r + 1, 3)
    terms = {}
    for mu in enumerate_partitions(s, 2):
        coef = pref * factorial(len(mu) + 2 * k - 2) * f_k.evaluate(mu) * script_r_factor(mu)
        if coef:
            terms[mu] = coef
    return CumulantPolynomial("R", terms)


def predicted_component_g(k: int, r: int, g_k: SymFunc) -> CumulantPolynomial:
    """Q-family component predicted by the g-expansion:

    C(r+1,3) * sum over |mu| = r-2k+1 of (2k-1)^l(mu) g_k(mu) script-Q_mu.
    """
    s = r - 2 * k + 1
    if s < 0:
        raise ValueError("need r - 2k + 1 >= 0")
    pref = comb(r + 1, 3)
    terms = {}
    for mu in enumerate_partitions(s, 2):
        coef = Fraction(pref * (2 * k - 1) ** len(mu), mult_factorial(mu)) * g_k.evaluate(mu)
        if coef:
            terms[mu] = coef
    return CumulantPolynomial("Q", terms)


def _arrangements(mu: Partition, slots: int) -> int:
    """Ways to place the parts of mu into `slots` ordered slots, rest zero."""
    if len(mu) > slots:
        return 0
    return factorial(slots) // (mult_factorial(mu) * factorial(slots - len(mu)))


def predicted_component_F(k: int, r: int, F_k: SymFunc) -> CumulantPolynomial:
    """C-family component predicted by the C-expansion:

    C(r+1,3) * sum over vectors nu in N^(2k-1) with |nu| = r-2k+1 of
    F_k(nu) C_nu; zero entries contribute C_0 = 1 and any entry 1 kills the
    term since C_1 = 0.
    """
    s = r - 2 * k + 1
    if s < 0:
        raise ValueError("need r - 2k + 1 >= 0")
    slots = 2 * k - 1
    pref = comb(r + 1, 3)
    terms = {}
    for mu in enumerate_partitions(s):
        if len(mu) > slots or 1 in mu:
            continue
        coef = pref * _arrangements(mu, slots) * F_k.evaluate(mu)
        if coef:
            terms[mu] = coef
    return CumulantPolynomial("C", terms)


# ---------------------------------------------------------------------------
# extraction of the conjectural symmetric functions from computed components
# ---------------------------------------------------------------------------


@dataclass
class ExtractionReport:
    target: str
    k: int
    r_range: tuple[int, int]
    solution: SymFunc | None
    system_rank: int
    unknown_count: int
    consistent: bool
    residual_rows: list[tuple[int, Partition]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "k": self.k,
            "r_range": list(self.r_range),
            "unknown_count": self.unknown_count,
            "system_rank": self.system_rank,
            "consistent": self.consistent,
            "residual_rows": [
                {"r": r, "partition": list(mu)} for r, mu in self.residual_rows
            ],
            "solution": None if self.solution is None else self.solution.to_json_dict(),
        }


def _structural_factor(target: str, k: int, r: int, mu: Partition) -> Fraction:
    pref = comb(r + 1, 3)
    if target == "f":
        return pref * factorial(len(mu) + 2 * k - 2) * script_r_factor(mu)
    if target == "g":
        return Fraction(pref * (2 * k - 1) ** len(mu), mult_factorial(mu))
    if target == "F":
        return Fraction(pref * _arrangements(mu, 2 * k - 1))
    raise ValueError(f"unknown target {target!r}")


_TARGET_FAMILY = {"f": "R", "g": "Q", "F": "C"}


def extract_symfunc(
    target: str, k: int, r_range: tuple[int, int], provider: KerovProvider
) -> ExtractionReport:
    """Solve for the degree-bounded symmetric function behind K_{r,r-2k+1}.

    Unknowns are monomial coefficients c_rho for 0 <= |rho| <= 4(k-1),
    constant term included.  Every admissible monomial of every component in
    the r range contributes one equation; rows that contradict the span of
    the earlier ones are recorded as residual rows rather than raised.
    """
    if target not in _TARGET_FAMILY:
        raise ValueError(f"unknown target {target!r}")
    r_lo, r_hi = r_range
    family = _TARGET_FAMILY[target]
    unknowns: list[Partition] = []
    for d in range(0, 4 * (k - 1) + 1):
        unknowns.extend(enumerate_partitions(d))
    index_rows = {rho: SymFunc("m", {rho: 1}) for rho in unknowns}
    ech = FractionEchelon(len(unknowns))
    residual: list[tuple[int, Partition]] = []
    for r in range(r_lo, r_hi + 1):
        s = r - 2 * k + 1
        if s < 0:
            continue
        comp = provider.component(r, s, family)
        for mu in enumerate_partitions(s, 2):
            coef = comp.terms.get(mu, Fraction(0))
            fac = _structural_factor(target, k, r, mu)
            if fac == 0:
                if coef:
                    residual.append((r, mu))  # no monomial can produce this term
                continue
            row = [index_rows[rho].evaluate(mu) for rho in unknowns]
            ech.add_row(row, coef / fac, (r, mu))
    residual.extend(ech.conflicts)
    residual.sort()
    rank = ech.rank
    solution = None
    if not residual and rank == len(unknowns):
        x = ech.solution()
        solution = SymFunc("m", {rho: v for rho, v in zip(unknowns, x)})
    return ExtractionReport(
        target=target,
        k=k,
        r_range=(r_lo, r_hi),
        solution=solution,
        system_rank=rank,
        unknown_count=len(unknowns),
        consistent=not residual,
        residual_rows=residual,
    )


# ---------------------------------------------------------------------------
# table verification and positivity reports
# ---------------------------------------------------------------------------


@dataclass
class TableCheck:
    r: int
    ok: bool
    first_mismatch: dict | None = None


@dataclass
class TableVerification:
    kind: str
    checks: list[TableCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "checks": [
                {"r": c.r, "ok": c.ok, "first_mismatch": c.first_mismatch}
                for c in self.checks
            ],
        }


def _first_mismatch(got: CumulantPolynomial, want: CumulantPolynomial) -> dict | None:
    keys = sorted(set(got.terms) | set(want.terms))
    for mu in keys:
        a = got.terms.get(mu, Fraction(0))
        b = want.terms.get(mu, Fraction(0))
        if a != b:
            return {
                "partition": list(mu),
                "computed": format_rational(a),
                "predicted": format_rational(b),
            }
    return None


def verify_table(kind: str, r_range: tuple[int, int], provider: KerovProvider) -> TableVerification:
    """Forward-check one embedded table against computed Kerov components."""
    target, k = TABLE_TARGETS[kind]
    func = load_table(kind).to_symfunc()
    checks = []
    for r in range(r_range[0], r_range[1] + 1):
        s = r - 2 * k + 1
        if s < 0:
            continue
        if target == "f":
            predicted = predicted_component_f(k, r, func)
            family = "R"
        elif target == "g":
            predicted = predicted_component_g(k, r, func)
            family = "Q"
        else:
            predicted = predicted_component_F(k, r, func)
            family = "C"
        computed = change_generators(provider.component(r, s), family)
        mism = _first_mismatch(computed, predicted)
        checks.append(TableCheck(r=r, ok=mism is None, first_mismatch=mism))
    return TableVerification(kind=kind, checks=checks)


@dataclass
class PositivityReport:
    negative: list[tuple[Partition, Fraction]]
    zero_count: int
    positive_count: int

    @property
    def ok(self) -> bool:
        return not self.negative

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "positive": self.positive_count,
            "zero": self.zero_count,
            "negative": [
                {"partition": list(mu), "coef": format_rational(c)}
                for mu, c in self.negative
            ],
        }


def positivity_report(obj) -> PositivityReport:
    """Count coefficient signs of a SymFunc or CumulantPolynomial."""
    neg, zero, pos = [], 0, 0
    for mu, c in sorted(obj.terms.items()):
        if c < 0:
            neg.append((mu, c))
        elif c == 0:
            zero += 1
        else:
            pos += 1
    return PositivityReport(negative=neg, zero_count=zero, positive_count=pos)


# ---------------------------------------------------------------------------
# identity suites (Cauchy-type lemmas and the weighted triple sums)
# ---------------------------------------------------------------------------


def _eee_sum(n: int, weight: str = "1") -> SymFunc:
    """sum over (i,j,k) in N^3 with i+j+k = n of w(i) e_i e_j e_k.

    weight "1" takes w = 1 and weight "i2" takes w(i) = i^2.
    """
    terms: dict[Partition, Fraction] = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            mu = tuple(sorted((v for v in (i, j, k) if v), reverse=True))
            w = i * i if weight == "i2" else 1
            if w:
                terms[mu] = terms.get(mu, Fraction(0)) + w
    return SymFunc("e", terms)


def lemma_triple_e_in_p(n: int) -> tuple[SymFunc, SymFunc]:
    """The plain triple e-sum and its power-sum form with factor 3^l(mu)."""
    rhs = SymFunc(
        "p",
        {
            mu: Fraction(epsilon(mu) * 3 ** len(mu), z_factor(mu))
            for mu in enumerate_partitions(n)
        },
    )
    return _eee_sum(n), rhs


def lemma_triple_e_in_p_weighted(n: int) -> tuple[SymFunc, SymFunc]:
    """The i^2-weighted triple e-sum against 3^(l-2) (n^2 + 2 p_2(mu))."""
    rhs = SymFunc(
        "p",
        {
            mu: Fraction(epsilon(mu), z_factor(mu))
            * Fraction(3) ** (len(mu) - 2)
            * (n * n + 2 * power_sum_value(2, mu))
            for mu in enumerate_partitions(n)
        },
    )
    return _eee_sum(n, "i2"), rhs


def lemma_triple_e_in_h(n: int) -> tuple[SymFunc, SymFunc]:
    """The plain triple e-sum against (1/2) (l(mu)+2)!/prod m_i! h_mu."""
    rhs = SymFunc(
        "h",
        {
            mu: Fraction(epsilon(mu) * factorial(len(mu) + 2), 2 * mult_factorial(mu))
            for mu in enumerate_partitions(n)
        },
    )
    return _eee_sum(n), rhs


def lemma_triple_e_in_h_weighted(n: int) -> tuple[SymFunc, SymFunc]:
    """The i^2-weighted triple e-sum against (1/12)(n^2 + p_2(mu)) h_mu form."""
    rhs = SymFunc(
        "h",
        {
            mu: Fraction(epsilon(mu) * factorial(len(mu) + 2), 12 * mult_factorial(mu))
            * (n * n + power_sum_value(2, mu))
            for mu in enumerate_partitions(n)
        },
    )
    return _eee_sum(n, "i2"), rhs


# ---------------------------------------------------------------------------
# suite runners (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    suite: str
    ok: bool
    findings: list[str]
    detail: dict

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "findings": self.findings,
            "detail": self.detail,
        }


def _suite_conj_table(kind: str, default_range: tuple[int, int]):
    def run(provider: KerovProvider, r_max: int | None = None) -> SuiteReport:
        lo, hi = default_range
        if r_max is not None:
            hi = min(hi, r_max)
        ver = verify_table(kind, (lo, hi), provider)
        findings = [
            f"{kind}: mismatch at r={c.r}: {c.first_mismatch}" for c in ver.checks if not c.ok
        ]
        return SuiteReport(f"conj-{kind}", ver.ok, findings, ver.to_json_dict())

    return run


def _suite_closed_forms(provider: KerovProvider, r_max: int | None = None) -> SuiteReport:
    r_hi = 14 if r_max is None else r_max
    findings = []
    checks = []
    for r in range(3, r_hi + 1):
        ok1 = provider.component(r, r - 1) == krr1_closed_form(r)
        checks.append({"r": r, "component": r - 1, "ok": ok1})
        if not ok1:
            findings.append(f"weight r-1 closed form fails at r={r}")
        if r >= 5:
            ok3 = provider.component(r, r - 3) == krr3_closed_form(r)
            checks.append({"r": r, "component": r - 3, "ok": ok3})
            if not ok3:
                findings.append(f"weight r-3 closed form fails at r={r}")
    # the degree-4 closed forms need length-4 evaluation vectors, which first
    # appear at r = 11..12; their range is fixed rather than tied to r_max
    for kind in ("f2", "g2"):
        target, k = TABLE_TARGETS[kind]
        rep = extract_symfunc(target, k, (5, 12), provider)
        want = load_table(kind).to_symfunc()
        ok = rep.solution is not None and rep.solution == want
        checks.append({"extract": kind, "ok": ok, "rank": rep.system_rank})
        if not ok:
            findings.append(f"extraction does not reproduce the {kind} table")
    verF = verify_table("F2", (5, 12), provider)
    checks.append({"forward": "F2", "ok": verF.ok})
    if not verF.ok:
        findings.append("F2 forward check fails")
    posF = positivity_report(load_table("F2").to_symfunc())
    neg = {mu: c for mu, c in posF.negative}
    okF = set(neg) == {(2, 1, 1), (1, 1, 1)} and neg[(2, 1, 1)] == Fraction(-4, 2880) and neg[
        (1, 1, 1)
    ] == Fraction(-24, 2880)
    checks.append({"F2_negative_entries": okF})
    if not okF:
        findings.append("F2 negative entries differ from the recorded ones")
    return SuiteReport("closed-forms", not findings, findings, {"checks": checks})


def _suite_positivity_R(provider: KerovProvider, r_max: int | None = None) -> SuiteReport:
    r_hi = 14 if r_max is None else r_max
    findings = []
    for r in range(2, r_hi + 1):
        findings.extend(kerov_findings(provider.get(r)))
    return SuiteReport("positivity-R", not findings, findings, {"r_max": r_hi})


def _suite_positivity_family(family: str):
    def run(provider: KerovProvider, r_max: int | None = None) -> SuiteReport:
        r_hi = 14 if r_max is None else r_max
        findings = []
        checked = 0
        for r in range(2, r_hi + 1):
            k = 1
            while r - 2 * k + 1 >= 0:
                s = r - 2 * k + 1
                comp = provider.component(r, s, family)
                checked += 1
                for mu, c in comp.sorted_terms():
                    if c < 0:
                        findings.append(
                            f"K_{{{r},{s}}} has negative {family}-coefficient "
                            f"{format_rational(c)} at {format_partition(mu) or '()'}"
                        )
                k += 1
        return SuiteReport(
            f"positivity-{family}", not findings, findings, {"r_max": r_hi, "components": checked}
        )

    return run


def _suite_kerov_theorem(provider: KerovProvider, r_max: int | None = None) -> SuiteReport:
    r_cap = 8 if r_max is None else min(r_max, 8)
    lam_max = 11
    findings = []
    checked = 0
    for n in range(2, lam_max + 1):
        for lam in enumerate_partitions(n):
            cums = free_cumulants(lam, min(n, r_cap) + 1)
            for r in range(2, min(n, r_cap) + 1):
                checked += 1
                got = provider.get(r).poly.evaluate(cums)
                want = normalized_character(lam, r)
                if got != want:
                    findings.append(f"K_{r} at lambda={lam}: {got} != {want}")
    return SuiteReport(
        "kerov-theorem", not findings, findings, {"lambda_max": lam_max, "checked": checked}
    )


def _suite_lemmas(provider: KerovProvider, r_max: int | None = None) -> SuiteReport:
    n_hi = 10 if r_max is None else min(r_max, 10)
    findings = []
    for n in range(1, n_hi + 1):
        for name, pair in (
            ("triple-e/p", lemma_triple_e_in_p(n)),
            ("triple-e/p weighted", lemma_triple_e_in_p_weighted(n)),
            ("triple-e/h", lemma_triple_e_in_h(n)),
            ("triple-e/h weighted", lemma_triple_e_in_h_weighted(n)),
        ):
            if pair[0] != pair[1]:
                findings.append(f"{name} identity fails at n={n}")
    rng = random.Random(2024)
    draws = 20
    for _ in range(draws):
        a, b, c = (Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(3))
        for n in range(0, min(12, n_hi + 2) + 1):
            brute = triple_sum_bruteforce(a, b, c, n)
            for fam in ("R", "Q"):
                if change_generators(brute, fam) != weighted_triple_sum(a, b, c, n, fam):
                    findings.append(f"triple sum {fam}-form fails at n={n}, (a,b,c)=({a},{b},{c})")
    return SuiteReport("lemmas", not findings, findings, {"n_max": n_hi, "draws": draws})


SUITES = {
    "conj3": _suite_conj_table("c3", (7, 13)),
    "conj4": _suite_conj_table("c4", (9, 12)),
    "conj8": _suite_conj_table("a3", (7, 13)),
    "closed-forms": _suite_closed_forms,
    "positivity-R": _suite_positivity_R,
    "positivity-C": _suite_positivity_family("C"),
    "positivity-Q": _suite_positivity_family("Q"),
    "kerov-theorem": _suite_kerov_theorem,
    "lemmas": _suite_lemmas,
}


def suite_r_values(name: str, r_max: int | None = None) -> list[int]:
    """Kerov polynomial orders a suite will request; used to precompute in parallel."""
    if name == "conj3":
        return list(range(7, min(13, r_max or 13) + 1))
    if name == "conj4":
        return list(range(9, min(12, r_max or 12) + 1))
    if name == "conj8":
        return list(range(7, min(13, r_max or 13) + 1))
    if name == "closed-forms":
        return list(range(3, max(12, 14 if r_max is None else r_max) + 1))
    if name.startswith("positivity"):
        return list(range(2, (14 if r_max is None else r_max) + 1))
    if name == "kerov-theorem":
        return list(range(2, (8 if r_max is None else min(r_max, 8)) + 1))
    return []


def run_suite(name: str, provider: KerovProvider, r_max: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; options: {', '.join(sorted(SUITES))}")
    return SUITES[name](provider, r_max)


def selftest(provider: KerovProvider | None = None) -> list[SuiteReport]:
    """Small-scale bundle of everything: checksums, lemmas, conversions, oracles."""
    provider = provider or KerovProvider()
    reports = []
    for kind in ("c3", "c4", "a3", "f2", "g2", "F2"):
        load_table(kind)  # raises ChecksumError on corruption
    reports.append(SuiteReport("checksums", True, [], {"tables": 6}))
    reports.append(_suite_lemmas(provider, r_max=6))
    reports.append(_suite_kerov_theorem(provider, r_max=5))
    reports.append(_suite_closed_forms(provider, r_max=8))
    reports.append(run_suite("conj3", provider, r_max=9))
    reports.append(run_suite("conj8", provider, r_max=9))
    reports.append(_suite_positivity_R(provider, r_max=9))
    return reports

"""Embedded coefficient tables and verification of the positivity conjectures.

Six shipped tables carry the monomial coefficients of the symmetric functions
describing Kerov components uniformly in r: the conjectural f_3, f_4 (kinds
c3, c4, cumulant expansion) and g_3 (kind a3, Q expansion), and the proved
degree-4 closed forms f2 / g2 / F2.  Each is a CSV file of `partition;value`
lines scaled to integers, and checksums.json records, per kind, the file's
name, sha256 and scale; the file must match both.  Verification compares the
components predicted by these tables against the components of the computed
Kerov polynomials, and extraction goes the other way: it solves for the
unknown symmetric function from computed components and reports rank,
consistency and conflicts.  Each verification suite is declared once in
SUITES, with the r-range it runs.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from fractions import Fraction
from importlib import resources
from math import comb, factorial, perm
from typing import NamedTuple

from .kerov import (
    KerovProvider,
    change_generators,
    character_mismatches,
    kerov_findings,
    krr1_closed_form,
    krr3_closed_form,
    triple_sum_bruteforce,
    weighted_triple_sum,
)
from .linalg import FractionEchelon
from .partitions import (
    Partition,
    enumerate_partitions,
    format_partition,
    format_rational,
    parse_partition,
    series_coefficients,
)
from .symfunc import SymFunc, monomial_value


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


class PaperTable(NamedTuple):
    kind: str
    scale: int
    entries: dict[Partition, int]

    def to_symfunc(self) -> SymFunc:
        return SymFunc("m", {mu: Fraction(v, self.scale) for mu, v in self.entries.items()})


def _read_table_file(name: str) -> bytes:
    return (resources.files("kerovlab") / "tables" / name).read_bytes()


def _checksums() -> dict:
    return json.loads(_read_table_file("checksums.json"))


def load_table(kind: str) -> PaperTable:
    """Load one embedded table: the CSV file that checksums.json names for
    `kind`, one `partition;value` line per entry.  The file must hash to the
    sha256 recorded with its name, and the scale recorded there must equal
    TABLE_SCALES[kind]."""
    if kind not in TABLE_SCALES:
        raise ValueError(f"unknown table kind {kind!r}")
    want = _checksums()["tables"][kind]
    fname = want["file"]
    raw = _read_table_file(fname)
    import hashlib  # only the checksum needs it, and it is slow to import

    have = hashlib.sha256(raw).hexdigest()
    if have != want["sha256"]:
        raise ChecksumError(f"{fname}: sha256 {have} != recorded {want['sha256']}")
    if want["scale"] != TABLE_SCALES[kind]:
        raise ChecksumError(f"{fname}: scale {want['scale']} != expected {TABLE_SCALES[kind]}")
    entries: dict[Partition, int] = {}
    for line in raw.decode("utf-8").splitlines():
        if line.strip():
            part_text, value_text = line.split(";")
            entries[parse_partition(part_text)] = int(value_text)
    return PaperTable(kind, TABLE_SCALES[kind], entries)


# ---------------------------------------------------------------------------
# predicted components
# ---------------------------------------------------------------------------


# Each target's expansion of K_{r,r-2k+1} as a series row in the shape of
# symfunc.SUBSTITUTIONS, parts >= 2: target -> (family, phi, weight), where
# phi takes k and the length l.
EXPANSIONS = {
    "f": ("R", lambda k, l: factorial(l + 2 * k - 2), lambda i: i - 1),
    "g": ("Q", lambda k, l: (2 * k - 1) ** l, lambda i: 1),
    "F": ("C", lambda k, l: perm(2 * k - 1, l), lambda i: 1),
}


def _structural_factors(target: str, k: int, r: int) -> tuple[str, dict[Partition, Fraction]]:
    """The target's family, and mu -> the factor of func(mu) in
    predicted_component: C(r+1,3) times phi(l(mu)) prod_j weight(mu_j) /
    prod_i m_i(mu)! from its EXPANSIONS row, over |mu| = r-2k+1."""
    if target not in EXPANSIONS:
        raise ValueError(f"unknown target {target!r}")
    family, phi, weight = EXPANSIONS[target]
    pref = comb(r + 1, 3)
    coeffs = series_coefficients(r - 2 * k + 1, 2, lambda l: phi(k, l), weight)
    return family, {mu: pref * c for mu, c in coeffs.items()}


def predicted_component(target: str, k: int, r: int, func: SymFunc) -> SymFunc:
    """K_{r,r-2k+1} as the target's expansion predicts it from func, in its family.

    C(r+1,3) times, summed over |mu| = r-2k+1 with parts >= 2:
      f: (l(mu)+2k-2)! f_k(mu) script-R_mu;
      g: (2k-1)^l(mu) g_k(mu) script-Q_mu;
      F: F_k(nu) C_nu over vectors nu in N^(2k-1) that rearrange mu; zero
         entries contribute C_0 = 1, and an entry 1 would give C_1 = 0.
    """
    family, factors = _structural_factors(target, k, r)
    return SymFunc(family, {mu: fac * func.evaluate(mu) for mu, fac in factors.items()})


# ---------------------------------------------------------------------------
# extraction of the conjectural symmetric functions from computed components
# ---------------------------------------------------------------------------


class ExtractionReport(NamedTuple):
    target: str
    k: int
    r_range: tuple[int, int]
    solution: SymFunc | None
    system_rank: int
    unknown_count: int
    consistent: bool
    residual_rows: list[tuple[int, Partition]]

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


def extract_symfunc(
    target: str, k: int, r_range: tuple[int, int], provider: KerovProvider
) -> ExtractionReport:
    """Solve for the degree-bounded symmetric function behind K_{r,r-2k+1}.

    Unknowns are monomial coefficients c_rho for 0 <= |rho| <= 4(k-1),
    constant term included.  Every admissible monomial of every component in
    the r range contributes one equation; rows that contradict the span of
    the earlier ones are recorded as residual rows rather than raised.  An r
    range with no component (r - 2k + 1 < 0 throughout) is a ValueError.
    """
    r_lo, r_hi = r_range
    if r_hi - 2 * k + 1 < 0:
        raise ValueError(f"no r in {r_lo}..{r_hi} has a weight r-2k+1 >= 0 component for k={k}")
    unknowns = [rho for d in range(4 * (k - 1) + 1) for rho in enumerate_partitions(d)]
    ech = FractionEchelon(len(unknowns))
    residual: list[tuple[int, Partition]] = []
    for r in range(max(r_lo, 2 * k - 1), r_hi + 1):  # r - 2k + 1 >= 0
        family, factors = _structural_factors(target, k, r)
        comp = provider.component(r, r - 2 * k + 1, family)
        for mu, fac in factors.items():
            coef = comp.terms.get(mu, Fraction(0))
            if fac == 0:
                if coef:
                    residual.append((r, mu))  # no monomial can produce this term
                continue
            row = [monomial_value(rho, mu) for rho in unknowns]
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


class TableCheck(NamedTuple):
    r: int
    ok: bool
    first_mismatch: dict | None = None


class TableVerification(NamedTuple):
    kind: str
    checks: list[TableCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "checks": [c._asdict() for c in self.checks],
        }


def _first_mismatch(got: SymFunc, want: SymFunc) -> dict | None:
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
    for r in range(max(r_range[0], 2 * k - 1), r_range[1] + 1):  # r - 2k + 1 >= 0
        predicted = predicted_component(target, k, r, func)
        computed = provider.component(r, r - 2 * k + 1, predicted.basis)
        mism = _first_mismatch(computed, predicted)
        checks.append(TableCheck(r=r, ok=mism is None, first_mismatch=mism))
    return TableVerification(kind=kind, checks=checks)


class PositivityReport(NamedTuple):
    negative: list[tuple[Partition, Fraction]]
    positive_count: int

    @property
    def ok(self) -> bool:
        return not self.negative

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "positive": self.positive_count,
            "negative": [
                {"partition": list(mu), "coef": format_rational(c)}
                for mu, c in self.negative
            ],
        }


def positivity_report(obj) -> PositivityReport:
    """Count coefficient signs of a SymFunc, which holds no zero coefficient."""
    terms = obj.sorted_terms()
    neg = [(mu, c) for mu, c in terms if c < 0]
    return PositivityReport(neg, len(terms) - len(neg))


# ---------------------------------------------------------------------------
# identity suites (Cauchy-type lemmas and the weighted triple sums)
# ---------------------------------------------------------------------------


def lemma_triple_e_in_p(n: int) -> tuple[SymFunc, SymFunc]:
    """The plain triple e-sum and its power-sum form with factor 3^l(mu)."""
    return triple_sum_bruteforce(1, 0, 0, n, "e"), weighted_triple_sum(1, 0, 0, n, "p")


def lemma_triple_e_in_p_weighted(n: int) -> tuple[SymFunc, SymFunc]:
    """The i^2-weighted triple e-sum against 3^(l-2) (n^2 + 2 p_2(mu))."""
    return triple_sum_bruteforce(0, 0, 1, n, "e"), weighted_triple_sum(0, 0, 1, n, "p")


def lemma_triple_e_in_h(n: int) -> tuple[SymFunc, SymFunc]:
    """The plain triple e-sum against (1/2) (l(mu)+2)!/prod m_i! h_mu."""
    return triple_sum_bruteforce(1, 0, 0, n, "e"), weighted_triple_sum(1, 0, 0, n, "h")


def lemma_triple_e_in_h_weighted(n: int) -> tuple[SymFunc, SymFunc]:
    """The i^2-weighted triple e-sum against (1/12)(n^2 + p_2(mu)) h_mu form."""
    return triple_sum_bruteforce(0, 0, 1, n, "e"), weighted_triple_sum(0, 0, 1, n, "h")


# ---------------------------------------------------------------------------
# suite runners (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------


class SuiteReport(NamedTuple):
    suite: str
    ok: bool
    findings: list[str]
    detail: dict

    def to_json_dict(self) -> dict:
        return self._asdict()


def _suite_conj_table(kind: str):
    def run(provider: KerovProvider, lo: int, hi: int) -> SuiteReport:
        ver = verify_table(kind, (lo, hi), provider)
        findings = [
            f"{kind}: mismatch at r={c.r}: {c.first_mismatch}" for c in ver.checks if not c.ok
        ]
        return SuiteReport(f"conj-{kind}", ver.ok, findings, ver.to_json_dict())

    return run


def _suite_closed_forms(provider: KerovProvider, lo: int, hi: int) -> SuiteReport:
    findings = []
    checks = []
    for r in range(lo, hi + 1):
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
    fixed = SUITES["closed-forms"].fixed
    for kind in ("f2", "g2"):
        target, k = TABLE_TARGETS[kind]
        rep = extract_symfunc(target, k, fixed, provider)
        want = load_table(kind).to_symfunc()
        ok = rep.solution is not None and rep.solution == want
        checks.append({"extract": kind, "ok": ok, "rank": rep.system_rank})
        if not ok:
            findings.append(f"extraction does not reproduce the {kind} table")
    verF = verify_table("F2", fixed, provider)
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


def _suite_positivity_R(provider: KerovProvider, lo: int, hi: int) -> SuiteReport:
    findings = []
    for r in range(lo, hi + 1):
        findings.extend(kerov_findings(provider.get(r)))
    return SuiteReport("positivity-R", not findings, findings, {"r_max": hi})


def _suite_positivity_family(family: str):
    def run(provider: KerovProvider, lo: int, hi: int) -> SuiteReport:
        findings = []
        checked = 0
        for r in range(lo, hi + 1):
            for s in range(r - 1, -1, -2):
                comp = provider.component(r, s, family)
                checked += 1
                findings.extend(
                    f"K_{{{r},{s}}} has negative {family}-coefficient "
                    f"{format_rational(c)} at {format_partition(mu) or '()'}"
                    for mu, c in positivity_report(comp).negative
                )
        return SuiteReport(
            f"positivity-{family}", not findings, findings, {"r_max": hi, "components": checked}
        )

    return run


def _suite_kerov_theorem(provider: KerovProvider, lo: int, hi: int) -> SuiteReport:
    lam_max = 11
    findings, checked = [], 0
    for n in range(2, lam_max + 1):
        lams = enumerate_partitions(n)
        kps = [provider.get(r) for r in range(lo, min(n, hi) + 1)]
        checked += len(lams) * len(kps)
        findings.extend(f"K_{r} at lambda={lam}: {got} != {want}"
                        for lam, r, got, want in character_mismatches(kps, lams))
    return SuiteReport(
        "kerov-theorem", not findings, findings, {"lambda_max": lam_max, "checked": checked}
    )


def _suite_lemmas(provider: KerovProvider, lo: int, hi: int) -> SuiteReport:
    findings = []
    for n in range(lo, hi + 1):
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
        for n in range(0, min(12, hi + 2) + 1):
            brute = triple_sum_bruteforce(a, b, c, n)
            for fam in ("R", "Q"):
                if change_generators(brute, fam) != weighted_triple_sum(a, b, c, n, fam):
                    findings.append(f"triple sum {fam}-form fails at n={n}, (a,b,c)=({a},{b},{c})")
    return SuiteReport("lemmas", not findings, findings, {"n_max": hi, "draws": draws})


class Suite(NamedTuple):
    """A verification suite and the range first..top of r (n for lemmas) it runs.

    --r-max replaces top, or only lowers it when `capped`.  `fixed` is an r
    range the suite reads whatever --r-max says, and a suite that reads no
    K_r (`kerov` false) requests none.
    """

    run: Callable[[KerovProvider, int, int], SuiteReport]
    first: int
    top: int
    capped: bool
    fixed: tuple[int, int] | None = None
    kerov: bool = True

    def top_for(self, r_max: int | None) -> int:
        if r_max is None:
            return self.top
        return min(self.top, r_max) if self.capped else r_max

    def r_values(self, r_max: int | None = None) -> list[int]:
        """Kerov polynomial orders the suite requests; used to precompute in parallel."""
        if not self.kerov:
            return []
        rs = set(range(self.first, self.top_for(r_max) + 1))
        if self.fixed:
            rs.update(range(self.fixed[0], self.fixed[1] + 1))
        return sorted(rs)


SUITES = {
    "conj3": Suite(_suite_conj_table("c3"), 7, 13, capped=True),
    "conj4": Suite(_suite_conj_table("c4"), 9, 12, capped=True),
    "conj8": Suite(_suite_conj_table("a3"), 7, 13, capped=True),
    "closed-forms": Suite(_suite_closed_forms, 3, 14, capped=False, fixed=(5, 12)),
    "positivity-R": Suite(_suite_positivity_R, 2, 14, capped=False),
    "positivity-C": Suite(_suite_positivity_family("C"), 2, 14, capped=False),
    "positivity-Q": Suite(_suite_positivity_family("Q"), 2, 14, capped=False),
    "kerov-theorem": Suite(_suite_kerov_theorem, 2, 8, capped=True),
    "lemmas": Suite(_suite_lemmas, 1, 10, capped=True, kerov=False),
}


def run_suite(name: str, provider: KerovProvider, r_max: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; options: {', '.join(sorted(SUITES))}")
    suite = SUITES[name]
    return suite.run(provider, suite.first, suite.top_for(r_max))


def selftest(provider: KerovProvider | None = None) -> list[SuiteReport]:
    """Small-scale bundle of everything: checksums, lemmas, conversions, oracles."""
    provider = provider or KerovProvider()
    reports = []
    for kind in ("c3", "c4", "a3", "f2", "g2", "F2"):
        load_table(kind)  # raises ChecksumError on corruption
    reports.append(SuiteReport("checksums", True, [], {"tables": 6}))
    for name, r_max in (
        ("lemmas", 6), ("kerov-theorem", 5), ("closed-forms", 8),
        ("conj3", 9), ("conj8", 9), ("positivity-R", 9),
    ):
        reports.append(run_suite(name, provider, r_max))
    return reports

import json
import re
from fnmatch import fnmatch
from fractions import Fraction
from pathlib import Path

import pytest

import kerovlab.conjectures as conj
from kerovlab.conjectures import (
    ChecksumError,
    SUITES,
    extract_symfunc,
    lemma_triple_e_in_h,
    lemma_triple_e_in_h_weighted,
    lemma_triple_e_in_p,
    lemma_triple_e_in_p_weighted,
    load_table,
    positivity_report,
    predicted_component,
    run_suite,
    selftest,
    verify_table,
)
from kerovlab.kerov import CumulantPolynomial, KerovProvider, change_generators
from kerovlab.partitions import enumerate_partitions
from kerovlab.symfunc import SymFunc

# the power-sum forms of the three degree-4 closed forms, used as an
# independent transcription check of the m-basis tables
F2_P = SymFunc(
    "p",
    {(2, 1, 1): 4, (1, 1, 1, 1): -1, (2, 1): 24, (1, 1, 1): -4, (2,): 30, (1, 1): 5, (1,): 18},
).scale(Fraction(1, 2880))
f2_P = SymFunc(
    "p",
    {(2, 1, 1): 2, (1, 1, 1, 1): 1, (2, 1): 12, (1, 1, 1): 8, (2,): 15, (1, 1): 20, (1,): 18},
).scale(Fraction(1, 5760))
g2_P = SymFunc(
    "p",
    {(2, 1, 1): 8, (1, 1, 1, 1): 1, (2, 1): 48, (1, 1, 1): 12, (2,): 60, (1, 1): 45, (1,): 54},
).scale(Fraction(1, 8640))


# ---------------------------------------------------------------------------
# embedded tables
# ---------------------------------------------------------------------------


def test_table_sizes_and_scales():
    assert len(load_table("c3").entries) == 66
    assert len(load_table("a3").entries) == 66
    assert len(load_table("c4").entries) == 271
    assert load_table("c3").scale == 58060800  # 2 * 6! * 8!
    assert load_table("a3").scale == 302400000  # 500 * 5! * 7!
    assert load_table("c4").scale == 38626689024000  # 2 * 8! * 12!


def test_table_spot_entries():
    c3 = load_table("c3").entries
    assert c3[(8,)] == 9 and c3[(2,)] == 39884 and c3[(1,)] == 13200
    assert c3[(4, 2, 1, 1)] == 1904
    a3 = load_table("a3").entries
    assert a3[(8,)] == 1125 and a3[(2, 2, 1)] == 7740360 and a3[(1,)] == 1650000
    c4 = load_table("c4").entries
    assert c4[(12,)] == 495 and c4[(1,) * 12] == 5588352000
    # the row printed with an ambiguous weight-11 label resolves to (5,3,2,2)
    assert c4[(5, 3, 3, 1)] == 8360352 and c4[(5, 3, 2, 2)] == 11420640
    assert c4[(5, 3, 3)] == 49454592  # the genuine weight-11 row


def test_tables_cover_full_degree_ranges():
    for kind, degmax in (("c3", 8), ("a3", 8), ("c4", 12)):
        entries = load_table(kind).entries
        for d in range(1, degmax + 1):
            for rho in enumerate_partitions(d):
                assert rho in entries, (kind, rho)
        assert () not in entries  # no constant row


def test_conjectured_tables_are_entirely_positive():
    for kind in ("c3", "c4", "a3"):
        rep = positivity_report(load_table(kind).to_symfunc())
        assert rep.ok
        assert rep.positive_count == len(load_table(kind).entries)


def test_checksum_failure_raises(monkeypatch):
    real = conj._read_table_file

    def corrupted(name):
        data = real(name)
        return data.replace(b"39884", b"39885", 1) if name == "c3.csv" else data

    monkeypatch.setattr(conj, "_read_table_file", corrupted)
    with pytest.raises(ChecksumError):
        load_table("c3")
    monkeypatch.undo()
    assert load_table("c3").entries[(8,)] == 9


def test_every_load_checks_the_digest_again(monkeypatch):
    # a table loaded once is read and hashed again on the next load
    assert load_table("c3").entries[(8,)] == 9
    real = conj._read_table_file
    monkeypatch.setattr(
        conj, "_read_table_file",
        lambda name: real(name).replace(b"39884", b"39885", 1) if name == "c3.csv" else real(name),
    )
    with pytest.raises(ChecksumError):
        load_table("c3")


def test_table_scale_mismatch_raises(monkeypatch):
    monkeypatch.setitem(conj.TABLE_SCALES, "F2", 2881)
    with pytest.raises(ChecksumError, match="scale 2880"):
        load_table("F2")


def test_csv_table_scale_mismatch_raises(monkeypatch):
    # every table's recorded scale is checked, not only the closed forms'
    monkeypatch.setitem(conj.TABLE_SCALES, "c3", conj.TABLE_SCALES["c3"] + 1)
    with pytest.raises(ChecksumError, match="c3.csv: scale 58060800"):
        load_table("c3")


def test_every_table_is_in_the_manifest_and_the_wheel():
    root = Path(__file__).resolve().parent.parent
    tables = root / "src" / "kerovlab" / "tables"
    names = sorted(p.name for p in tables.iterdir() if p.name != "checksums.json")
    manifest = json.loads((tables / "checksums.json").read_text())["tables"]
    assert sorted(entry["file"] for entry in manifest.values()) == names
    for kind, entry in manifest.items():
        assert set(entry) == {"file", "scale", "sha256"}, kind
    # a case-insensitive file system (macOS, Windows) keeps one of two names
    # that differ only in case
    assert len({name.lower() for name in names + ["checksums.json"]}) == len(names) + 1
    # the package-data globs, read without tomllib (Python 3.10 has none)
    pyproject = (root / "pyproject.toml").read_text()
    section = pyproject.split("[tool.setuptools.package-data]", 1)[1].split("\n[", 1)[0]
    globs = re.findall(r'"([^"]+)"', section)
    for name in names + ["checksums.json"]:
        assert any(fnmatch(f"tables/{name}", g) for g in globs), name


def test_closed_form_tables_match_their_power_sum_forms():
    assert load_table("f2").to_symfunc() == f2_P
    assert load_table("g2").to_symfunc() == g2_P
    # the printed monomial form of F2 omits the monomial needing four
    # variables; the two forms agree wherever F2 is ever evaluated (vectors
    # with at most three entries) and differ by exactly that one term
    diff = (F2_P - load_table("F2").to_symfunc().convert("p")).convert("m")
    assert diff.terms == {(1, 1, 1, 1): Fraction(-1, 120)}
    for v in [(), (2,), (4, 2), (3, 2, 2), (9, 9, 9)]:
        assert F2_P.evaluate(v) == load_table("F2").to_symfunc().evaluate(v)


def test_checksum_file_flags_ambiguous_row():
    notes = json.loads(conj._read_table_file("checksums.json"))["notes"]
    assert "5,3,2,2" in notes["c4.csv"]


# ---------------------------------------------------------------------------
# predicted components
# ---------------------------------------------------------------------------


def test_predicted_f_examples(provider):
    f2 = load_table("f2").to_symfunc()
    assert f2.evaluate((2,)) == Fraction(384, 5760) == Fraction(1, 15)
    assert f2.evaluate((3,)) == Fraction(1152, 5760) == Fraction(1, 5)
    assert predicted_component("f", 2, 5, f2).terms == {(2,): 8}
    assert predicted_component("f", 2, 6, f2).terms == {(3,): 84}
    quarter = SymFunc.constant(Fraction(1, 4))
    assert predicted_component("f", 1, 5, quarter).terms == {(4,): 15, (2, 2): 5}


def test_predicted_g_examples():
    g2 = load_table("g2").to_symfunc()
    assert g2.evaluate((2,)) == Fraction(1152, 8640) == Fraction(2, 15)
    assert g2.evaluate((3,)) == Fraction(2, 5)
    assert predicted_component("g", 2, 5, g2).terms == {(2,): 8}
    assert predicted_component("g", 2, 6, g2).terms == {(3,): 42}
    quarter = SymFunc.constant(Fraction(1, 4))
    assert predicted_component("g", 1, 5, quarter).terms == {(4,): 5, (2, 2): Fraction(5, 2)}


def test_predicted_F_examples():
    quarter = SymFunc.constant(Fraction(1, 4))
    assert predicted_component("F", 1, 5, quarter).terms == {(4,): 5}
    F2 = load_table("F2").to_symfunc()
    assert change_generators(predicted_component("F", 2, 5, F2), "R").terms == {(2,): 8}
    assert change_generators(predicted_component("F", 2, 6, F2), "R").terms == {(3,): 84}


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_extract_f1_is_constant_quarter(provider):
    rep = extract_symfunc("f", 1, (3, 8), provider)
    assert rep.consistent and rep.solution == SymFunc.constant(Fraction(1, 4))
    assert rep.unknown_count == 1 and rep.system_rank == 1


def test_extract_F_is_rank_deficient(provider):
    rep = extract_symfunc("F", 2, (5, 12), provider)
    assert rep.consistent and rep.solution is None
    assert rep.system_rank == rep.unknown_count - 1  # m_1111 needs 4 entries


def test_extract_flags_inconsistency():
    # skewing one component makes the overdetermined system contradictory;
    # the conflict surfaces on whichever later rows close the circuit
    class Skewed:
        def component(self, r, s, family="R"):
            poly = _real.component(r, s, family)
            if r == 7:
                poly = poly + CumulantPolynomial(family, {(s,): 1})
            return poly

    _real = KerovProvider()
    rep = extract_symfunc("f", 2, (5, 12), Skewed())
    assert not rep.consistent
    assert rep.residual_rows
    assert rep.solution is None


def test_extract_raises_before_building_unknowns():
    class Untouched:
        def component(self, r, s, family):
            raise AssertionError("no component should be read")

    # k = 40 would need every partition of 0..156 as an unknown
    with pytest.raises(ValueError, match="no r in 5..20"):
        extract_symfunc("g", 40, (5, 20), Untouched())


def test_extraction_report_json(provider):
    rep = extract_symfunc("f", 1, (3, 6), provider)
    data = rep.to_json_dict()
    assert data["consistent"] is True
    assert data["solution"]["terms"] == [{"partition": [], "coef": "1/4"}]


# ---------------------------------------------------------------------------
# table verification and positivity
# ---------------------------------------------------------------------------


def test_verify_tables_small_range(provider):
    assert verify_table("c3", (7, 10), provider).ok
    assert verify_table("a3", (7, 10), provider).ok
    assert verify_table("c4", (9, 10), provider).ok
    assert verify_table("F2", (5, 10), provider).ok


def test_verify_table_reports_first_mismatch():
    class Skewed:
        def component(self, r, s, family="R"):
            poly = _real.component(r, s, family)
            if r == 8:
                poly = poly.scale(2)
            return poly

    _real = KerovProvider()
    ver = verify_table("c3", (7, 8), Skewed())
    assert not ver.ok
    byr = {c.r: c for c in ver.checks}
    assert byr[7].ok and not byr[8].ok
    assert byr[8].first_mismatch is not None


def test_positivity_findings_name_each_negative_coefficient_in_order(monkeypatch, provider):
    # two negative coefficients in one component, listed in the display order
    # (weight descending), not in the tuples' sorted order
    bad = CumulantPolynomial("C", {(): Fraction(-5), (2, 2): Fraction(1), (3,): Fraction(-1, 3)})
    real = KerovProvider.component
    monkeypatch.setattr(
        KerovProvider, "component",
        lambda self, r, s, family="R": bad if (r, s) == (3, 0) else real(self, r, s, family),
    )
    rep = run_suite("positivity-C", provider, r_max=5)
    assert rep.findings == [
        "K_{3,0} has negative C-coefficient -1/3 at 3",
        "K_{3,0} has negative C-coefficient -5 at ()",
    ]
    assert not rep.ok and rep.detail["components"] == 8


def test_positivity_report_examples(provider):
    rep = positivity_report(load_table("f2").to_symfunc())
    assert rep.ok and rep.positive_count == 11
    rep = positivity_report(load_table("F2").to_symfunc())
    assert not rep.ok
    assert {mu: c for mu, c in rep.negative} == {
        (2, 1, 1): Fraction(-4, 2880),
        (1, 1, 1): Fraction(-24, 2880),
    }
    rep = positivity_report(provider.get(6).poly)
    assert rep.ok and all(c.denominator == 1 for _, c in provider.get(6).poly.terms.items())


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def test_lemma_identities_small():
    for n in range(1, 8):
        lhs, rhs = lemma_triple_e_in_p(n)
        assert lhs == rhs, n
        lhs, rhs = lemma_triple_e_in_p_weighted(n)
        assert lhs == rhs, n
        lhs, rhs = lemma_triple_e_in_h(n)
        assert lhs == rhs, n
        lhs, rhs = lemma_triple_e_in_h_weighted(n)
        assert lhs == rhs, n


def test_suites_run_green(provider):
    assert run_suite("lemmas", provider, r_max=6).ok
    assert run_suite("kerov-theorem", provider, r_max=5).ok
    assert run_suite("conj3", provider, r_max=9).ok
    assert run_suite("positivity-R", provider, r_max=8).ok
    assert run_suite("positivity-C", provider, r_max=8).ok
    assert run_suite("positivity-Q", provider, r_max=8).ok
    with pytest.raises(ValueError):
        run_suite("nope", provider)


def test_suite_r_values():
    assert SUITES["conj3"].r_values() == list(range(7, 14))
    assert SUITES["conj4"].r_values(10) == [9, 10]
    assert SUITES["lemmas"].r_values() == []
    assert max(SUITES["closed-forms"].r_values(8)) == 12


class _RecordingProvider(KerovProvider):
    """Records every K_r a suite asks for; shares the session provider's
    memory, so each K_r is still computed once."""

    def __init__(self, mem):
        super().__init__()
        self._mem = mem
        self.requested = set()

    def get(self, r):
        self.requested.add(r)
        return super().get(r)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_requests_exactly_its_declared_r_values(provider, name):
    for r_max in (None, 2, 3, 5, 9, 12):
        recorder = _RecordingProvider(provider._mem)
        run_suite(name, recorder, r_max)
        assert recorder.requested == set(SUITES[name].r_values(r_max)), r_max


def test_selftest_bundle(provider):
    reports = selftest(provider)
    assert all(rep.ok for rep in reports)
    names = [rep.suite for rep in reports]
    assert "checksums" in names and "lemmas" in names

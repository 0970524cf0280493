import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kerovlab.cli as cli
import kerovlab.conjectures as conj
from kerovlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kerov_json_bytes(capsys):
    code, out, err = run_cli(capsys, "kerov", "--r", "3", "--basis", "R")
    assert code == 0
    assert out == '{"r":3,"terms":[{"partition":[4],"coef":"1"},{"partition":[2],"coef":"1"}]}\n'
    assert "K_3" in err


# sha256 of the stdout of `kerov --r N --jobs 1` (R basis) for N = 2..31,
# recorded from a separate implementation of the closed form (suffix memos)
# and of `kerov --r N --basis C|Q --jobs 1` for N = 2..25, recorded before the
# generator changes moved to one substitution table; and of four `extract`
# runs and the nine suites, recorded before the f/g/F factors became one table
KEROV_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "kerov_stdout_sha256.json").read_text()
)
KEROV_STDOUT_SHA256 = {int(r): digest for r, digest in KEROV_DIGESTS["stdout_sha256"].items()}


def kerov_stdout_sha256(capsys, r, basis="R"):
    code, out, _ = run_cli(capsys, "kerov", "--r", str(r), "--basis", basis, "--jobs", "1")
    assert code == 0, r
    return hashlib.sha256(out.encode()).hexdigest()


PAST_THE_GOLDEN_RANGE = (17, 18, 19)


@pytest.mark.parametrize("r", PAST_THE_GOLDEN_RANGE)
def test_kerov_stdout_is_pinned_past_the_golden_range(capsys, r):
    assert kerov_stdout_sha256(capsys, r) == KEROV_STDOUT_SHA256[r]


def test_kerov_stdout_matches_the_committed_digests(capsys):
    # the rest of K_2..K_21 in one process, about 1 s
    rs = [r for r in range(2, 22) if r not in PAST_THE_GOLDEN_RANGE]
    assert {r: kerov_stdout_sha256(capsys, r) for r in rs} == {
        r: KEROV_STDOUT_SHA256[r] for r in rs
    }


def test_kerov_c_and_q_stdout_match_the_committed_digests(capsys):
    # K_2..K_21 in C and Q in one process, about 2 s
    for basis in ("C", "Q"):
        want = KEROV_DIGESTS["basis_stdout_sha256"][basis]
        got = {str(r): kerov_stdout_sha256(capsys, r, basis) for r in range(2, 22)}
        assert got == {r: want[r] for r in got}, basis


def test_stretch_kerov_stdout_matches_the_committed_digests(capsys):
    # K_22..K_31 in one process: 62 s on a 2-vCPU host, within a 300 s budget
    if not os.environ.get("KEROVLAB_STRETCH"):
        pytest.skip("stretch run disabled; set KEROVLAB_STRETCH=1 to enable")
    budget = 300.0
    t0 = time.time()
    for r in range(22, 32):
        assert kerov_stdout_sha256(capsys, r) == KEROV_STDOUT_SHA256[r], r
    elapsed = time.time() - t0
    assert elapsed <= budget, f"K_22..K_31 took {elapsed:.0f}s of a {budget:.0f}s budget"


def test_extract_and_verify_stdout_match_the_committed_digests(capsys, monkeypatch, provider):
    # extract f_3, g_3, g_2 and F_2 and the nine suites at their default
    # ranges, on the session's provider so each K_r is computed once
    monkeypatch.setattr(cli, "KerovProvider", lambda cache_dir=None: provider)
    got, want = {}, {}
    for cmd, fields in (("extract", ("family", "k", "r_min", "r_max")), ("verify", ("suite",))):
        for name, digest in KEROV_DIGESTS[f"{cmd}_stdout_sha256"].items():
            argv = KEROV_DIGESTS[f"{cmd}_command"].format(**dict(zip(fields, name.split())))
            code, out, _ = run_cli(capsys, *argv.split())
            got[cmd, name] = code, hashlib.sha256(out.encode()).hexdigest()
            want[cmd, name] = 0, digest
    assert got == want


def test_kerov_component_and_bases(capsys):
    code, out, _ = run_cli(capsys, "kerov", "--r", "5", "--component", "4", "--basis", "Q")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "r": 5,
        "basis": "Q",
        "component": 4,
        "terms": [{"partition": [4], "coef": "5"}, {"partition": [2, 2], "coef": "5/2"}],
    }


def test_kerov_csv_and_text(capsys):
    code, out, _ = run_cli(capsys, "kerov", "--r", "3", "--out", "csv")
    assert code == 0 and out == "4;1\n2;1\n"
    code, out, _ = run_cli(capsys, "kerov", "--r", "3", "--out", "text")
    assert code == 0 and out == "1*R4 + 1*R2\n"


def test_character_example(capsys):
    code, out, _ = run_cli(capsys, "character", "--lambda", "3,1", "--r", "2")
    assert code == 0
    assert out == '{"lambda":[3,1],"r":2,"normalized":"4","dim":3,"raw":1}\n'


def test_cumulants_example(capsys):
    code, out, _ = run_cli(capsys, "cumulants", "--lambda", "3,1", "--max-k", "8")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == [3, 1]
    assert data["R"]["2"] == "4" and data["R"]["3"] == "4"
    assert list(data["R"]) == ["2", "3", "4", "5", "6", "7", "8"]


def test_verify_suite_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "lemmas", "--r-max", "5", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert "PASS" in err


def test_extract_cli(capsys):
    code, out, _ = run_cli(
        capsys, "extract", "--family", "f", "--k", "1", "--r-min", "3", "--r-max", "7",
        "--jobs", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    assert data["solution"]["terms"] == [{"partition": [], "coef": "1/4"}]


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "kerov", "--r", "6")
    _, out2, _ = run_cli(capsys, "kerov", "--r", "6")
    assert out1 == out2


def test_cache_transparency(capsys, tmp_path):
    cold, out_cold, _ = run_cli(
        capsys, "kerov", "--r", "5", "--cache-dir", str(tmp_path), "--jobs", "1"
    )
    warm, out_warm, _ = run_cli(
        capsys, "kerov", "--r", "5", "--cache-dir", str(tmp_path), "--jobs", "1"
    )
    assert cold == warm == 0
    assert out_cold == out_warm
    assert (tmp_path / "kerov_r5.json").exists()


def test_environment_does_not_point_at_a_cache(capsys, tmp_path, monkeypatch):
    # --cache-dir is the one cache setting: a KEROVLAB_CACHE directory holding
    # a tampered K_5 is not read
    _, want, _ = run_cli(capsys, "kerov", "--r", "5", "--cache-dir", str(tmp_path), "--jobs", "1")
    path = tmp_path / "kerov_r5.json"
    path.write_text(path.read_text().replace('"coef":"15"', '"coef":"16"'))
    monkeypatch.setenv("KEROVLAB_CACHE", str(tmp_path))
    code, out, _ = run_cli(capsys, "kerov", "--r", "5", "--jobs", "1")
    assert code == 0
    assert '"coef":"15"' in out and out == want


def test_stale_cache_recomputed(capsys, tmp_path):
    run_cli(capsys, "kerov", "--r", "4", "--cache-dir", str(tmp_path))
    path = tmp_path / "kerov_r4.json"
    data = json.loads(path.read_text())
    data["format_version"] = 0
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "kerov", "--r", "4", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["terms"][0] == {"partition": [5], "coef": "1"}
    assert json.loads(path.read_text())["format_version"] == 1


@pytest.mark.parametrize("payload", [
    "[]",
    '{"format_version":1,"r":5,"terms":{"a":1}}',
    '{"format_version":1,"r":5,"terms":[{"partition":5,"coef":"1"}]}',
    '{"format_version":1,"r":5,"terms":[{"partition":[[2]],"coef":"1"}]}',
    '{"format_version":1,"r":5,"terms":[{"partition":[6],"coef":"1/0"}]}',
], ids=["list", "terms-dict", "partition-int", "partition-nested", "zero-denominator"])
def test_wrong_shaped_cache_file_is_recomputed(capsys, tmp_path, payload):
    # valid JSON of the wrong shape, or with a coefficient that does not
    # parse, is a stale file, not a crash
    _, want, _ = run_cli(capsys, "kerov", "--r", "5", "--jobs", "1")
    (tmp_path / "kerov_r5.json").write_text(payload)
    code, out, _ = run_cli(capsys, "kerov", "--r", "5", "--jobs", "1", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == want
    assert json.loads((tmp_path / "kerov_r5.json").read_text())["r"] == 5


def test_cache_parser_bug_is_not_taken_for_a_stale_file(capsys, tmp_path, monkeypatch):
    # only the file's shape is forgiven: a TypeError from the parser itself
    # propagates, and main reports it as an internal error
    from kerovlab.kerov import CumulantPolynomial

    run_cli(capsys, "kerov", "--r", "5", "--jobs", "1", "--cache-dir", str(tmp_path))

    def broken(tag, terms):
        raise TypeError("parser bug")

    monkeypatch.setattr(CumulantPolynomial, "from_terms_json", broken)
    code, out, err = run_cli(capsys, "kerov", "--r", "5", "--jobs", "1", "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "TypeError: parser bug" in err


def test_unexpected_exception_exits_2_with_traceback(capsys, monkeypatch):
    # exit 1 means a mathematical finding; a bug exits 2 and shows where it is
    import kerovlab.cli as cli

    def broken(args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "cmd_character", broken)
    code, out, err = run_cli(capsys, "character", "--lambda", "2,1", "--r", "2")
    assert code == 2
    assert out == ""
    assert "Traceback" in err and "TypeError: unsupported operand" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kerov"])  # missing --r
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    assert main(["kerov", "--r", "1"]) == 2
    assert main(["cumulants", "--lambda", "1,3", "--max-k", "4"]) == 2
    assert main(["cumulants", "--lambda", "", "--max-k", "4"]) == 2
    assert main(["character", "--lambda", "2,1", "--r", "5"]) == 2
    assert main(["extract", "--family", "f", "--k", "2", "--r-min", "9", "--r-max", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("suite, r_max", [
    ("conj4", 5), ("conj3", 6), ("conj8", 6), ("closed-forms", 2),
])
def test_empty_suite_range_is_a_usage_error(capsys, monkeypatch, suite, r_max):
    # an r-range with nothing to check must not pass vacuously, and no K_r is
    # computed for it
    import kerovlab.kerov as kerov

    calls = []
    real = kerov.compute_kerov
    monkeypatch.setattr(kerov, "compute_kerov", lambda r: calls.append(r) or real(r))
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--r-max", str(r_max), "--jobs", "1"
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and "usage:" in err
    assert calls == []


def test_negative_component_is_a_usage_error(capsys):
    assert main(["kerov", "--r", "5", "--component", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--component must be >= 0" in err and "usage:" in err


def test_selftest_checksum_failure_exits_2(capsys, monkeypatch):
    real = conj._read_table_file

    def corrupted(name):
        data = real(name)
        return data.replace(b"13200", b"13201", 1) if name == "c3.csv" else data

    monkeypatch.setattr(conj, "_read_table_file", corrupted)
    code, _, err = run_cli(capsys, "selftest", "--jobs", "1")
    assert code == 2
    assert "checksum" in err.lower()
    monkeypatch.undo()


def test_interpolation_failure_exits_2(capsys, monkeypatch, short_echelon):
    # an echelon that stops one pivot short of core rank fails the certificate
    code, out, err = run_cli(capsys, "kerov", "--r", "12")
    assert code == 2
    assert out == ""
    assert "error: K_12: rank" in err
    assert "usage:" not in err


def test_failed_solve_exits_2_without_usage(capsys, monkeypatch):
    # K_r comes from the closed form; a wrong coefficient there must fail the
    # certificate as an internal error, not as a usage error
    import kerovlab.kerov as kerov

    real = kerov._closed_form

    def off_by_one(r):
        terms = real(r)
        mu = max(terms)
        terms[mu] += 1
        return terms

    monkeypatch.setattr(kerov, "_closed_form", off_by_one)
    code, out, err = run_cli(capsys, "kerov", "--r", "8")
    assert code == 2
    assert out == ""
    assert "error: K_8: closed form does not fit diagram" in err
    assert "usage:" not in err


def test_cold_kerov_never_imports_numpy(tmp_path):
    script = (
        "import contextlib, io, sys\n"
        "from kerovlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['kerov', '--r', '10', '--cache-dir', {str(tmp_path)!r}])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["0", "False"]
    assert (tmp_path / "kerov_r10.json").exists()


def test_cli_import_leaves_out_dataclasses_and_hashlib():
    # every CLI process pays for its imports; hashlib is loaded by the table
    # checksum only, and no record type needs dataclasses
    script = "import sys, kerovlab.cli\nprint('dataclasses' in sys.modules, 'hashlib' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["False", "False"]


def test_verify_finding_exits_1(capsys, monkeypatch):
    import kerovlab.cli as cli
    from kerovlab.conjectures import SuiteReport

    def fake_suite(name, provider, r_max=None):
        return SuiteReport(name, False, ["K_{9,2} has negative Q-coefficient -1 at 2"], {})

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    code, out, err = run_cli(capsys, "verify", "--suite", "positivity-Q", "--jobs", "1")
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "negative Q-coefficient" in err


def test_verify_bytes_independent_of_jobs(capsys, tmp_path):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "conj3", "--r-max", "8", "--jobs", "1")
    _, out2, _ = run_cli(
        capsys, "verify", "--suite", "conj3", "--r-max", "8", "--jobs", "2",
        "--cache-dir", str(tmp_path),
    )
    assert out1 == out2


def test_selftest_green(capsys):
    code, out, err = run_cli(capsys, "selftest", "--jobs", "1")
    assert code == 0
    reports = json.loads(out)
    assert all(rep["ok"] for rep in reports)
    assert err.count("PASS") == len(reports)


def test_extract_with_no_component_in_range_is_a_usage_error(capsys, tmp_path):
    # r - 2k + 1 < 0 for every r in 2..3: nothing to solve, and no K_r is computed
    code, out, err = run_cli(
        capsys, "extract", "--family", "f", "--k", "12", "--r-min", "2", "--r-max", "3",
        "--jobs", "1", "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert "no r in 2..3" in err and "usage:" in err
    assert list(tmp_path.iterdir()) == []

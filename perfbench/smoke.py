"""Tiny-size smoke run of the benchmark harness (about half a minute).

Usage: python3 perfbench/smoke.py

Checks, on `kerov --r 8` (cold) and two verify suites at --r-max 9 (warm):
  1. with --trace 0 and --trace 1 the harness exits 0, its last line has
     exactly the result keys, the outputs are correct, and it emits every
     end-to-end or per-layer metric named in BENCHMARK.json;
  2. every result file records the machine and run environment;
  3. a copy of perfbench/ whose golden.json has one corrupted digest, beside
     the program's src/, reports the run as failed;
  4. in a directory holding only BENCHMARK.json and perfbench/, the harness
     exits nonzero without printing a result.
Exits 1 with a list of what failed.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"nproc", "cpu_model", "python", "numpy", "commit", "seed", "runs"}


def harness(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in ("smoke-cold", "smoke-warm"):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            got = harness(workload, trace)
            lines = got.stdout.splitlines()
            if got.returncode != 0 or not lines:
                problems.append(f"{what}: exit {got.returncode}\n{got.stderr}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS or not result["correct"] or result["failed"]:
                problems.append(f"{what}: bad result {result}")
            if set(result["metrics"]) != wanted[trace]:
                missing = sorted(wanted[trace] - set(result["metrics"]))
                extra = sorted(set(result["metrics"]) - wanted[trace])
                problems.append(f"{what}: metrics missing {missing}, unexpected {extra}")
            record = json.loads((BENCH / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
            if set(record["environment"]) != ENV_KEYS:
                problems.append(f"{what}: environment record is {record['environment']}")

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        skip = shutil.ignore_patterns("out", "__pycache__")
        corrupt = Path(tmp) / "corrupt"
        shutil.copytree(BENCH, corrupt / "perfbench", ignore=skip)
        (corrupt / "src").symlink_to(ROOT / "src")
        golden = json.loads((BENCH / "golden.json").read_text())
        entry = golden["commands"]["kerov --r 8 --jobs 1 --cache-dir {cache}"]
        entry["stdout_sha256"] = "0" * 64
        (corrupt / "perfbench" / "golden.json").write_text(json.dumps(golden))
        lines = harness("smoke-cold", 0, cwd=corrupt).stdout.splitlines()
        result = json.loads(lines[-1]) if lines else None
        if not result or result["correct"] or not result["failed"]:
            problems.append(f"a corrupted golden digest went unnoticed: {result}")

        bare = Path(tmp) / "bare"
        shutil.copytree(BENCH, bare / "perfbench", ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        got = harness("kerov-r16", 0, cwd=bare)
        if got.returncode == 0 or got.stdout.strip():
            problems.append(f"without the program: exit {got.returncode}, stdout {got.stdout!r}")

    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

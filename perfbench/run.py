"""Benchmark of the kerovlab CLI, timed from outside.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Every timed command is `python -m kerovlab.cli ...` in a fresh interpreter
with `src` on the path, so module caches start cold as they do for a user.

--trace 0 repeats the workload for about S seconds and reports the medians of
the end-to-end metrics.  --trace 1 makes one untraced and one traced pass
(each command under tracer.py) and reports the per-layer metrics of the
traced pass.  Outputs are checked against golden.json, recorded from a
known-good commit; the last line of stdout is the JSON result, and a fuller
record goes to perfbench/out/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
CACHE = "{cache}"  # stands for the workload's cache directory in a command
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
COLD_PROBES = 20  # set-ups of a cold workload: interpreters importing the CLI, ~0.2 s each
WARM_FILLS = 2  # set-ups of a warm workload: cache fills, 7-11 s each
MIN_PASSES = 2  # a median of one pass would be a single sample

SUITES = (
    "conj3", "conj4", "conj8", "closed-forms", "positivity-R", "positivity-C",
    "positivity-Q", "kerov-theorem", "lemmas",
)


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    fill: tuple[str, ...] | None = None  # set-up command filling a warm cache; None = cold


def _kerov(r: int) -> tuple[str, ...]:
    return ("kerov", "--r", str(r), "--jobs", "1", "--cache-dir", CACHE)


def _verify(suite: str, *extra: str) -> tuple[str, ...]:
    return ("verify", "--suite", suite, *extra, "--jobs", "1", "--cache-dir", CACHE)


WORKLOADS = {
    # cold interpolation with 160 unknowns: the modular (CRT) solve path
    "kerov-r16": Workload((_kerov(16),)),
    # cold interpolation with 137 unknowns: the fraction-free Bareiss path
    "kerov-r15": Workload((_kerov(15),)),
    # all nine suites against a cache of K_2..K_14; never interpolates
    "verify-warm": Workload(tuple(_verify(s) for s in SUITES), fill=_verify("positivity-R")),
    # tiny versions of the two shapes, run by smoke.py only
    "smoke-cold": Workload((_kerov(8),)),
    "smoke-warm": Workload(
        (_verify("conj3", "--r-max", "9"), _verify("positivity-Q", "--r-max", "9")),
        fill=_verify("positivity-R", "--r-max", "9"),
    ),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("KEROVLAB_CACHE", None)
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(cache_dir: Path) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(cache_dir.iterdir())}


@dataclass
class Child:
    key: str  # the command with the cache directory left as {cache}
    exit: int
    sha: str
    start: float
    end: float
    cpu: float
    rss_mib: float


class Runner:
    """Spawns commands one at a time and keeps their outputs under a work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = _env()
        self.count = 0

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))

    def _wait(self, cmd: list[str], stdout):
        """Run cmd to its end; returns (start, end, exit code, resource usage).

        os.wait4 blocks until the child exits, so the end time has no polling
        granularity, and it returns the child's own CPU time and peak RSS.
        """
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=stdout, stderr=subprocess.DEVNULL
        )
        timer = threading.Timer(max(self.deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t0, t1, proc.returncode, usage

    def spawn(self, argv: tuple[str, ...], cache_dir: Path, trace_out: Path | None = None) -> Child:
        self.count += 1
        args = [a.replace(CACHE, str(cache_dir)) for a in argv]
        if trace_out is None:
            cmd = [sys.executable, "-m", "kerovlab.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_out), *args]
        out_path = self.work / f"stdout-{self.count}"
        with open(out_path, "wb") as out:
            t0, t1, code, usage = self._wait(cmd, out)
        sha = _sha256(out_path)
        out_path.unlink()
        return Child(
            key=" ".join(argv),
            exit=code,
            sha=sha,
            start=t0,
            end=t1,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss / 1024.0,
        )

    def probe(self) -> tuple[float, int]:
        """Wall time and exit code of a fresh interpreter importing the CLI module."""
        cmd = [sys.executable, "-c", "import kerovlab.cli"]
        t0, t1, code, _ = self._wait(cmd, subprocess.DEVNULL)
        return t1 - t0, code


class Checker:
    """Compares commands and cache files with the golden record."""

    def __init__(self, golden: dict):
        self.commands = golden["commands"]
        self.cache_files = golden["cache_files"]
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def command(self, child: Child, problem: str | None = None) -> None:
        self.attempted += 1
        want = self.commands.get(child.key)
        if want is None or (want["exit"], want["stdout_sha256"]) != (child.exit, child.sha):
            problem = f"output differs from golden (exit {child.exit})"
        if problem:
            self.failed += 1
            self.notes.append(f"{child.key}: {problem}")

    def cache(self, digests: dict[str, str], what: str) -> bool:
        bad = sorted(n for n, d in digests.items() if self.cache_files.get(n) != d)
        if bad or not digests:
            self.notes.append(f"{what}: cache files differ from golden: {bad or 'none written'}")
        return not bad and bool(digests)


def _load_trace(path: Path, child: Child) -> dict | None:
    """The spans tracer.py wrote for one command, or None if it wrote none whole."""
    try:
        record, end = (json.loads(line) for line in path.read_text().splitlines())
        record["startup_s"] = record["started"] - child.start
        record["exit_s"] = child.end - end["written"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return record


def _run_pass(runner, checker, commands, warm_dir, warm_digests, trace_dir=None):
    """One pass over the commands; returns (children, guards held, traces).

    A cold command gets a fresh empty cache directory and must leave exactly
    the golden cache files in it; a warm pass must leave the cache unchanged.
    """
    children, problems, traces, ok = [], [], [], True
    for i, argv in enumerate(commands):
        cache_dir = warm_dir or runner.fresh_dir()
        trace_out = trace_dir / f"spans-{i}.json" if trace_dir else None
        children.append(runner.spawn(argv, cache_dir, trace_out))
        problems.append(None)
        if warm_dir is None:
            ok &= checker.cache(_digests(cache_dir), children[-1].key)
            shutil.rmtree(cache_dir)
        if trace_out is not None:
            trace = _load_trace(trace_out, children[-1])
            if trace is None:
                problems[-1] = "the traced command wrote no spans"
            else:
                traces.append(trace)
    if warm_dir is not None and _digests(warm_dir) != warm_digests:
        checker.notes.append("the warm cache changed during a pass")
        ok = False
    for child, problem in zip(children, problems):
        checker.command(child, problem)
    return children, ok, traces


def _setup(runner, checker, work: Workload, times: int):
    """Set-up runs; returns (seconds of each, warm cache dir or None, guard ok)."""
    if work.fill is None:
        probes = [runner.probe() for _ in range(times)]
        ok = all(code == 0 for _, code in probes)
        if not ok:
            checker.notes.append("kerovlab.cli does not import")
        return [wall for wall, _ in probes], None, ok
    walls, ok, cache_dir = [], True, None
    for _ in range(times):
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        cache_dir = runner.fresh_dir()
        child = runner.spawn(work.fill, cache_dir)
        checker.command(child)
        ok &= checker.cache(_digests(cache_dir), "set-up fill")
        walls.append(child.end - child.start)
    return walls, cache_dir, ok


def _span_totals(traces):
    """Per span name: [calls, summed duration, summed self time, summed tags, zero tags]."""
    totals: dict[str, list] = {}
    for tr in traces:
        names, spans = tr["names"], tr["spans"]
        covered = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (idx, t0, t1, _, tag), kids in zip(spans, covered):
            row = totals.setdefault(names[idx], [0, 0.0, 0.0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - kids
            row[3] += tag or 0
            row[4] += tag == 0
    return totals


_NO_SPANS = (0, 0.0, 0.0, 0, 0)
_COLUMN = {"calls": 0, "incl": 1, "self": 2, "tags": 3, "zero_tags": 4}


def _span_value(kind: str, rows):
    if kind == "calls_minus":
        return rows[0][0] - rows[1][0]
    if kind == "tag_ratio":
        calls = sum(r[0] for r in rows)
        return sum(r[3] for r in rows) / calls if calls else 0.0
    return sum(r[_COLUMN[kind]] for r in rows)


def layer_metrics(traces, traced_wall: float, untraced_wall: float):
    """Per-layer metrics of one traced pass; metrics whose boundaries are gone are absent."""
    totals = _span_totals(traces)
    resolved = {n for tr in traces for n in tr["names"]}
    tagged = {n for tr in traces for n in tr["tagged"]}
    notes = sorted({n for tr in traces for n in tr["notes"]})
    process = {
        name: sum(tr[key] for tr in traces)
        for name, key in (("cli.startup_s", "startup_s"), ("cli.import_s", "import_s"),
                          ("cli.exit_s", "exit_s"))
    }
    # cli.main's self time is whatever no layer claims, so it explains nothing
    covered = sum(process.values()) + sum(
        row[2] for name, row in totals.items() if name != "cli.main"
    )
    process["cli.processes"] = len(traces)
    process["trace.coverage"] = covered / traced_wall
    process["trace.overhead_s"] = traced_wall - untraced_wall
    for metric in layers.CACHES:
        sizes = [tr["caches"][metric] for tr in traces if metric in tr["caches"]]
        if sizes:
            process[metric] = max(sizes)
    metrics = {}
    for name, unit, _, kind, spans in layers.METRICS:
        present = [s for s in spans if s in resolved]
        value, missing = None, f"{', '.join(spans) or 'its source'} not found"
        if kind == "process":
            value = process.get(name)
        elif not present or (kind == "calls_minus" and len(present) < 2):
            pass
        elif kind in ("tags", "zero_tags", "tag_ratio") and not tagged.issuperset(present):
            missing = f"{', '.join(present)} not tagged"
        else:
            value = _span_value(kind, [totals.get(s, _NO_SPANS) for s in present])
        if value is None:
            notes.append(f"{name} is absent: {missing}")
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, notes


def _git_commit() -> str:
    try:
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = got.stdout.split()
    if got.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(seed: int, runs: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": _git_commit(),
        "seed": seed,
        "runs": runs,
    }


def run_untraced(runner, checker, work: Workload, commands, seconds: int):
    """Set up, then repeat whole passes for about `seconds`; metrics are per-pass medians."""
    setups, warm_dir, ok = _setup(runner, checker, work, WARM_FILLS if work.fill else COLD_PROBES)
    warm_digests = _digests(warm_dir) if warm_dir else None
    passes = []
    start = perf_counter()
    while True:
        children, pass_ok, _ = _run_pass(runner, checker, commands, warm_dir, warm_digests)
        ok &= pass_ok
        passes.append({
            "wall_s": children[-1].end - children[0].start,
            "cpu_s": sum(c.cpu for c in children),
            "peak_rss_mib": max(c.rss_mib for c in children),
        })
        elapsed = perf_counter() - start
        per_pass = elapsed / len(passes)
        if perf_counter() + per_pass > runner.deadline:
            break
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
    values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    values["setup_s"] = statistics.median(setups)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return metrics, {"setup_runs_s": setups, "passes": passes}, ok, []


def run_traced(runner, checker, work: Workload, commands):
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    _, warm_dir, ok = _setup(runner, checker, work, 1)
    warm_digests = _digests(warm_dir) if warm_dir else None
    plain, plain_ok, _ = _run_pass(runner, checker, commands, warm_dir, warm_digests)
    trace_dir = runner.work / "spans"
    trace_dir.mkdir()
    traced, traced_ok, traces = _run_pass(
        runner, checker, commands, warm_dir, warm_digests, trace_dir
    )
    ok &= plain_ok and traced_ok
    walls = lambda cs: sum(c.end - c.start for c in cs)  # noqa: E731
    metrics, notes = layer_metrics(traces, walls(traced), walls(plain))
    # a warm pass must never interpolate; a cold pass must never read the cache
    guard = "kerov.provider.computes" if work.fill else "kerov.provider.disk_hits"
    if guard not in metrics:
        notes.append(f"cache guard not checked: {guard} is absent")
    elif metrics[guard]["value"] != 0:
        notes.append(f"cache guard failed: {guard} = {metrics[guard]['value']}")
        ok = False
    if metrics.get("trace.coverage", {"value": 1})["value"] < 0.9:
        notes.append("layer spans cover less than 90% of the traced wall time")
    passes = [
        {"traced": False, "walls_s": [c.end - c.start for c in plain]},
        {"traced": True, "walls_s": [c.end - c.start for c in traced]},
    ]
    return metrics, {"passes": passes}, ok, notes


def record_golden(runner) -> int:
    """Run every command once and write exit codes and digests to golden.json."""
    commands: dict[str, dict] = {}
    cache_files: dict[str, str] = {}

    def keep(child: Child, cache_dir: Path) -> None:
        seen = {"exit": child.exit, "stdout_sha256": child.sha}
        if child.exit != 0 or commands.setdefault(child.key, seen) != seen:
            raise SystemExit(f"perfbench: {child.key} failed or is not deterministic")
        for name, digest in _digests(cache_dir).items():
            if cache_files.setdefault(name, digest) != digest:
                raise SystemExit(f"perfbench: cache file {name} is not deterministic")

    for work in WORKLOADS.values():
        warm_dir = None
        if work.fill:
            warm_dir = runner.fresh_dir()
            keep(runner.spawn(work.fill, warm_dir), warm_dir)
        for argv in work.commands:
            cache_dir = warm_dir or runner.fresh_dir()
            keep(runner.spawn(argv, cache_dir), cache_dir)
    golden = {"commit": _git_commit(), "commands": commands, "cache_files": cache_files}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: wrote {len(commands)} commands and {len(cache_files)} cache files")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    started = perf_counter()
    if not (ROOT / "src" / "kerovlab" / "cli.py").is_file():
        print(f"perfbench: no kerovlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(work_dir, started + (3600.0 if args.record_golden else RUN_DEADLINE_S))
        if args.record_golden:
            return record_golden(runner)
        checker = Checker(json.loads(GOLDEN.read_text()))
        work = WORKLOADS[args.workload]
        # the seed orders the commands; each command's input is fixed
        commands = random.Random(args.seed).sample(work.commands, len(work.commands))
        if args.trace:
            metrics, extra, ok, notes = run_traced(runner, checker, work, commands)
        else:
            metrics, extra, ok, notes = run_untraced(runner, checker, work, commands, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    notes += checker.notes
    result = {
        "correct": ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, len(extra["passes"])),
        "fail_ratio": checker.failed / checker.attempted,
        **result,
        **extra,
        "notes": notes,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

JSON goes to stdout, human-readable summaries to stderr.  Exit codes: 0 all
checks pass, 1 a mathematical finding (mismatch, negativity, inconsistent
extraction), 2 usage or internal error.  Identical invocations produce
byte-identical JSON; the K_r disk cache, set by --cache-dir alone, is
transparent to results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .characters import dimension, mn_character, normalized_character
from .conjectures import (
    ChecksumError,
    SUITES,
    extract_symfunc,
    run_suite,
    selftest,
)
from .cumulants import free_cumulants
from .kerov import KerovProvider, change_generators, graded_component
from .partitions import format_rational, parse_partition

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_ERROR = 2


def _dump(payload) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _say(msg: str) -> None:
    sys.stderr.write(f"[kerovlab] {msg}\n")


def _jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    return jobs if jobs else (os.cpu_count() or 1)


def _add_common(sub) -> None:
    sub.add_argument("--cache-dir", help="directory for the K_r cache (default: no disk cache)")
    sub.add_argument("--jobs", type=int, help="parallel workers (default: available cores)")


def cmd_kerov(args) -> int:
    provider = KerovProvider(cache_dir=args.cache_dir)
    kp = provider.get(args.r)
    poly = graded_component(kp, args.component) if args.component is not None else kp.poly
    poly = change_generators(poly, args.basis)
    if args.out == "json":
        payload: dict = {"r": args.r}
        if args.basis != "R":
            payload["basis"] = args.basis
        if args.component is not None:
            payload["component"] = args.component
        payload["terms"] = poly.terms_json()
        _dump(payload)
    elif args.out == "csv":
        for mu, c in poly.sorted_terms():
            sys.stdout.write(f"{','.join(str(p) for p in mu)};{format_rational(c)}\n")
    else:
        sys.stdout.write(poly.to_text() + "\n")
    _say(f"K_{args.r}{f',{args.component}' if args.component is not None else ''} "
         f"in {args.basis}: {len(poly.terms)} terms")
    return EXIT_OK


def cmd_cumulants(args) -> int:
    lam = parse_partition(args.lam)
    if not lam:
        raise ValueError("--lambda must be a nonempty partition")
    r = free_cumulants(lam, args.max_k)
    payload = {
        "lambda": list(lam),
        "R": {str(k): format_rational(v) for k, v in sorted(r.items())},
    }
    _dump(payload)
    _say(f"free cumulants of {lam} up to order {args.max_k}")
    return EXIT_OK


def cmd_character(args) -> int:
    lam = parse_partition(args.lam)
    if not lam:
        raise ValueError("--lambda must be a nonempty partition")
    n = sum(lam)
    mu = (args.r,) + (1,) * (n - args.r)
    payload = {
        "lambda": list(lam),
        "r": args.r,
        "normalized": format_rational(normalized_character(lam, args.r)),
        "dim": dimension(lam),
        "raw": mn_character(lam, mu),
    }
    _dump(payload)
    _say(f"normalized character of an {args.r}-cycle on lambda={args.lam}")
    return EXIT_OK


def cmd_extract(args) -> int:
    provider = KerovProvider(cache_dir=args.cache_dir)
    # only r >= 2k - 1 has a weight r - 2k + 1 component to read
    provider.precompute(range(max(args.r_min, 2 * args.k - 1), args.r_max + 1), jobs=_jobs(args))
    report = extract_symfunc(args.family, args.k, (args.r_min, args.r_max), provider)
    _dump(report.to_json_dict())
    status = "consistent" if report.consistent else f"{len(report.residual_rows)} conflicts"
    solved = "unique solution" if report.solution is not None else "no unique solution"
    _say(
        f"extract {args.family}_{args.k} from r={args.r_min}..{args.r_max}: "
        f"rank {report.system_rank}/{report.unknown_count}, {status}, {solved}"
    )
    return EXIT_OK if report.consistent else EXIT_FINDING


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    if suite.top_for(args.r_max) < suite.first:  # no r to check: it would pass vacuously
        raise ValueError(f"--r-max must be >= {suite.first} for suite {args.suite}")
    provider = KerovProvider(cache_dir=args.cache_dir)
    provider.precompute(suite.r_values(args.r_max), jobs=_jobs(args))
    report = run_suite(args.suite, provider, r_max=args.r_max)
    _dump(report.to_json_dict())
    _say(f"suite {args.suite}: {'PASS' if report.ok else 'FAIL'}")
    for finding in report.findings:
        _say(f"  finding: {finding}")
    return EXIT_OK if report.ok else EXIT_FINDING


def cmd_selftest(args) -> int:
    provider = KerovProvider(cache_dir=args.cache_dir)
    reports = selftest(provider)
    _dump([r.to_json_dict() for r in reports])
    ok = True
    for rep in reports:
        _say(f"selftest {rep.suite}: {'PASS' if rep.ok else 'FAIL'}")
        ok = ok and rep.ok
    return EXIT_OK if ok else EXIT_FINDING


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerovlab",
        description="Exact Kerov character polynomials, free cumulants, and "
        "verification of their positivity properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kerov", help="compute K_r or one graded component")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--basis", choices=("R", "C", "Q"), default="R")
    p.add_argument("--component", type=int, help="restrict to the weight-S component")
    p.add_argument("--out", choices=("json", "csv", "text"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_kerov)

    p = sub.add_parser("cumulants", help="free cumulants of a Young diagram")
    p.add_argument("--lambda", dest="lam", required=True, help='partition, e.g. "3,1"')
    p.add_argument("--max-k", type=int, default=8)
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("character", help="normalized character on an r-cycle")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("extract", help="solve for f_k / g_k / F_k from computed components")
    p.add_argument("--family", choices=("f", "g", "F"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r-min", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--r-max", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="small-scale run of the full invariant bundle")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _validate(args) -> None:
    if getattr(args, "r", None) is not None and args.r < 2:
        raise ValueError("--r must be >= 2")
    if getattr(args, "component", None) is not None and args.component < 0:
        raise ValueError("--component must be >= 0")
    if getattr(args, "k", None) is not None and args.k < 1:
        raise ValueError("--k must be >= 1")
    if getattr(args, "max_k", None) is not None and args.max_k < 2:
        raise ValueError("--max-k must be >= 2")
    if getattr(args, "r_min", None) is not None and args.r_min > args.r_max:
        raise ValueError("--r-min must not exceed --r-max")
    if getattr(args, "r_max", None) is not None and args.r_max < 2:
        raise ValueError("--r-max must be >= 2")
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        raise ValueError("--jobs must be >= 1")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except ChecksumError as exc:
        _say(f"checksum failure: {exc}")
        return EXIT_ERROR
    except RuntimeError as exc:  # internal failures, e.g. KerovComputationError
        _say(f"error: {exc}")
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        sys.stderr.write(parser.format_usage())
        return EXIT_ERROR


if __name__ == "__main__":
    code = main()
    gc.freeze()  # what is alive dies with the process: spare the exit-time collections
    sys.exit(code)

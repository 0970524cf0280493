"""Run one kerovlab CLI command with every layer boundary wrapped in a span.

Usage: python tracer.py SPANS.json ARG...   (kerovlab must be importable)

The program's own files are not touched: the wrappers are installed in this
process, on every module binding of each boundary function (cli, conjectures
and kerov each hold their own reference to some of them) and on the classes
for methods.  A boundary that no longer exists is noted and skipped.  Spans
stay in memory and are written when the command ends; stdout is left to the
CLI alone, so it stays byte-identical to an untraced run.  Both processes read
the same monotonic clock, so the parent can also time interpreter start-up
(spawn to STARTED) and shutdown (after the spans are written, to exit).
"""

from time import perf_counter

STARTED = perf_counter()  # first statement: the parent measures interpreter start-up up to here

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402

SPANS: list = []  # slot -> (name index, start, end, parent slot, tag)
STACK: list[int] = []


def _tag(hook, value):
    try:
        return hook(value)
    except Exception:  # a changed signature must not break the traced command
        return None


def _wrap(index, fn, pre=None, post=None):
    def wrapper(*args, **kwargs):
        tag = _tag(pre, args) if pre else None
        slot = len(SPANS)
        SPANS.append(None)
        STACK.append(slot)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            STACK.pop()
            parent = STACK[-1] if STACK else -1
            SPANS[slot] = (index, t0, t1, parent, tag)
        if post:
            SPANS[slot] = (index, t0, t1, parent, _tag(post, result))
        return result

    return wrapper


def _hooks(modules, notes):
    """Tag functions (pre, post) by boundary: 1/0 for a cache hit, a new pivot or
    a disk hit, and the number of unknowns for a solve."""
    hooks = {
        "linalg.ModularEchelon.add_row": (None, lambda result: int(bool(result))),
        "linalg.solve_exact": (lambda args: len(args[0]), None),
        "kerov.KerovProvider._load_disk": (None, lambda result: int(result is not None)),
    }
    cache = getattr(modules.get("cumulants"), "_cumulant_cache", None)
    if isinstance(cache, dict):
        def cumulant_hit(args):
            got = cache.get(args[0])
            return int(got is not None and len(got) > args[1])

        hooks["cumulants._cumulant_list"] = (cumulant_hit, None)
    else:
        notes.append("cumulants._cumulant_cache not found: cache hits are not tagged")
    return hooks


def install(modules):
    """Wrap every boundary that exists; return (span names, tagged names, notes)."""
    notes: list[str] = []
    hooks = _hooks(modules, notes)
    names: list[str] = []
    package = [m for n, m in sys.modules.items() if n == "kerovlab" or n.startswith("kerovlab.")]
    for mod_name, qual in layers.BOUNDARIES:
        name = f"{mod_name}.{qual}"
        owner = modules.get(mod_name)
        *cls_path, attr = qual.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, "__dict__", {}).get(attr)
        if not callable(fn):
            notes.append(f"boundary {name} not found: its metrics are absent")
            continue
        pre, post = hooks.get(name, (None, None))
        wrapper = _wrap(len(names), fn, pre, post)
        names.append(name)
        if cls_path:
            setattr(owner, attr, wrapper)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return names, [n for n in names if n in hooks], notes


def main(out_path: str, argv: list[str]) -> int:
    t0 = perf_counter()
    cli = importlib.import_module("kerovlab.cli")
    import_s = perf_counter() - t0
    modules = {m: sys.modules.get(f"kerovlab.{m}") for m, _ in layers.BOUNDARIES}
    names, tagged, notes = install(modules)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        caches = {}
        for metric, (mod_name, attr) in layers.CACHES.items():
            cache = getattr(modules.get(mod_name), attr, None)
            if cache is None:
                notes.append(f"{mod_name}.{attr} not found: {metric} is absent")
            else:
                caches[metric] = len(cache)
        record = {
            "started": STARTED,
            "import_s": import_s,
            "names": names,
            "tagged": tagged,
            "caches": caches,
            "notes": notes,
            "spans": SPANS,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
            # second line: when writing ended; the parent measures shutdown from here
            fh.write(json.dumps({"written": perf_counter()}) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

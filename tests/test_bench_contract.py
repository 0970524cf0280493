"""The program side of the benchmark contract.

The traced benchmark run wraps the layer boundaries named in
perfbench/layers.py; a boundary that is renamed or removed silently drops
its per-layer metrics.  This resolves every boundary, and every module cache
the traced run sizes, the same way the tracer does.
"""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    return runpy.run_path(str(LAYERS))  # compiled in memory: writes no bytecode there


def test_every_layer_boundary_is_a_kerovlab_callable():
    missing = []
    for mod_name, qual in _layers()["BOUNDARIES"]:
        owner = importlib.import_module(f"kerovlab.{mod_name}")
        *cls_path, attr = qual.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, "__dict__", {}).get(attr)
        if not callable(fn) or not fn.__module__.startswith("kerovlab."):
            missing.append(f"{mod_name}.{qual}")
    assert missing == []


def test_every_sized_cache_is_a_module_dict():
    for metric, (mod_name, attr) in _layers()["CACHES"].items():
        module = importlib.import_module(f"kerovlab.{mod_name}")
        assert isinstance(getattr(module, attr, None), dict), metric


def test_cli_import_loads_every_module_with_a_boundary():
    # the traced run wraps only the modules `import kerovlab.cli` has loaded,
    # so a module made lazy would silently lose its per-layer metrics
    wanted = sorted({f"kerovlab.{mod}" for mod, _ in _layers()["BOUNDARIES"]})
    script = (
        "import sys, kerovlab.cli\n"
        f"print(' '.join(m for m in {wanted!r} if m not in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []
    assert len(wanted) >= 8

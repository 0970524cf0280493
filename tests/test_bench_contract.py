"""The program side of the benchmark contract.

The traced benchmark run wraps the layer boundaries named in
perfbench/layers.py; a boundary that is renamed or removed silently drops
its per-layer metrics.  This resolves every boundary, and every module cache
the traced run sizes, the same way the tracer does.
"""

import importlib
import runpy
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

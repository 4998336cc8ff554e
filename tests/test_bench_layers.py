"""The benchmark's per-layer tracer must find every function it times.

``bench/layers.py`` wraps each layer's ``(module, attribute)`` pairs on
``hyperclust`` and silently skips a name that does not exist, so a renamed
function would report 0 calls with no error.  This reads the table
without importing the benchmark package or writing into ``bench/``.
"""

import importlib
import runpy
from pathlib import Path

import pytest

LAYERS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "layers.py"))["LAYERS"]
TARGETS = [(layer, module, attr) for layer, pairs in LAYERS.items() for module, attr in pairs]


@pytest.mark.parametrize("layer,module,attr", TARGETS, ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_every_traced_name_resolves(layer, module, attr):
    fn = getattr(importlib.import_module(f"hyperclust.{module}"), attr, None)
    assert callable(fn), f"layer {layer}: hyperclust.{module}.{attr} does not exist"


def test_every_layer_has_a_target():
    assert LAYERS and all(LAYERS.values())

"""The benchmark's tracer and self-test must still fit the program.

``bench/layers.py`` wraps each layer's ``(module, attribute)`` pairs on
``hyperclust`` and silently skips a name that does not exist, so a renamed
function would report 0 calls with no error.  This reads the table
without importing the benchmark package, and runs ``bench/checks.py``'s
self-test on the sources; neither writes into ``bench/``.
"""

import importlib
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = runpy.run_path(str(BENCH / "layers.py"))["LAYERS"]
TARGETS = [(layer, module, attr) for layer, pairs in LAYERS.items() for module, attr in pairs]


@pytest.mark.parametrize("layer,module,attr", TARGETS, ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_every_traced_name_resolves(layer, module, attr):
    fn = getattr(importlib.import_module(f"hyperclust.{module}"), attr, None)
    assert callable(fn), f"layer {layer}: hyperclust.{module}.{attr} does not exist"


def test_every_layer_has_a_target():
    assert LAYERS and all(LAYERS.values())


def test_benchmark_self_test_finds_no_problem(monkeypatch):
    """``bench/checks.py`` runs the program through the calls the benchmark
    makes; a broken call shows here before a benchmark run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        checks = importlib.import_module("checks")
        assert Path(checks.__file__).parent == BENCH
        hc = SimpleNamespace(
            **{m: importlib.import_module(f"hyperclust.{m}")
               for m in ("core", "sampler", "initializers", "solver", "metrics", "projection")}
        )
        assert checks.self_test(hc) == []
    finally:
        sys.modules.pop("checks", None)
        sys.modules.pop("instances", None)

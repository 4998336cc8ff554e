"""The package's public names are exactly its modules' own ``__all__`` lists."""

import importlib
import pkgutil

import hyperclust
from hyperclust import core, initializers, metrics, projection, sampler, solver

MODULES = (core, initializers, metrics, projection, sampler, solver)


def test_package_all_is_the_union_of_module_all_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert sorted(hyperclust.__all__) == sorted(expected)
    assert len(set(hyperclust.__all__)) == len(hyperclust.__all__) == 28


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hyperclust, name) is getattr(module, name)
    assert isinstance(hyperclust.__version__, str)


def test_the_package_ships_no_test_oracle():
    # the exhaustive references live in tests/oracles.py
    for info in pkgutil.iter_modules(hyperclust.__path__):
        module = importlib.import_module(f"hyperclust.{info.name}")
        for name in ("dense_multilinear_oracle", "brute_force_projection", "_balanced_labelings"):
            assert not hasattr(module, name), f"hyperclust.{info.name}.{name}"
    assert not hasattr(hyperclust.Hypergraph, "edge_set")

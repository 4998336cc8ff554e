"""The package's public names are exactly its modules' own ``__all__`` lists."""

import hyperclust
from hyperclust import core, initializers, metrics, projection, sampler, solver

MODULES = (core, initializers, metrics, projection, sampler, solver)


def test_package_all_is_the_union_of_module_all_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert sorted(hyperclust.__all__) == sorted(expected)
    assert len(set(hyperclust.__all__)) == len(hyperclust.__all__) == 30


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hyperclust, name) is getattr(module, name)
    assert isinstance(hyperclust.__version__, str)

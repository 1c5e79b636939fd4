"""The package's public names."""

import importlib
import pkgutil

import pytest

import haarnull

MODULES = ["haarnull"] + [
    f"haarnull.{info.name}" for info in pkgutil.iter_modules(haarnull.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

"""Every `__all__` entry of the package and its modules resolves by `getattr`.

Tools that walk the public surface by name (`from dirichlet_p.x import *`,
or a tracer that wraps each public function) fail on a stale entry.
"""

import importlib
import pkgutil

import pytest

import dirichlet_p

MODULES = ["dirichlet_p"] + sorted(
    f"dirichlet_p.{m.name}" for m in pkgutil.iter_modules(dirichlet_p.__path__))
LAYERS = ("grid", "assemble", "pform", "solve", "capacity", "metric", "mappings")


def test_package_and_layers_declare_all():
    for name in ("dirichlet_p", *(f"dirichlet_p.{layer}" for layer in LAYERS)):
        assert name in MODULES
        assert importlib.import_module(name).__all__


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public)
    for attr in public:
        getattr(module, attr)

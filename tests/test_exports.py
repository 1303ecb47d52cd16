"""Every name a ``colouralg`` module lists in ``__all__`` must exist.

A stale entry otherwise shows only on ``from colouralg.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import colouralg

MODULES = ["colouralg"] + [f"colouralg.{m.name}" for m in pkgutil.iter_modules(colouralg.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []

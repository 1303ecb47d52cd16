"""The names the benchmark's layer tracer hooks into must exist.

``perfbench/tracer.py`` wraps colouralg functions and classes that it finds
by name; a rename in ``src/`` would otherwise only show when a traced
benchmark run fails.  The tracer is loaded by path, as the benchmark does.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _, _ in tracer._ATTRS])
def test_traced_attribute_is_callable(module, name):
    assert callable(getattr(importlib.import_module(f"colouralg.{module}"), name, None))


@pytest.mark.parametrize("module, name", [(m, c) for m, classes in tracer._CLASS_LAYERS.items() for c in classes])
def test_traced_class_exists(module, name):
    assert isinstance(getattr(importlib.import_module(f"colouralg.{module}"), name, None), type)

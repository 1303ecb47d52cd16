import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_pythonpath():
    """Give the ``python -m colouralg`` children of the CLI tests the ``src``
    that pyproject's ``pythonpath`` gives the test process, so a bare
    ``pytest`` from a checkout runs them too."""
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, old) if p)
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old

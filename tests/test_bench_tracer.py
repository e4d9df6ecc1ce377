"""The traced benchmark run patches names between multivqc's layers.

``bench/tracer.py`` replaces each ``SITES`` entry through
``vars(owner)[attr]``; a renamed or moved name would make
``bench/run.py --trace 1`` fail. This checks every site still resolves.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("path, attr", [(p, a) for p, a, _, _ in tracer.SITES],
                         ids=[f"{p}.{a}" for p, a, _, _ in tracer.SITES])
def test_site_resolves_to_a_callable(path, attr):
    owner = tracer._owner(path)
    assert callable(vars(owner)[attr])


"""The benchmark tracer's wrap sites name functions the package still binds."""

import importlib.util
import sys
from importlib import import_module
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


SITES = load_spans().SITES


def test_site_count():
    assert len(SITES) == 23


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _ in SITES], ids=lambda v: v)
def test_site_is_bound(module, name):
    assert callable(getattr(import_module(module), name))

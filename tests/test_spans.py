"""The benchmark's tracer (`bench/spans.py`) wraps library functions by
name; a name that no longer resolves would silently read 0 in its layer
metric, so every wrapped name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def wrapped():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module_name,attr,span", wrapped())
def test_wrapped_name_resolves(module_name, attr, span):
    module = importlib.import_module(f"rayzeta.{module_name}")
    owner_name, _, fn_name = attr.rpartition(".")
    if owner_name:  # a method is patched on its class, as spans.py does
        assert fn_name in vars(getattr(module, owner_name)), span
    else:
        assert callable(getattr(module, attr, None)), span

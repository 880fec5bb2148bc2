"""The benchmark's span tracer binds library functions by name; every name must resolve."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import TRACED  # noqa: E402  (standard library only)


@pytest.mark.parametrize("module, function", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"wellprobe.{module}"), function))

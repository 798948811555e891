"""The benchmark tracer (perfbench/tracer.py) wraps keysched functions by
module attribute name; every name it patches must still exist."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrapped_names():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py defines no WRAPPED list")


@pytest.mark.parametrize("module, attr", wrapped_names() + [("cli", "_atomic_write_text")])
def test_traced_name_resolves_to_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"keysched.{module}"), attr, None))

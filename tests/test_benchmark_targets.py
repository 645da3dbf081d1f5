"""The functions the benchmark's traced runs wrap must exist.

``benchmark/layers.py`` pins ``module:qualname`` strings in ``TARGETS``; a
traced run fails when one of them is gone. The file is parsed, not
imported, so this check needs nothing from ``benchmark/`` on the path.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmark" / "layers.py"


def pinned_targets() -> list:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [key.value for key in node.value.keys]
    raise AssertionError(f"no TARGETS dict in {LAYERS}")


@pytest.mark.parametrize("target", pinned_targets())
def test_pinned_target_resolves(target):
    module, qualname = target.split(":")
    obj = importlib.import_module(module)
    for name in qualname.split("."):
        assert hasattr(obj, name), f"{target}: the benchmark tracer wraps it, but {name!r} is gone"
        obj = getattr(obj, name)
    assert callable(obj), target

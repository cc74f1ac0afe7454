"""Tests for the package's public surface."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import circlaw


def test_package_names_are_in_submodule_all():
    """Every name circlaw imports from a submodule is in that submodule's
    __all__, the list a `from ... import *` and an outside tracer read."""
    tree = ast.parse(Path(circlaw.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"circlaw.{node.module}")
        missing = [a.name for a in node.names if a.name not in module.__all__]
        assert missing == [], node.module


@pytest.mark.parametrize(
    "layer", sorted(m.name for m in pkgutil.iter_modules(circlaw.__path__)))
def test_every_all_name_exists(layer):
    """Each name in a submodule's __all__ is an attribute of it; perfbench's
    tracer runs getattr on every such name."""
    module = importlib.import_module(f"circlaw.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

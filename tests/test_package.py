"""Tests for the package's public surface."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_loads_neither_multiprocessing_nor_numpy_polynomial():
    """A fresh `import circlaw.cli` loads only what every command needs:
    run_units imports multiprocessing for workers > 1 only, and the lemma
    suite looks numpy.polynomial up at call time."""
    src = str(Path(circlaw.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, circlaw.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "circlaw.cli" in loaded
    assert [m for m in loaded
            if m.split(".")[0] == "multiprocessing" or m.startswith("numpy.polynomial")] == []

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


# numpy names that run BLAS or LAPACK, and so must go through spectral._blas
_BLAS_NAMES = ("np.linalg", "np.matmul", "np.polyfit")


def _dotted(node) -> str | None:
    """The dotted name of a Name or Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _unpinned_blas(tree) -> list[str]:
    """Each `@`, numpy.linalg import and use of a _BLAS_NAMES name that is
    not a _blas(...) call's first argument, as 'line: text'."""
    pinned = set()  # pinned names and the inner links of every chain
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            pinned.add(id(node.value))
        if isinstance(node, ast.Call) and node.args \
                and (_dotted(node.func) or "").split(".")[-1] == "_blas" \
                and _dotted(node.args[0]) is not None:
            pinned.add(id(node.args[0]))
    found = []
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        if name and id(node) not in pinned and any(
                name == b or name.startswith(b + ".") for b in _BLAS_NAMES):
            found.append(f"{node.lineno}: {name}")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found.append(f"{node.lineno}: from {node.module} import")
    return sorted(found)


def test_the_pin_rule_check_finds_each_unpinned_form():
    tree = ast.parse("_blas(np.linalg.svd, m)\nspectral._blas(np.polyfit, x, y, 1)\n"
                     "np.linalg.eigvals(m)\n_blas(np.linalg.svd(m), m)\n"
                     "f = np.matmul\na @ b\na @= b\nfrom numpy.linalg import svd\n")
    assert _unpinned_blas(tree) == ["3: np.linalg.eigvals", "4: np.linalg.svd",
                                    "5: np.matmul", "6: @", "7: @",
                                    "8: from numpy.linalg import"]


@pytest.mark.parametrize(
    "path", sorted(Path(circlaw.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_blas_call_in_the_package_is_pinned(path):
    """Every BLAS or LAPACK call (np.linalg.*, np.matmul, np.polyfit's least
    squares, the @ operator) is the first argument of spectral._blas, which
    sets its thread count."""
    assert _unpinned_blas(ast.parse(path.read_text())) == []

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
    run_units runs units on threads, never in processes, and the lemma
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


# numpy names that run BLAS or LAPACK, and so must go through spectral._blas;
# np.linalg's exception class runs nothing
_BLAS_NAMES = ("np.linalg", "np.matmul", "np.polyfit")
_NOT_BLAS = ("np.linalg.LinAlgError",)
# the routines of spectral's ctypes LAPACK handle, which must run inside a
# `with _pinned(...)` block
_LAPACK_HANDLES = ("zgesdd", "zgetrf", "zgeev")


def _dotted(node) -> str | None:
    """The dotted name of a Name or Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _unpinned_lapack(tree) -> list[str]:
    """Each call of a _LAPACK_HANDLES routine that may run outside every
    `with _pinned(...)` block, as 'line: text'. A call runs inside one when
    it lies in such a block, or in a function or lambda each reference to
    which does (a call, a thread target, a method attribute; a class stands
    for its __init__, and a lambda is its own one reference). A reference
    passed to a function of the module, such as a runner that calls it on
    its threads, runs where that function calls the parameter it binds."""
    parent = {id(child): node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    pinned_blocks = {id(node) for node in ast.walk(tree) if isinstance(node, ast.With)
                     and any(isinstance(item.context_expr, ast.Call)
                             and (_dotted(item.context_expr.func) or "").endswith("_pinned")
                             for item in node.items)}
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    by_name = {fn.name: fn for fn in functions if not isinstance(fn, ast.Lambda)}

    def enclosing(node):
        """The innermost pinned block, function or lambda around node, or
        None."""
        node = parent.get(id(node))
        while node is not None and id(node) not in pinned_blocks \
                and node not in functions:
            node = parent.get(id(node))
        return node

    def names(fn):
        if fn.name == "__init__" and isinstance(parent.get(id(fn)), ast.ClassDef):
            return {fn.name, parent[id(fn)].name}
        return {fn.name}

    def references(fn):
        if isinstance(fn, ast.Lambda):
            return [fn]
        return [ref for ref in ast.walk(tree)
                if (isinstance(ref, ast.Name) and ref.id in names(fn))
                or (isinstance(ref, ast.Attribute) and ref.attr in names(fn))]

    def bound_calls(ref):
        """The calls of the parameter that ref binds as an argument of a
        module function, or [ref] when it is not such an argument. Where
        the function does not call that parameter, [tree], which runs
        nowhere pinned: the check cannot follow it."""
        call = parent.get(id(ref))
        if isinstance(call, ast.keyword):
            call = parent.get(id(call))
        callee = isinstance(call, ast.Call) and by_name.get(
            (_dotted(call.func) or "").split(".")[-1])
        if not callee or ref is call.func:
            return [ref]
        params = [a.arg for a in callee.args.posonlyargs + callee.args.args]
        param = next((k.arg for k in call.keywords if k.value is ref), None)
        if ref in call.args and call.args.index(ref) < len(params):
            param = params[call.args.index(ref)]
        return [node for node in ast.walk(callee) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == param] or [tree]

    def runs_pinned(node, seen=()):
        around = enclosing(node)
        if around is None or around in seen:
            return False
        if id(around) in pinned_blocks:
            return True
        refs = [site for ref in references(around) for site in bound_calls(ref)]
        return bool(refs) and all(runs_pinned(ref, (*seen, around)) for ref in refs)

    return [f"{node.lineno}: {_dotted(node.func)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LAPACK_HANDLES and not runs_pinned(node)]


def _unpinned_blas(tree) -> list[str]:
    """Each `@`, numpy.linalg import and use of a _BLAS_NAMES name that is
    not a _blas(...) call's first argument, and each _unpinned_lapack call,
    as 'line: text'."""
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
        if name and id(node) not in pinned and name not in _NOT_BLAS and any(
                name == b or name.startswith(b + ".") for b in _BLAS_NAMES):
            found.append(f"{node.lineno}: {name}")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found.append(f"{node.lineno}: from {node.module} import")
    return sorted(found + _unpinned_lapack(tree))


def test_the_pin_rule_check_finds_each_unpinned_form():
    tree = ast.parse("_blas(np.linalg.svd, m)\nspectral._blas(np.polyfit, x, y, 1)\n"
                     "np.linalg.eigvals(m)\n_blas(np.linalg.svd(m), m)\n"
                     "f = np.matmul\na @ b\na @= b\nfrom numpy.linalg import svd\n")
    assert _unpinned_blas(tree) == ["3: np.linalg.eigvals", "4: np.linalg.svd",
                                    "5: np.matmul", "6: @", "7: @",
                                    "8: from numpy.linalg import"]
    tree = ast.parse("def lane(h):\n    h.zgesdd(1)\n"
                     "class Lane:\n    def __init__(self, h):\n        h.zgetrf(2)\n"
                     "def loose(h):\n    h.zgetrf(3)\n"
                     "with _pinned(n):\n    lane(h)\n    Lane(h)\n    loose(h)\n"
                     "loose(h)\nh.zgesdd(4)\nraise np.linalg.LinAlgError('x')\n")
    assert _unpinned_blas(tree) == ["13: h.zgesdd", "7: h.zgetrf"]
    tree = ast.parse("def runner(run, items, start=None):\n"
                     "    def go(k):\n        run(start(), k)\n"
                     "    with _pinned(n):\n"
                     "        threading.Thread(target=go).start()\n        go(0)\n"
                     "def loose_runner(run):\n    run(1)\n"
                     "def task(s, k):\n    h.zgesdd(k)\n"
                     "def shared(s, k):\n    h.zgetrf(k)\n"
                     "runner(lambda s, k: h.zgeev(k), [1], start=lambda: h.zgesdd(0))\n"
                     "runner(task, [1])\nloose_runner(lambda k: h.zgeev(k))\n"
                     "runner(shared, [1])\nloose_runner(shared)\nh.zgeev(-1)\n"
                     "def keep(run):\n    later.append(run)\n"
                     "with _pinned(n):\n    keep(lambda: h.zgesdd(5))\n")
    assert _unpinned_blas(tree) == ["12: h.zgetrf", "15: h.zgeev", "18: h.zgeev",
                                    "22: h.zgesdd"]


@pytest.mark.parametrize(
    "path", sorted(Path(circlaw.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_blas_call_in_the_package_is_pinned(path):
    """Every BLAS or LAPACK call (np.linalg.*, np.matmul, np.polyfit's least
    squares, the @ operator) is the first argument of spectral._blas, which
    sets its thread count, and every ctypes LAPACK call (zgesdd, zgetrf,
    zgeev) runs inside a `with _pinned(...)` block, followed through the
    functions, lambdas, thread targets and runner arguments that reach it."""
    assert _unpinned_blas(ast.parse(path.read_text())) == []

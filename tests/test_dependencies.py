"""numpy stays the only runtime dependency of the package, no module keeps an
import it does not use, and no private module-level name is left unread."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

# Imports every module of the package and runs ``python -m abusenet --help``,
# then prints each top-level module it loaded that is neither in the standard
# library nor numpy nor the package. Modules the interpreter loaded before
# (site hooks) are not the package's.
PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import importlib, pkgutil, runpy
import abusenet
for info in pkgutil.walk_packages(abusenet.__path__, "abusenet."):
    importlib.import_module(info.name)
sys.argv = ["abusenet", "--help"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        runpy.run_module("abusenet", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        assert e.code == 0, e.code
assert out.getvalue().startswith("usage: abusenet"), out.getvalue()
# __mp_main__ is multiprocessing's alias of __main__
allowed = set(sys.stdlib_module_names) | {"numpy", "abusenet", "__main__", "__mp_main__"}
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - allowed))
print(len(loaded))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    foreign, count = done.stdout.splitlines()
    assert foreign == "[]", foreign
    assert int(count) > 10  # the probe did load the package and numpy


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s module-level imports bind and that
    nothing else in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    package = Path(__file__).resolve().parents[1] / "src" / "abusenet"
    unused = {path.name: names for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
              for names in [unused_imports(path.read_text(encoding="utf-8"))] if names}
    assert unused == {}, unused


def test_unused_import_check_finds_one():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom x import y, z\nprint(os, z)\n"
    assert unused_imports(source) == ["regex", "y"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level name of ``sources`` (module ->
    source) that starts with a single underscore and that no code in any of
    them reads outside that name's own definition."""

    def reads(node) -> Counter:
        found = Counter()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                found[n.id] += 1
            elif isinstance(n, ast.Attribute):
                found[n.attr] += 1
            elif isinstance(n, ast.alias):  # from .module import _name
                found[n.name] += 1
        return found

    def defines(node) -> list[str]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]

    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    return [f"{module}:{name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign))
            for name in defines(node)
            if name.startswith("_") and not name.startswith("__") and total[name] == reads(node)[name]]


def test_every_private_module_name_is_read_in_the_package():
    package = Path(__file__).resolve().parents[1] / "src" / "abusenet"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_private_name_check_finds_one():
    sources = {"a.py": "_used = 1\n_left: int = 2\n__dunder__ = 3\n\ndef _recursive(n):\n    return _recursive(n)\n\n"
                       "def _helper():\n    return _used\n",
               "b.py": "from .a import _helper\n"}
    assert unread_private_names(sources) == ["a.py:_left", "a.py:_recursive"]

"""numpy stays the only runtime dependency of the package, and no module
keeps an import it does not use."""

import ast
import os
import subprocess
import sys
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

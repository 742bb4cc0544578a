"""Every name a package or test module imports is read in that module, and
every local a function binds is read in that function.

The modules are parsed with ast, not imported.  A name counts as read when it
appears as a load anywhere in the module (an attribute chain such as
np.zeros reads np); names listed in the module's __all__ and `from
__future__` imports are exempt.  Both scans cover the package and the
tests.  A name that a plain single-name assignment binds in a function must
be read somewhere in that function, its nested functions included (tuple
unpacking and loop targets are exempt, and global or nonlocal names are not
locals).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "peierls_lab"


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for line, name in imported
                  if name not in read and name not in _exported(tree))


def test_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import numpy as np\n"
           "import os.path\n"
           "from .lattice import KGrid, Lattice\n"
           "__all__ = ['Thing']\n"
           "from .x import Thing\n"
           "def f(lat: Lattice):\n"
           "    return np.zeros(3)\n")
    assert unused_imports(src) == [(3, "os"), (4, "KGrid")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_nodes(fn):
    """The nodes of a function's body outside its nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list:
    """(line, name) of each local that a plain single-name assignment binds
    and its function never reads."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        seen = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        seen.update(name for n in ast.walk(fn)
                    if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names)
        out += [(node.lineno, node.targets[0].id) for node in _own_nodes(fn)
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id not in seen]
    return sorted(out)


def test_scan_finds_an_unused_local():
    src = ("COUNT = 0\n"
           "def f(x):\n"
           "    y = x + 1\n"
           "    a, b = x, y\n"
           "    for i in range(3):\n"
           "        pass\n"
           "    z = 2\n"
           "    def g():\n"
           "        w = 3\n"
           "        return z\n"
           "    global COUNT\n"
           "    COUNT = 1\n"
           "    u = v = 4\n"
           "    dead = g()\n"
           "    return a\n")
    assert unused_locals(src) == [(9, "w"), (14, "dead")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_local(path):
    assert unused_locals(path.read_text()) == []

"""Every name a package module imports is read in that module.

The modules are parsed with ast, not imported.  A name counts as read when it
appears as a load anywhere in the module (an attribute chain such as
np.zeros reads np); names listed in the module's __all__ and `from
__future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "peierls_lab"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []

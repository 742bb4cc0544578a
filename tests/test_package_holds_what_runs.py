"""The package holds what runs: every definition in src/peierls_lab is used
by the package itself, and no package module reaches the test oracles.

Reference implementations and test-only adapters live in tests/oracles.py,
where the code they check cannot call them.  The modules are parsed with
ast, not imported.

(a) Every top-level function, class and assigned name of
    src/peierls_lab/*.py, and every method by its bare name (dunder methods
    aside, which Python calls itself), must be read somewhere in the package
    outside its own definition: as a name (x) or as an attribute (obj.x).
    Names listed in __all__ do not count as read.  The only exceptions are
    the entries of ALLOWED, each with its reason; an entry that no longer
    matches an unread definition is stale and fails too.
(b) No package module imports from tests/ or from a module that lives there
    (oracles, fourier_oracle, the test modules).

Limitation: methods are matched by bare name, so a read of one method
covers every method of that name in the package.  A read of Propagator.of
would keep an unused `of` method of any other class alive; such methods have
to be found and removed by hand.
"""

import ast
from collections import Counter
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "peierls_lab"
TESTS = ROOT / "tests"

# "module.name" or "module.Class.method" (fnmatch patterns) -> why the package
# keeps a definition that no package code reads
ALLOWED = {
    "__init__.__version__": "the package version, read by users and packaging tools",
    "quantum.band_project": "ROADMAP 6(a): the fiberwise band projection that the "
                            "almost invariant subspace is built from",
    "fields.EMFieldConfig.transversal": "ROADMAP 5(a): the transversal gauge of a "
                                        "position-dependent B, the paper's own field",
    "weyl.GridSymbol.spectral_tail_fraction": "ROADMAP 1: a health figure for the "
                                              "run report",
    "weyl.QuantizedOperator.hermiticity_defect": "ROADMAP 1: a health figure for the "
                                                 "run report",
    "quantum.realspace_hamiltonian": "ROADMAP 2(f): perfbench/tracing.py binds it by "
                                     "name; the dense oracle of split_step's tests",
    "quantum.Propagator.apply": "ROADMAP 2(f): perfbench/tracing.py binds it by name; "
                                "the dense oracle of split_step's tests",
}


def _reads(node) -> Counter:
    """How often each name is read under node, as a name or an attribute."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def _definitions(module: str, tree):
    """(qualified name, bare name, defining node) of each top-level function,
    class and assigned name, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                        yield f"{module}.{node.name}.{sub.name}", sub.name, sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and n.id != "__all__":
                        yield f"{module}.{n.id}", n.id, node


def unused_definitions(sources: dict) -> list:
    """Qualified names of the definitions in sources ({module: source text})
    that no module reads outside the definition itself."""
    trees = {m: ast.parse(s) for m, s in sources.items()}
    total = Counter()
    for tree in trees.values():
        total += _reads(tree)
    return sorted(qual for m, tree in trees.items()
                  for qual, name, node in _definitions(m, tree)
                  if total[name] == _reads(node)[name])


def _package_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_scan_finds_a_planted_orphan():
    sources = {
        "a": ("import numpy as np\n"
              "LIMIT, SPARE = 3, 4\n"
              "__all__ = ['orphan']\n"
              "def used(x):\n"
              "    return helper(x) + LIMIT\n"
              "def helper(x):\n"
              "    return np.abs(x)\n"
              "def orphan(n):\n"
              "    return orphan(n - 1) if n else 0\n"
              "class Box:\n"
              "    def size(self):\n"
              "        return 1\n"
              "    def lonely(self):\n"
              "        return self.size()\n"
              "    def __len__(self):\n"
              "        return 0\n"),
        "b": ("from .a import Box, used\n"
              "RESULT = used(Box())\n"),
    }
    assert unused_definitions(sources) == ["a.Box.lonely", "a.SPARE", "a.orphan", "b.RESULT"]


def _allowed(qual: str) -> bool:
    return any(fnmatchcase(qual, pattern) for pattern in ALLOWED)


def test_every_definition_is_read_by_the_package():
    unused = unused_definitions(_package_sources())
    assert [q for q in unused if not _allowed(q)] == []
    stale = [p for p in ALLOWED if not any(fnmatchcase(q, p) for q in unused)]
    assert stale == []


def test_package_imports_nothing_from_the_tests():
    forbidden = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in forbidden]
    assert "oracles" in forbidden and found == []

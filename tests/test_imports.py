"""Every module-level import and private name of the package is used.

`__init__.py` is skipped by the import check: its imports are the
package's re-exports. A module-level private name (one leading
underscore) must be read somewhere in the package beyond its own
definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopslab"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the source's top-level imports and never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_guard_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: os.PathLike\n")
    assert unused_imports(source) == ["field"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def private_names(statement: ast.stmt) -> list[str]:
    """The private names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        bound = [statement.name]
    elif isinstance(statement, ast.Assign):
        bound = [name.id for target in statement.targets
                 for name in ast.walk(target) if isinstance(name, ast.Name)]
    elif isinstance(statement, ast.AnnAssign):
        bound = [name.id for name in ast.walk(statement.target)
                 if isinstance(name, ast.Name)]
    else:
        bound = []
    return [name for name in bound
            if name.startswith("_") and not name.startswith("__")]


def names_read(statement: ast.stmt) -> set[str]:
    """Loaded names, attributes and imported names in a statement."""
    read = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no source reads, as module.name.

    A name is used when a top-level statement other than the one that
    binds it reads it, in any of the sources; a function that only
    calls itself is not used.
    """
    statements = [(module, statement)
                  for module, source in sources.items()
                  for statement in ast.parse(source).body]
    reads = [names_read(statement) for _, statement in statements]
    unused = []
    for k, (module, statement) in enumerate(statements):
        for name in private_names(statement):
            if not any(name in read for j, read in enumerate(reads)
                       if j != k):
                unused.append(f"{module}.{name}")
    return unused


def test_the_guard_finds_an_unreferenced_private_name():
    sources = {
        "a": ("_LIMIT: int = 3\n_SCALE = 2.0\n_left, _right = 1, 2\n"
              "def _helper():\n    return _SCALE\n"
              "def _orphan():\n    return _orphan\n"
              "class _Kept:\n    pass\n"
              "def public():\n    return _helper() + _left\n"),
        "b": ("from .a import _Kept\nimport a\n"
              "def use():\n    return a._LIMIT, _Kept\n"),
    }
    # _orphan reads only itself, and _right nothing reads
    assert unreferenced_privates(sources) == ["a._right", "a._orphan"]
    del sources["b"]
    assert unreferenced_privates(sources) == [
        "a._LIMIT", "a._right", "a._orphan", "a._Kept"]


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text()
               for path in PACKAGE.glob("*.py")}
    assert unreferenced_privates(sources) == []


def dense_view_reads(source: str) -> int:
    """How many times the source reads an attribute named `density`."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "density"
               for node in ast.walk(ast.parse(source)))


def test_the_guard_finds_a_dense_view_read():
    assert dense_view_reads("rho = state.density\nstate.density[0]\n") == 2
    assert dense_view_reads("density = 1\nstate.matrix\n") == 0


def test_only_polarization_reads_the_dense_view():
    # `QuantumState.density` builds a d^2 x d^2 array on each call for a
    # block state: evolution (`dpa`) works on slabs alone, and only the
    # criterion fit and the coherence functions read it
    readers = {path.stem: dense_view_reads(path.read_text())
               for path in PACKAGE.glob("*.py")}
    assert {stem: n for stem, n in readers.items() if n} == {"polarization": 2}


def test_evolution_decomposes_no_state():
    # `from_density` decomposes a density and checks its spectrum; a
    # unitary step cannot break what it checked, so `dpa` never calls it
    tree = ast.parse((PACKAGE / "dpa.py").read_text())
    assert "from_density" not in set().union(*map(names_read, tree.body))

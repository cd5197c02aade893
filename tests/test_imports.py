"""Every module-level import, private name and exported name is used.

`__init__.py` is skipped by the import check: its imports are the
package's re-exports. A module-level private name (one leading
underscore) must be read somewhere in the package beyond its own
definition; a public method of a state or of its slabs, and every name
in `hopslab.__all__` but one named exception, somewhere in the
package's modules, its scripts or its benchmark. No module reads a
state's dense `density` view, and `polarization` reads neither a
cutoff's joint dimension nor a state's vector.
"""

import ast
from pathlib import Path

import pytest

import hopslab

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopslab"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def reader_sources() -> list[str]:
    """The package's modules, scripts and benchmark, without its re-exports."""
    root = PACKAGE.parents[1]
    return [path.read_text() for folder in ("src", "scripts", "bench")
            for path in sorted((root / folder).rglob("*.py"))
            if path != PACKAGE / "__init__.py"]


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


def attribute_reads(source: str, attr: str) -> int:
    """How many times the source reads an attribute named `attr`."""
    return sum(isinstance(node, ast.Attribute) and node.attr == attr
               for node in ast.walk(ast.parse(source)))


def test_the_guard_finds_a_dense_view_read():
    source = "rho = state.density\nstate.density[0]\n"
    assert attribute_reads(source, "density") == 2
    assert attribute_reads("density = 1\nstate.matrix\n", "density") == 0
    assert attribute_reads("dim = 1\nstate.cutoff.dim\n", "dim") == 1


def test_no_module_reads_the_dense_view():
    # `QuantumState.density` builds a d^2 x d^2 array on each call for a
    # block state: evolution (`dpa`) works on slabs, and the criterion
    # fit and the coherence functions on column blocks
    readers = {path.stem: attribute_reads(path.read_text(), "density")
               for path in PACKAGE.glob("*.py")}
    assert {stem: n for stem, n in readers.items() if n} == {}


def test_polarization_reads_no_joint_dimension_or_vector():
    # the fit, the coherences and the factorization check read a state's
    # row blocks: no d^2-long array, and no branch for pure states alone
    source = (PACKAGE / "polarization.py").read_text()
    assert {attr: attribute_reads(source, attr)
            for attr in ("dim", "vector")} == {"dim": 0, "vector": 0}


def public_methods(source: str, classes: set[str]) -> list[str]:
    """The public methods and properties of the source's `classes`."""
    return [f"{node.name}.{item.name}"
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def unread_methods(methods: list[str], sources: list[str]) -> list[str]:
    """The `Class.method`s that no source reads as an attribute."""
    read = {node.attr for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}
    return [method for method in methods
            if method.partition(".")[2] not in read]


def test_the_guard_finds_an_unread_method():
    source = ("class A:\n    def used(self):\n        pass\n"
              "    @property\n    def view(self):\n        pass\n"
              "    def _private(self):\n        pass\n"
              "class B:\n    def other(self):\n        pass\n")
    methods = public_methods(source, {"A"})
    assert methods == ["A.used", "A.view"]
    assert unread_methods(methods, [source, "A().used()\n"]) == ["A.view"]
    # a local name is not a read of the method
    assert unread_methods(methods, ["view = 1\nA.used\n"]) == ["A.view"]


def test_every_public_state_method_is_read():
    # test-only production code goes: each method of a state and of its
    # slabs is read by the package, its scripts or its benchmark
    methods = public_methods((PACKAGE / "fock.py").read_text(),
                             {"QuantumState", "SectorStack"})
    assert {"QuantumState.from_blocks", "SectorStack.eigenpairs"} <= set(methods)
    assert unread_methods(methods, reader_sources()) == []


def unread_exports(exports: list[str], sources: list[str]) -> list[str]:
    """The exported names that no top-level statement of a source reads."""
    read = set().union(*(names_read(statement) for source in sources
                         for statement in ast.parse(source).body))
    return [name for name in exports if name not in read]


def test_the_guard_finds_an_unread_export():
    sources = ['"""orphan is documented, not read."""\n'
               "from .a import used\n"
               "def defined():\n    orphan = used()\n",
               "import a\nclass Kept:\n    x = a.attr\n"]
    exports = ["used", "attr", "defined", "orphan", "Kept"]
    # a definition, a docstring and a store to the same name are no reads
    assert unread_exports(exports, sources) == ["defined", "orphan", "Kept"]


def test_every_exported_name_is_read():
    # test-only production code goes: each exported name is read by the
    # package, its scripts or its benchmark. The one exception is
    # `coherence_function`, the paper's normally ordered moment Gamma,
    # which README documents as API; the factorization check takes its
    # Gammas from one `_gram` pass over all orders, not one per entry
    assert unread_exports(hopslab.__all__, reader_sources()) == [
        "coherence_function"]

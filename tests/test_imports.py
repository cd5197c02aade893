"""Every module-level import of the package's modules is used.

`__init__.py` is skipped: its imports are the package's re-exports.
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

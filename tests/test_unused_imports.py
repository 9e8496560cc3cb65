"""Every name a program module imports is used in that module.

A package ``__init__.py`` imports names to re-export them, so it is not
scanned; ``from __future__`` imports change the compiler, not the namespace.
"""

import ast
from pathlib import Path

import pytest

import mmarch

MODULES = sorted(p for p in Path(mmarch.__file__).parent.rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json, os.path\nfrom .chunks import Chunk, Query as Q\n"
              "def f(x: Q) -> None:\n    os.path.join(x)\n")
    assert unused_imports(source) == ["json (line 2)", "Chunk (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

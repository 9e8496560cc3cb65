"""Every private name the program defines is used somewhere in the program.

A private module-level function, class or constant, or a private method,
counts as used only when a ``Name`` or ``Attribute`` node outside its own
definition spells it; a helper that only tests still import is dead.  The
scan goes by name, so two definitions sharing a name are used together.
"""

import ast
from pathlib import Path

import mmarch

PACKAGE = Path(mmarch.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name != "_"


def _definitions(tree: ast.Module):
    """``(name, node)`` for each private module-level function, class and
    constant, and each private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``"module: name (line n)"`` for each private definition in ``sources``
    (module name -> source) that nothing outside itself references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    spelled = [(node, node.id if isinstance(node, ast.Name) else node.attr)
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute))]
    dead = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            if not _private(name):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(word == name and id(node) not in inside for node, word in spelled):
                dead.append(f"{module}: {name} (line {definition.lineno})")
    return dead


def test_the_scan_finds_a_dead_private_name():
    planted = {
        "a": ("_LIMIT = 3\n_USED = 4\n"
              "def _helper():\n    return _helper()\n"
              "def _called():\n    return _USED\n"
              "class _Unused:\n    pass\n"
              "class Box:\n"
              "    def _kept(self):\n        return self._dropped\n"
              "    def _dropped(self):\n        return _called()\n"
              "    def _orphan(self):\n        return self._orphan()\n"
              "    def __init__(self):\n        self._kept()\n"),
        "b": "from a import Box\nBox()._dropped\n",
    }
    assert dead_private_names(planted) == [
        "a: _LIMIT (line 1)", "a: _helper (line 3)", "a: _Unused (line 7)",
        "a: _orphan (line 14)"]


def test_program_has_no_dead_private_name():
    sources = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert dead_private_names(sources) == []

"""Every private name the program defines is used somewhere in the program.

A private module-level function, class or constant, or a private method,
counts as used only when a ``Name`` or ``Attribute`` node outside its own
definition spells it; a helper that only tests still import is dead.  The
scan goes by name, so two definitions sharing a name are used together.

An attribute assigned on ``self`` is read only when an ``Attribute`` node
that loads it, outside the assignments to it, spells its name.  Private
attributes and every attribute of a private class are scanned; the public
attributes of a public class are its API, which callers outside the
program may read.
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


def _assigned_on_self(tree: ast.Module):
    """``(class name, attribute, node)`` for each attribute an assignment
    statement in a method sets on ``self``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for part in ast.walk(target):
                        if (isinstance(part, ast.Attribute) and isinstance(part.ctx, ast.Store)
                                and isinstance(part.value, ast.Name) and part.value.id == "self"):
                            yield cls.name, part.attr, node


def unread_attributes(sources: dict[str, str]) -> list[str]:
    """``"module: Class.attribute (line n)"`` for each private attribute, or
    attribute of a private class, assigned on ``self`` in ``sources``
    (module name -> source) that nothing outside those assignments reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    assigned = [(module, *found) for module, tree in trees.items()
                for found in _assigned_on_self(tree)]
    setters = {id(part) for *_, node in assigned for part in ast.walk(node)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in setters}
    return [f"{module}: {cls}.{name} (line {node.lineno})"
            for module, cls, name, node in assigned
            if (_private(name) or _private(cls)) and name not in read]


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


def test_the_scan_finds_an_unread_attribute():
    planted = {
        "a": ("class _Index:\n"
              "    def __init__(self):\n"
              "        self.starts: list = []\n"
              "        self.later = {}\n"
              "        self.most = 1\n"
              "        self._seen = self._seen_too = 0\n"
              "    def file(self, n):\n"
              "        self.most = max(self.most, n)\n"
              "        self.later[n] = self._seen\n"
              "class Box:\n"
              "    def __init__(self):\n"
              "        self.size = 0\n"
              "        self._count = 0\n"
              "        self._gone = 0\n"),
        "b": "from a import Box\nBox()._count\n",
    }
    assert unread_attributes(planted) == [
        "a: _Index.starts (line 3)", "a: _Index.most (line 5)",
        "a: _Index._seen_too (line 6)", "a: _Index.most (line 8)",
        "a: Box._gone (line 14)"]


def test_program_has_no_unread_attribute():
    sources = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert unread_attributes(sources) == []

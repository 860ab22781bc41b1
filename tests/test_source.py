"""Static checks of the package source: every module uses each name it
imports, reads each private name it defines at module level, and names
the byteorder of every int/bytes conversion.  The walk is over ``ast``
nodes, so it needs no linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "invpower"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds, anywhere in the
    module, that no expression of the module reads.  ``from __future__``
    imports bind no name and are skipped."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "from c import d as e, f\n\ndef g():\n    from h import i\n    return a.b, e(i)\n")
    assert unused_imports(source) == [(2, "os"), (4, "f")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every private module-level function, class or
    assigned name (one ``_`` prefix, not a dunder) that no expression of
    the module reads by that name, in any scope: a helper left behind
    when its last caller goes."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_an_unread_private_name():
    source = ("import re\n_A = re.compile('a')\n_B, c = 1, 2\n_D: int = 3\n__all__ = ['e']\n\n"
              "def _f():\n    return _A\n\nclass _G:\n    _h = 1\n\ndef e(_j):\n"
              "    return _j, c, _D\n\nasync def _i():\n    pass\n")
    assert unread_private_names(source) == [(3, "_B"), (7, "_f"), (10, "_G"), (16, "_i")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def unnamed_byteorders(source: str) -> list[int]:
    """The line of every call that converts between int and bytes, by
    calling ``to_bytes`` or ``from_bytes`` or by passing one to another
    call such as ``map``, with no "big" or "little" among its arguments.
    A default byteorder exists only from Python 3.11, and the package
    supports 3.10, where such a call raises TypeError."""
    tree = ast.parse(source)
    return sorted(
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
        and any(isinstance(n, ast.Attribute) and n.attr in ("to_bytes", "from_bytes")
                for n in (node.func, *node.args))
        and not {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)} & {"big", "little"})


def test_the_check_finds_an_unnamed_byteorder():
    source = ("a = (5).to_bytes(2)\nb = int.from_bytes(b'ab', byteorder='big')\n"
              "c = list(map(int.to_bytes, [1], repeat(2)))\n"
              "d = list(map(int.to_bytes, [1], repeat(2), repeat('little')))\n")
    assert unnamed_byteorders(source) == [1, 3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_byteorder_is_named(path):
    assert unnamed_byteorders(path.read_text(encoding="utf-8")) == []

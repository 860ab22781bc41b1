"""Static checks of the package source: every module uses each name it
imports.  The walk is over ``ast`` nodes, so it needs no linter."""

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

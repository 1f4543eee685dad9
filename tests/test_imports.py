"""Every name a module of src/barblocks imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "barblocks").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by import statements anywhere in the module that no
    expression of the module reads, except those of __future__ imports."""
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


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_an_import_left_behind_is_found():
    tree = ast.parse("from typing import Callable, Iterable\nimport os.path\n\nx: Iterable = ()\n")
    assert _unused_imports(tree) == ["Callable (line 1)", "os (line 2)"]

"""Every name a module of src/barblocks imports is used in that module, and
no module imports dataclasses or typing."""

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


# dataclasses loads inspect, ast, dis and tokenize; typing alone takes about
# 4 ms to import in an interpreter started with -S.  Records derive from
# partitions._Record and the abstract types come from collections.abc.
HEAVY = {"dataclasses", "typing"}


def _heavy_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in HEAVY]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in HEAVY:
            found.append(node.module)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_imports_dataclasses_or_typing(path):
    assert _heavy_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_a_heavy_import_is_found():
    tree = ast.parse("import dataclasses\nfrom typing import Iterable\nfrom collections.abc import Sequence\n")
    assert _heavy_imports(tree) == ["dataclasses", "typing"]

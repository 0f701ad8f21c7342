"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "icurisk").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "icurisk"}


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("source", SOURCES, ids=[s.name for s in SOURCES])
def test_imports_only_stdlib_numpy_and_icurisk(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    outside = sorted({name for name in imported_modules(tree)
                      if name.split(".")[0] not in ALLOWED})
    assert not outside, f"{source.name} imports {outside}"

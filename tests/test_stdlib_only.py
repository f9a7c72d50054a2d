"""The library depends on the standard library alone; test-only oracles such
as sympy must not leak into src/."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "semifree").glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Top-level names of absolute imports that are not standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [m for m in names if m.split(".")[0] not in sys.stdlib_module_names]


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    assert foreign_imports(path.read_text()) == []


def test_detects_a_third_party_import():
    assert foreign_imports("import sympy\nfrom numpy.linalg import det\n") == [
        "sympy",
        "numpy.linalg",
    ]
    assert foreign_imports("from . import algebra\nimport math\n") == []

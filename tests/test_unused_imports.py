"""Every name a module of src/semifree imports is read in that module: an
import nothing reads is dead code.  __init__.py is left out, since its
imports are the package's public names."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    path for path in (Path(__file__).parent.parent / "src" / "semifree").glob("*.py")
    if path.name != "__init__.py"
)


def annotation_trees(node: ast.AST) -> list[ast.AST]:
    """The parsed text of each annotation of node written as a string."""
    notes = [getattr(node, "returns", None), getattr(node, "annotation", None)]
    return [ast.parse(note.value, mode="eval") for note in notes
            if isinstance(note, ast.Constant) and isinstance(note.value, str)]


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a source, `from __future__` aside,
    that no expression of the source reads, in the order imported."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        for note in annotation_trees(node):
            read.update(n.id for n in ast.walk(note) if isinstance(n, ast.Name))
    return [name for name in imported if name not in read]


def test_sources_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math as m\n"
        "from itertools import repeat\n"
        "from operator import attrgetter, contains\n"
        "from .errors import ZeroWeight, DuplicateId\n"
        "def f(x: 'DuplicateId') -> int:\n"
        "    import sys\n"
        "    return attrgetter('x')(m)\n"
        "repeat = 1\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == ["repeat", "contains", "ZeroWeight", "sys"]

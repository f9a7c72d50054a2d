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


# The package modules each module may import, by module name; None allows
# any.  Lower layers never import higher ones: the deduction and the
# reduction read fixed-point data and the model, not the localization layer.
ALLOWED = {
    "errors": set(),
    "algebra": {"errors"},
    "fixed_points": {"errors"},
    "cube": {"algebra", "errors", "fixed_points"},
    "localization": {"algebra", "errors", "fixed_points"},
    "pipeline": {"algebra", "errors", "fixed_points", "cube"},
    "reduction": {"algebra", "errors", "fixed_points", "cube", "pipeline"},
    "cli": None,
    "__init__": None,
}


def package_imports(source: str) -> set[str]:
    """Package modules named by the relative imports of a source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def forbidden_imports(module: str, source: str) -> list[str]:
    """Package modules a module imports outside its row of ALLOWED."""
    allowed = ALLOWED[module]
    return [] if allowed is None else sorted(package_imports(source) - allowed)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_follow_the_layers(path):
    assert forbidden_imports(path.stem, path.read_text()) == []


def test_detects_a_forbidden_import():
    source = "from .cube import all_subsets\nfrom .localization import predict_counts\n"
    assert forbidden_imports("pipeline", source) == ["localization"]
    assert forbidden_imports("errors", "from . import algebra\n") == ["algebra"]
    assert forbidden_imports("cli", source) == []


def test_detects_a_third_party_import():
    assert foreign_imports("import sympy\nfrom numpy.linalg import det\n") == [
        "sympy",
        "numpy.linalg",
    ]
    assert foreign_imports("from . import algebra\nimport math\n") == []

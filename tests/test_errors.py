"""Every error type the package defines is raised somewhere in src/: an
error class that no code raises documents a check that cannot fail.  Every
one is also named in the code of some test, so some test reaches it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "semifree"
SOURCES = sorted(PACKAGE.glob("*.py"))
# this file names no error class itself, so it cannot vouch for one
TESTS = sorted(p for p in Path(__file__).parent.rglob("*.py") if p != Path(__file__))


def error_classes(source: str) -> list[str]:
    """Classes derived, directly or through each other, from SemifreeError."""
    found = {"SemifreeError"}
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in found for b in node.bases
        ):
            found.add(node.name)
            names.append(node.name)
    return names


def raised_names(source: str) -> set[str]:
    """Names in `raise X` and `raise X(...)` statements."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def code_names(source: str) -> set[str]:
    """Names and attribute names used in code; text in strings, such as a
    pinned stderr message, does not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unraised(errors_source: str, sources: list[str]) -> list[str]:
    """Each class an errors module defines, SemifreeError aside and whatever
    its base, that no `raise` statement in the sources names."""
    raised = set().union(*map(raised_names, sources))
    return [node.name for node in ast.parse(errors_source).body
            if isinstance(node, ast.ClassDef)
            and node.name != "SemifreeError" and node.name not in raised]


ERRORS_SOURCE = (PACKAGE / "errors.py").read_text()
SOURCE_TEXTS = [path.read_text() for path in SOURCES]
ERRORS = error_classes(ERRORS_SOURCE)
RAISED = set().union(*map(raised_names, SOURCE_TEXTS))
TESTED = set().union(*(code_names(path.read_text()) for path in TESTS))


def test_error_classes_found():
    assert len(ERRORS) >= 15


@pytest.mark.parametrize("name", ERRORS)
def test_error_class_is_raised(name):
    assert name in RAISED


@pytest.mark.parametrize("name", ERRORS)
def test_error_class_is_named_in_a_test(name):
    assert name in TESTED


def test_detects_an_error_class_nothing_raises():
    source = (
        "class SemifreeError(Exception): pass\n"
        "class Raised(SemifreeError): pass\n"
        "class Unused(Raised): pass\n"
        "class Unrelated(Exception): pass\n"
    )
    assert error_classes(source) == ["Raised", "Unused"]
    assert raised_names("raise Raised('x')\nraise errors.Other\nraise\n") == {
        "Raised",
        "Other",
    }


def test_every_class_in_errors_is_raised():
    assert unraised(ERRORS_SOURCE, SOURCE_TEXTS) == []


def test_detects_a_constructed_error_class_nothing_raises():
    # added to the package's own errors module and checked against its
    # own sources; a class outside the SemifreeError tree counts too
    source = ERRORS_SOURCE + (
        "\n\nclass NeverRaised(CountMismatch):\n    pass\n"
        "\n\nclass Plain(Exception):\n    pass\n"
    )
    assert unraised(source, SOURCE_TEXTS) == ["NeverRaised", "Plain"]
    assert unraised(source, SOURCE_TEXTS + ["raise NeverRaised('x')"]) == ["Plain"]


def test_string_mentions_are_not_names():
    source = 'import errors\nwith raises(errors.Named): f("Quoted")\nUsed(1)\n'
    assert {"Named", "Used"} <= code_names(source)
    assert "Quoted" not in code_names(source)

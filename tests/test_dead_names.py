"""Every module-level function, class and constant in src/semifree is named
somewhere other than its own definition, and every dataclass field there is
read as an attribute, in the code of src/, tests/, demos/ or perfbench/: a
name nothing reads is dead code, and a field nothing reads is dead state.
Every parameter of a function in src/semifree is read in that function's
body: a parameter nothing reads restates what the other inputs say."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "semifree"
FILES = sorted(
    path for folder in ("src", "tests", "demos", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, index of its top-level statement) of each function, class and
    assigned name at module level; dunder names such as __version__ are
    read by tools, not code, and are left out."""
    out = []
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, i))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, i) for t in targets if isinstance(t, ast.Name)]
    return [(name, i) for name, i in out if not name.startswith("__")]


def references(statement: ast.stmt) -> set[str]:
    """Names read, attribute names and imported names in one statement;
    text in strings does not count, nor does assigning to a name."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_names(trees: dict[str, ast.Module], modules: list[str]) -> list[str]:
    """module.name for each definition in `modules` that no top-level
    statement of any tree names, its own definition excepted."""
    named: dict[str, set[tuple[str, int]]] = {}
    for key, tree in trees.items():
        for i, statement in enumerate(tree.body):
            for name in references(statement):
                named.setdefault(name, set()).add((key, i))
    return [
        f"{Path(key).stem}.{name}"
        for key in modules
        for name, i in definitions(trees[key])
        if not named.get(name, set()) - {(key, i)}
    ]


TREES = {str(path): ast.parse(path.read_text()) for path in FILES}
MODULES = [str(path) for path in sorted(PACKAGE.glob("*.py"))]


def test_sources_found():
    assert len(MODULES) >= 9 and len(FILES) > len(MODULES)


@pytest.mark.parametrize("module", MODULES, ids=lambda key: Path(key).name)
def test_every_module_level_name_is_used(module):
    assert dead_names(TREES, [module]) == []


def test_detects_a_dead_name():
    trees = {
        "lib.py": ast.parse(
            "X = 1\nY = X\n"
            "def used(): return 0\n"
            "def recursive(): return recursive()\n"
            "class Unused: pass\n"
        ),
        "user.py": ast.parse("from lib import used\nused()\nprint('Unused')\n"),
    }
    assert dead_names(trees, ["lib.py"]) == ["lib.Y", "lib.recursive", "lib.Unused"]


def dataclass_fields(tree: ast.Module) -> list[str]:
    """Class.field for each annotated field of a @dataclass class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
            for d in node.decorator_list
        ):
            out += [f"{node.name}.{s.target.id}" for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return out


def attributes_read(trees: dict[str, ast.Module]) -> set[str]:
    """Attribute names loaded anywhere, as in `obj.name`."""
    return {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read():
    read = attributes_read(TREES)
    fields = [f for key in MODULES for f in dataclass_fields(TREES[key])]
    assert len(fields) > 20
    assert [f for f in fields if f.split(".")[1] not in read] == []


def test_detects_an_unread_field():
    trees = {
        "lib.py": ast.parse(
            "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
            "@dataclass\nclass B:\n    z: int\n"
            "class Plain:\n    w: int\n"
        ),
        "user.py": ast.parse("a.x\nb.y = 1\nprint('z')\n"),
    }
    assert dataclass_fields(trees["lib.py"]) == ["A.x", "A.y", "B.z"]
    assert attributes_read(trees) == {"x"}


def unread_parameters(tree: ast.Module) -> list[str]:
    """Qualified.function.parameter for each parameter, self included, that
    the function's body never reads as a name; a read in a nested function
    or lambda counts."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg,
                                          *a.kwonlyargs, a.kwarg) if p]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out.extend(f"{name}.{p}" for p in params if p not in read)
                visit(child, name + ".")
            else:
                visit(child, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                      else prefix)

    visit(tree, "")
    return out


# The immutability guards refuse every assignment, whatever its arguments.
UNREAD_EXEMPT = {"algebra.Term.__setattr__.args", "cube.CubeClass.__setattr__.args"}


def test_every_parameter_is_read():
    unread = {f"{Path(key).stem}.{p}" for key in MODULES for p in unread_parameters(TREES[key])}
    assert unread == UNREAD_EXEMPT


def test_detects_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, *rest, c=1, **kw): return a + kw['x']\n"
        "def g(n, m): return (lambda k: k + n)(0)\n"
        "class C:\n"
        "    def h(self, x):\n"
        "        def inner(y): return x\n"
        "        return inner\n"
    )
    assert unread_parameters(tree) == [
        "f.b", "f.rest", "f.c", "g.m", "C.h.self", "C.h.inner.y"]

"""Every module-level function, class and constant in src/semifree is named
somewhere other than its own definition, and every dataclass field and
every property there is read as an attribute of an instance of its own
class, outside the property's own body, as far as the code's annotations
and constructors show the class, in the code of src/, tests/, demos/ or
perfbench/: a name nothing reads is dead code, and a field or property
nothing reads is dead state.
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


# Annotations that name an iterable of their first argument, and calls that
# return the iterable they are given.
ITERABLES = {"tuple", "list", "set", "frozenset", "Sequence", "Iterable", "Iterator"}
PASS_THROUGH = {"sorted", "reversed", "list", "tuple", "iter", "set", "frozenset"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def element(t):
    """The type of an element of a value of type t, where the code shows it."""
    if isinstance(t, tuple) and t[0] == "iter":
        return t[1]
    if isinstance(t, tuple) and t[0] == "tuple" and len(set(t[1])) == 1:
        return t[1][0]
    return None


def agree(types):
    """The one type that all known types in `types` are, if they agree."""
    known = {t for t in types if t is not None}
    return known.pop() if len(known) == 1 else None


class Types:
    """Static types of expressions, as far as the code states them.

    A type is a class name (an instance of that class), ("iter", t) for an
    iterable of t, ("tuple", (t1, ..)) for a tuple of fixed length, or None
    where the code does not say.  Types come from annotations of
    parameters, fields, properties and returns, from constructor calls,
    from functions whose returns all have one type, and through
    assignment, unpacking, loops, comprehensions, indexing, `next` and the
    builtins that pass an iterable through.  A name bound in one scope to
    values of two types, or of a type the code does not show, has none.
    """

    def __init__(self, trees: dict[str, ast.Module]):
        self.trees = trees
        self.classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef)}
        methods = {id(f) for c in self.classes.values() for f in c.body}
        functions = [(key, node) for key, tree in trees.items() for node in ast.walk(tree)
                     if isinstance(node, DEFINITIONS[:2]) and id(node) not in methods]
        self.returns: dict[str, object] = {}
        # a return type may come from another function's: a few rounds settle it
        for _ in range(3):
            self.modules = {key: self.scope(tree, {}) for key, tree in trees.items()}
            found: dict[str, set] = {}
            for key, f in functions:
                found.setdefault(f.name, set()).add(self.return_type(f, self.modules[key]))
            self.returns = {name: types.pop() if len(types) == 1 else None
                            for name, types in found.items()}

    def annotation(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.Name):
            return node.id if node.id in self.classes else None
        if isinstance(node, ast.BinOp):  # X | None
            return self.annotation(node.left) or self.annotation(node.right)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if node.value.id == "tuple" and not (
                    len(args) == 2 and isinstance(args[1], ast.Constant)
                    and args[1].value is Ellipsis):
                return ("tuple", tuple(map(self.annotation, args)))
            if node.value.id in ITERABLES | {"Optional"}:
                t = self.annotation(args[0])
                return t if node.value.id == "Optional" else ("iter", t)
        return None

    def member(self, cls: str, name: str, called: bool):
        """Type of cls().name: a field or property when not called, the
        return of a method when called."""
        for s in self.classes[cls].body:
            if (isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    and s.target.id == name and not called):
                return self.annotation(s.annotation)
            if isinstance(s, DEFINITIONS[:2]) and s.name == name:
                decorators = {getattr(d, "id", getattr(d, "attr", None))
                              for d in s.decorator_list}
                if called != bool(decorators & {"property", "cached_property"}):
                    return self.annotation(s.returns)
        return None

    def return_type(self, f, module_env: dict):
        if f.returns is not None:
            return self.annotation(f.returns)
        env = self.scope(f, module_env)
        return agree(self.infer(r.value, env) for r in own_nodes(f)
                     if isinstance(r, ast.Return) and r.value is not None)

    def scope(self, node, outer: dict, cls: str | None = None) -> dict:
        """Names bound in the scope of a module, function or comprehension,
        on top of the enclosing scope's names."""
        bound: dict[str, list] = {}
        env = dict(outer)

        def bind(target, t):
            if isinstance(target, ast.Name):
                types = bound.setdefault(target.id, [])
                types.append(t)
                env[target.id] = t if set(types) == {t} else None
            elif isinstance(target, (ast.Tuple, ast.List)):
                parts = (t[1] if isinstance(t, tuple) and t[0] == "tuple"
                         and len(t[1]) == len(target.elts) else [element(t)] * len(target.elts))
                for sub, part in zip(target.elts, parts):
                    bind(sub, part)

        if isinstance(node, DEFINITIONS):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in getattr(node, "decorator_list", ()))
            for i, p in enumerate(params):
                bind(ast.Name(p.arg), cls if i == 0 and cls and not static
                     else self.annotation(p.annotation))
        generators = node.generators if isinstance(node, COMPREHENSIONS) else []
        for g in generators:
            bind(g.target, element(self.infer(g.iter, env)))
        for n in own_nodes(node) if not generators else ():
            if isinstance(n, ast.Assign):
                for target in n.targets:
                    bind(target, self.infer(n.value, env))
            elif isinstance(n, ast.AnnAssign):
                bind(n.target, self.annotation(n.annotation))
            elif isinstance(n, (ast.For, ast.AsyncFor)):
                bind(n.target, element(self.infer(n.iter, env)))
            elif isinstance(n, ast.NamedExpr):
                bind(n.target, self.infer(n.value, env))
        return env

    def infer(self, node, env: dict):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            t = self.infer(node.value, env)
            return self.member(t, node.attr, False) if t in self.classes else None
        if isinstance(node, ast.Subscript):
            t = self.infer(node.value, env)
            if isinstance(node.slice, ast.Slice):
                return t if isinstance(t, tuple) and t[0] == "iter" else None
            if (isinstance(t, tuple) and t[0] == "tuple"
                    and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, int)):
                return t[1][node.slice.value] if -len(t[1]) <= node.slice.value < len(t[1]) else None
            return element(t) if isinstance(t, tuple) and t[0] == "iter" else None
        if isinstance(node, COMPREHENSIONS[:3]):
            return ("iter", self.infer(node.elt, self.scope(node, env)))
        if isinstance(node, ast.IfExp):
            return agree([self.infer(node.body, env), self.infer(node.orelse, env)])
        if isinstance(node, ast.Call):
            return self.call(node, env)
        return None

    def call(self, node: ast.Call, env: dict):
        f, args = node.func, node.args
        if isinstance(f, ast.Attribute):
            t = self.infer(f.value, env)
            if t in self.classes:
                return self.member(t, f.attr, True)
            name = f.attr
        elif isinstance(f, ast.Name):
            name = f.id
        else:
            return None
        if name in self.classes:
            return name
        if name == "next" and args:
            return element(self.infer(args[0], env))
        if name in PASS_THROUGH and args:
            t = self.infer(args[0], env)
            return t if isinstance(t, tuple) and t[0] == "iter" else None
        if name == "enumerate" and args:
            return ("iter", ("tuple", (None, element(self.infer(args[0], env)))))
        if name == "zip":
            return ("iter", ("tuple", tuple(element(self.infer(a, env)) for a in args)))
        return self.returns.get(name)

    def fields_read(self) -> set[str]:
        """Class.attribute for each attribute loaded on an expression of a
        known class type, outside the body of that attribute's own method."""
        read = set()

        def visit(node, env, cls=None, owner=None):
            if isinstance(node, DEFINITIONS + COMPREHENSIONS):
                env = self.scope(node, env, cls)
            if cls and isinstance(node, DEFINITIONS[:2]):
                owner = f"{cls}.{node.name}"  # a read in its own body does not count
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                t = self.infer(node.value, env)
                if t in self.classes and f"{t}.{node.attr}" != owner:
                    read.add(f"{t}.{node.attr}")
            inner = node.name if isinstance(node, ast.ClassDef) else None
            for child in ast.iter_child_nodes(node):
                visit(child, env, inner, owner)

        for key, tree in self.trees.items():
            visit(tree, self.modules[key])
        return read


def own_nodes(scope):
    """The nodes of a scope's own statements and expressions, in order,
    leaving out nested functions, classes and comprehensions."""
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    todo = list(reversed(body))
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed([c for c in ast.iter_child_nodes(node)
                              if not isinstance(c, DEFINITIONS + COMPREHENSIONS + (ast.ClassDef,))]))


def fields_read(trees: dict[str, ast.Module]) -> set[str]:
    return Types(trees).fields_read()


def test_every_dataclass_field_is_read():
    read = fields_read(TREES)
    fields = [f for key in MODULES for f in dataclass_fields(TREES[key])]
    assert len(fields) > 20
    assert [f for f in fields if f not in read] == []


def test_detects_an_unread_field():
    trees = {
        "lib.py": ast.parse(
            "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
            "@dataclass\nclass B:\n    z: int\n"
            "class Plain:\n    w: int\n"
        ),
        "user.py": ast.parse("a = A(1)\na.x\nb = B(2)\nb.y = 1\nprint('z')\n"),
    }
    assert dataclass_fields(trees["lib.py"]) == ["A.x", "A.y", "B.z"]
    assert fields_read(trees) == {"A.x"}


def test_a_field_read_on_another_class_does_not_count():
    # A.n is never read, though B.n, of the same name, is; an attribute of
    # an expression of unknown type counts for no class
    trees = {
        "lib.py": ast.parse(
            "@dataclass\nclass A:\n    n: int\n    x: int\n"
            "@dataclass\nclass B:\n    n: int\n"
            "def make(n: int) -> B:\n    return B(n)\n"
        ),
        "user.py": ast.parse("b = make(1)\nb.n\nA(1, 2).x\nsomething().n\n"),
    }
    assert fields_read(trees) == {"A.x", "B.n"}


def properties(tree: ast.Module) -> list[str]:
    """Class.name for each property and cached_property of a class."""
    return [f"{node.name}.{f.name}" for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, DEFINITIONS[:2])
            and {getattr(d, "id", getattr(d, "attr", None)) for d in f.decorator_list}
            & {"property", "cached_property"}]


def test_every_property_is_read():
    read = fields_read(TREES)
    found = [p for key in MODULES for p in properties(TREES[key])]
    assert len(found) >= 6
    assert [p for p in found if p not in read] == []


def test_detects_a_dead_property():
    # A.dead is read by nothing, A.recursive only by itself, and A.shared
    # only on B, whose property has the same name
    trees = {
        "lib.py": ast.parse(
            "class A:\n"
            "    @property\n    def used(self) -> int:\n        return 0\n"
            "    @functools.cached_property\n    def dead(self) -> int:\n        return self.used\n"
            "    @cached_property\n    def recursive(self) -> int:\n        return self.recursive\n"
            "    @property\n    def shared(self) -> int:\n        return 1\n"
            "    def method(self) -> int:\n        return 2\n"
            "class B:\n"
            "    @property\n    def shared(self) -> int:\n        return 3\n"
        ),
        "user.py": ast.parse("B().shared\nprint('dead')\n"),
    }
    assert properties(trees["lib.py"]) == [
        "A.used", "A.dead", "A.recursive", "A.shared", "B.shared"]
    read = fields_read(trees)
    assert [p for p in properties(trees["lib.py"]) if p not in read] == [
        "A.dead", "A.recursive", "A.shared"]


def test_types_follow_the_code():
    trees = {"lib.py": ast.parse(
        "@dataclass\nclass P:\n    id: str\n    w: int\n    m: int\n    k: int\n"
        "@dataclass\nclass D:\n    points: tuple[P, ...]\n    first: 'P | None'\n"
        "    def pair(self) -> tuple[P, P]:\n        return self.points[0], self.first\n"
        "    @property\n    def last(self) -> P:\n        return self.points[-1]\n"
        "def load() -> D: ...\n"
        "def helper():\n    return load()\n"
        "def f(d: D):\n"
        "    for i, p in enumerate(d.points):\n        p.id\n"
        "    [q.w for q in sorted(d.points)]\n"
        "    a, b = d.pair()\n    a.m\n"
        "    next(p for p in helper().points).k\n"
        "    d.last.id\n"
        "def g(d: D, x):\n    d = x\n    d.unknown\n"
    )}
    assert fields_read(trees) == {
        "D.points", "D.first", "D.pair", "D.last", "P.id", "P.w", "P.m", "P.k"}


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

"""The README's library quick start and command-line examples run and print
what their comments say, and every name the README calls is defined."""

import ast
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from semifree.cli import main
from semifree.cube import hypercube_data
from semifree.reduction import presentation_from_data

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_prints_its_commented_outputs():
    code = quick_start()
    # each print line ends in '# <output>' or '# <output>: <remark>'
    expected = [line.split("#", 1)[1].split(":", 1)[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["0", "(1, 4, 1)", "(-3, 2, 2, 2)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def command_line_comments() -> dict[str, str]:
    """Each command of the "Command line" block mapped to its comment."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return {command.strip(): comment.strip() for command, _, comment
            in (line.partition("#") for line in block.splitlines())}


@pytest.mark.parametrize("command,first_line", [
    ("semifree count --n 3", "1 3 3 1"),
    ("semifree reduce --n 3 --c 3/2", "betti: 1 4 1"),
    ("semifree reduce --n 2 --c=-1/2", "betti: 0 0"),
])
def test_command_line_block_prints_its_commented_outputs(command, first_line, capsys):
    assert command_line_comments()[command] == first_line
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_stated_row_count_is_the_presentations():
    text = " ".join(README.read_text().split())
    stated = re.search(r"`reduce --n 10 --c 13/2` writes (\d+) rows", text).group(1)
    pres = presentation_from_data(hypercube_data(10, Fraction(13, 2)))
    assert int(stated) == len(pres.relations) == 2**10


# Called in the README but defined outside the package: the builtin, the
# rational type of the quick start and the binomial coefficient C(n, k).
DEFINED_ELSEWHERE = {"print", "Fraction", "C"}


def readme_code() -> list[str]:
    """The fenced code blocks of the README, then its code spans."""
    text = README.read_text()
    fence = r"```.*?```"
    prose = re.sub(fence, "", text, flags=re.DOTALL)
    return re.findall(fence, text, re.DOTALL) + re.findall(r"`([^`]+)`", prose)


def package_definitions() -> set[str]:
    """Each function, class and method, and each module-level constant, of
    src/semifree."""
    names = set()
    for path in (README.parent / "src" / "semifree").glob("*.py"):
        tree = ast.parse(path.read_text())
        names.update(node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        names.update(t.id for node in tree.body if isinstance(node, ast.Assign)
                     for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_name_called_in_the_readme_is_defined():
    # a name called as `name(`; in `σ_i(w)` the subscript is not a name
    called = {name for code in readme_code()
              for name in re.findall(r"(?<!\w)([A-Za-z_]\w*)\(", code)}
    assert {"print", "CubeClass"} <= called  # from a block and from a span
    assert called - package_definitions() - DEFINED_ELSEWHERE == set()

"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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

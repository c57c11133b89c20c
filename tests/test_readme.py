"""The README's library quickstart runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_prints_its_documented_output():
    code = quickstart()
    documented = [line[2:] for line in code.splitlines() if line.startswith("# [")]
    assert documented == ["[[1], [2], [3, 4], [5, 6], [7]]", "[1, 2, 7]"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    assert printed.getvalue().splitlines() == documented

"""The README's library quick start runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_output_matches_its_comments():
    lines = quick_start_block().splitlines()
    # each print line is followed by a "# <expected output>" line
    expected = [after[2:] for line, after in zip(lines, lines[1:])
                if line.startswith("print(") and after.startswith("# ")]
    assert len(expected) == sum(line.startswith("print(") for line in lines) > 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile("\n".join(lines), str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected

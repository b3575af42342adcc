"""Every python block of README.md runs, and prints what its comments say.

A `print(...)  # <value>` line must print exactly <value>, the comment text
before any ` == ` explanation; a comment that starts with `~` marks a
sampled value and is not compared.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def expected_prints(block):
    out = []
    for line in block.splitlines():
        if line.startswith("print(") and "  # " in line:
            out.append(line.split("  # ", 1)[1].split(" == ")[0].strip())
    return out


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs_and_prints_its_comments(block):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, "<README.md python block>", "exec"), {})
    printed = buf.getvalue().splitlines()
    want = expected_prints(block)
    assert len(printed) == len(want)
    for got, value in zip(printed, want):
        if not value.startswith("~"):
            assert got == value

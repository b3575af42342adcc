"""Every python block of README.md runs, and prints what its comments say;
every shell session in it prints what it shows.

A `print(...)  # <value>` line must print exactly <value>, the comment text
before any ` == ` explanation; a comment that starts with `~` marks a
sampled value and is not compared.  In a session, each `$ cmiplab ...` line
runs through `cli.main` and must exit 0 with the lines shown after it as its
stdout; a `$ cat <file>` line shows a file it wrote.  A `...` line matches
any run of lines.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from cmiplab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
FENCED = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.S | re.M)
BLOCKS = [body for lang, body in FENCED if lang == "python"]
SESSIONS = [body for lang, body in FENCED if not lang and body.startswith("$ cmiplab ")]


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


def shown(lines):
    """A regex for the shown output lines, `...` matching any run of lines."""
    return "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                   for line in lines)


def test_readme_has_cmiplab_sessions():
    assert {b.split()[2] for b in SESSIONS} >= {"cmip", "entangle", "qkd", "verify"}


@pytest.mark.parametrize("session", SESSIONS, ids=[b.split()[2] for b in SESSIONS])
def test_readme_session_prints_what_it_shows(session, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.chdir(tmp_path)
    steps = re.split(r"^\$ ", session, flags=re.M)[1:]
    for step in steps:
        command, *lines = step.splitlines()
        argv = shlex.split(command)
        if argv[0] == "cat":
            got = (tmp_path / argv[1]).read_text(encoding="utf-8")
        else:
            assert argv[0] == "cmiplab" and cli.main(argv[1:]) == 0
            got = capsys.readouterr().out
        assert re.fullmatch(shown(lines), got), command

"""The README's examples run as written: every `steinertorelli` command of
its `sh` blocks exits 0 from the repository root, and every `python`
block runs and prints what its `# ...` comments say."""

import re
import shlex
from pathlib import Path

import pytest

from steinertorelli.cli import main

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.M | re.S)
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines()
            if line.startswith("steinertorelli ")]
SNIPPETS = [body for lang, body in BLOCKS if lang == "python"]


def test_the_readme_has_examples():
    assert len(COMMANDS) >= 7 and len(SNIPPETS) >= 2


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_exits_zero(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("snippet", SNIPPETS)
def test_readme_snippet_prints_its_comments(snippet, capsys):
    exec(compile(snippet, "README.md", "exec"), {})
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", snippet, re.M)
    assert capsys.readouterr().out.splitlines() == expected

"""Every Python block and every alphavqe command in README.md runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from alphavqe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.S | re.M)
    for line in block.splitlines()
    if line.startswith("alphavqe ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {"__name__": "__readme__"})


def test_readme_has_cli_commands():
    assert COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_readme_cli_command_exits_zero(index, tmp_path, monkeypatch, capsys):
    # a command that writes --out leaves its file in the test's own directory
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(COMMANDS[index])[1:]) == 0, capsys.readouterr().err

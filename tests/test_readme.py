"""The README's ``python`` blocks run as written, and every flag of its
``sh`` block is one its command accepts: a renamed or removed name fails
here before a reader meets it."""

import re
from pathlib import Path

import pytest

from kitaev_bures import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
SHELL = "".join(re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S))
# the words of each kitaev-bures command: comments dropped, continuations joined
COMMANDS = [
    line.split()
    for line in re.sub(r"\\\n", " ", re.sub(r"#.*", "", SHELL)).splitlines()
    if line.startswith("kitaev-bures ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_shell_block_names_commands():
    assert {words[1] for words in COMMANDS} == set(cli.COMMANDS)


@pytest.mark.parametrize("words", COMMANDS, ids=lambda words: words[1])
def test_readme_shell_flags_appear_in_command_help(words, capsys):
    assert cli.main([words[1], "--help"]) == 0
    help_text = capsys.readouterr().out
    flags = [w for w in words[2:] if w.startswith("--")]
    assert flags
    for flag in flags:
        assert re.search(rf"{re.escape(flag)}(?![\w-])", help_text), flag

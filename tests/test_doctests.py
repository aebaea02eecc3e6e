import doctest
import shlex
from pathlib import Path

import pytest

from flopcalc import bwb, homalg, pbundle
from flopcalc.cli import main


def test_bwb_docstrings():
    result = doctest.testmod(bwb)
    assert result.attempted > 0 and result.failed == 0


def test_homalg_docstrings():
    result = doctest.testmod(homalg)
    assert result.attempted > 0 and result.failed == 0


def test_pbundle_docstrings():
    result = doctest.testmod(pbundle)
    assert result.attempted > 0 and result.failed == 0


def _readme_commands():
    """(argv, expected line or None) for each ``flopcalc`` line of the
    README's "Command line" block; a ``# `` line after a command is a line
    its stdout must hold."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    commands = []
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("flopcalc "):
            shown = after[2:] if after.startswith("# ") else None
            commands.append((shlex.split(line)[1:], shown))
    return commands


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv, shown", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_command_line(capsys, tmp_path, monkeypatch, argv, shown):
    monkeypatch.chdir(tmp_path)   # for --out
    assert main(argv) == 0
    out = capsys.readouterr().out
    if shown is not None:
        assert shown in out.splitlines()


def test_readme_lists_its_commands():
    assert len(README_COMMANDS) == 10

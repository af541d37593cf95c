"""The README's Python API example runs as written, and each command line
example prints the lines the README shows for it."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from padicamen import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def cli_examples():
    """(argv, shown lines) of each `padicamen` command the README follows
    with the output it prints."""
    section = README.read_text(encoding="utf-8").split(
        "## Command line", 1)[1]
    return [(shlex.split(command), shown.splitlines()) for command, shown in
            re.findall(r"```sh\npadicamen ([^\n]*)\n```\n\n```\n(.*?)```",
                       section, re.S)]


def test_python_api_block_runs():
    names = {}
    exec(compile(python_api_block(), str(README), "exec"), names)
    assert names["sv"].amenable is False  # 3 divides |S3| = 6
    assert names["d"].coeffs == {
        g * 6 + names["grp"].inverses[g]: Fraction(1, 6) for g in range(6)}
    assert set(names["doc"]["checks"].values()) == {"pass"}


def test_every_shown_command_is_run():
    assert [argv[0] for argv, _ in cli_examples()] == [
        "check", "sweep", "verify", "derivations"]


@pytest.mark.parametrize("argv, shown", cli_examples(),
                         ids=[argv[0] for argv, _ in cli_examples()])
def test_cli_example_prints_the_shown_lines(capsys, argv, shown):
    # the shown lines in order, each "..." standing for any lines between
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                      for line in shown)
    assert re.fullmatch(pattern, out), out

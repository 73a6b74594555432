"""The README's examples run: its Python sessions as doctests, and each
`polyreg` line of its Command line section through `cli.run`, which must
exit 0."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from polyreg import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(text, lang):
    return re.findall(r"^```%s\n(.*?)^```" % lang, text, flags=re.M | re.S)


def commands():
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for block in fenced(section, "sh")
        for line in block.splitlines()
        if line.startswith("polyreg ")
    ]


def test_python_examples():
    # the blocks run in order in one namespace, as one session
    text = "\n".join(fenced(README, "python"))
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", "README.md", 0)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert test.examples and runner.failures == 0, "".join(report)


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_command_line(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0

"""README.md's examples run and print what they show."""

import contextlib
import io
import os
import re
import shlex

import pytest

from ceisen.cli import main

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"),
          encoding="utf-8") as fh:
    README = fh.read()

_FENCES = re.findall(r"^```[a-z]*\n(.*?)^```$", README, flags=re.M | re.S)


def _examples():
    """Each `$ ceisen ...` command of a fenced block, with the lines printed
    under it up to a blank line; a block that elides lines with `...` is
    not complete and is skipped."""
    for block in _FENCES:
        if not block.startswith("$ ceisen ") or "\n...\n" in block:
            continue
        for example in block.split("\n\n"):
            command, _, stdout = example.partition("\n")
            yield command.removeprefix("$ ceisen "), stdout.rstrip("\n") + "\n"


EXAMPLES = dict(_examples())


def test_every_complete_command_block_is_found():
    assert list(EXAMPLES) == [
        "hseries --ramified 11 --dmax 4",
        "verify --suite mass --ramified 2,3,7 --M 5",
        "verify --suite congruence --ramified 11 --l 5 --mmax 50 --dmax 300",
        "classnum --dmax 8",
    ]


@pytest.mark.parametrize("command", list(EXAMPLES))
def test_command_example(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(shlex.split(command))
    assert (rc, out.getvalue(), err.getvalue()) == (0, EXAMPLES[command], "")


def test_library_example(readme_library_run):
    code, proc = readme_library_run
    assert "brandt_matrix" in code  # the match runs to the closing fence
    assert proc.returncode == 0, proc.stderr

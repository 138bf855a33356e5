"""The README's examples run as written.

The Python quick start runs through doctest.  Every ``$ plethykit ...``
example runs through the CLI: its stdout must equal the JSON lines shown
under it, and its exit code must equal any ``$ echo $?`` value shown.
"""

import doctest
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from plethykit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples():
    """(argv, JSON stdout lines, shown exit codes) per example, read from
    the README's ``sh`` code blocks."""
    examples = []
    in_sh = want_code = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif not in_sh:
            continue
        elif line.startswith("$ plethykit "):
            examples.append((shlex.split(line)[2:], [], []))
        elif line == "$ echo $?":
            want_code = True
        elif want_code:
            examples[-1][2].append(int(line))
            want_code = False
        elif examples and line.startswith("{"):
            examples[-1][1].append(line)
    return examples


CLI_EXAMPLES = _cli_examples()


def test_quick_start_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_every_cli_example_is_found():
    assert len(CLI_EXAMPLES) == 5


@pytest.mark.parametrize(
    "argv, stdout, codes", CLI_EXAMPLES, ids=[" ".join(ex[0]) for ex in CLI_EXAMPLES]
)
def test_cli_example(argv, stdout, codes):
    result = CliRunner().invoke(main, argv)
    assert result.stdout.splitlines() == stdout
    assert stdout  # every example shows its JSON output
    for code in codes:
        assert result.exit_code == code

import doctest
import re
import shlex
from pathlib import Path

import oracles
from kacmax.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


def _cli_examples():
    """(argv, shown output lines) for each `$ kacmax ...` line in the README.

    The shown output is every line after the command up to a blank line, the
    next `$` line or the end of the code block.
    """
    examples, shown = [], None
    for line in README.read_text().splitlines():
        if line.startswith("$ kacmax "):
            shown = []
            examples.append((shlex.split(line)[2:], shown))
        elif not line or line.startswith(("$", "```")):
            shown = None
        elif shown is not None:
            shown.append(line.rstrip())
    return examples


def test_readme_cli_examples(capsys):
    # a `...` line stands for any run of lines: what is shown above it must
    # start the output and what is shown below it must end it; lines are
    # compared without trailing whitespace, which the README cannot show
    examples = _cli_examples()
    assert examples
    for argv, shown in examples:
        assert main(argv) == 0, argv
        out = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
        if "..." in shown:
            cut = shown.index("...")
            head, tail = shown[:cut], shown[cut + 1 :]
            assert len(out) >= len(head) + len(tail), argv
            assert out[: len(head)] == head, argv
            assert out[len(out) - len(tail) :] == tail, argv
        else:
            assert out == shown, argv


def test_ledger_names_only_existing_oracles():
    # every name in the ledger's oracle column is a function of tests/oracles.py
    lines = README.read_text().splitlines()
    start = lines.index("| claim | oracle | argument | tier-1, largest cells | CI, largest cells |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append(line)
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split(" | ")[1])]
    assert len(rows) >= 11 and "mult_by_gessel" in names
    missing = [name for name in names if not callable(getattr(oracles, name, None))]
    assert not missing, missing

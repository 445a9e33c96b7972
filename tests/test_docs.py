"""README.md and the package's public names kept in step with the code."""

import contextlib
import importlib
import inspect
import io
import re
import shlex
from pathlib import Path

import pytest

import chernrep
from chernrep.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(heading, lang):
    """The fenced `lang` code blocks of the README section under heading."""
    section = README.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def _cli_examples():
    """(argv, expected stdout) for each `$ chernrep ...` example whose
    output has no `...`."""
    out = []
    for block in _blocks("## CLI", "sh"):
        for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = example.splitlines()
            if command.startswith("chernrep ") and "..." not in lines:
                out.append((shlex.split(command)[1:], "".join(f"{x}\n" for x in lines)))
    return out


def test_library_example_prints_what_its_comments_say():
    (block,) = _blocks("## Library", "python")
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    assert expected and printed.getvalue().splitlines() == expected


@pytest.mark.parametrize(
    "argv,stdout", _cli_examples(), ids=[" ".join(a) for a, _ in _cli_examples()]
)
def test_cli_example_prints_its_readme_output(argv, stdout):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 0, err.getvalue()
    assert out.getvalue() == stdout


def test_cli_examples_are_found():
    assert len(_cli_examples()) >= 5


def test_all_names_the_public_imports_of_init():
    """__all__ is the name table of __init__, and each name is defined in
    the layer the table gives for it."""
    table = chernrep._LAYER_OF
    assert chernrep.__all__ == sorted(set(chernrep.__all__)) == sorted(table)
    for name, layer in table.items():
        module = importlib.import_module(f"chernrep.{layer}")
        value = vars(module)[name]
        assert getattr(chernrep, name) is value
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, name


def test_dir_lists_the_public_names():
    listed = dir(chernrep)
    assert set(chernrep.__all__) <= set(listed)
    assert {"__all__", "graded"} <= set(listed)
    assert listed == sorted(listed)

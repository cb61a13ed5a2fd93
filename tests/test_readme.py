"""The README's table of resource limits names every module-level limit of
the library: each `*_LIMIT` and `*_SIZE` constant, and the classifier's
`_SAMPLE_STREAMS`, with its value.  Its CLI examples name every command,
and each parses."""

import ast
import builtins
import importlib
import re
import shlex
from pathlib import Path


from diagflag.cli import _COMMANDS, _parse_args

ROOT = Path(__file__).resolve().parent.parent


def module_limits() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src" / "diagflag").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and (
                    target.id.endswith(("_LIMIT", "_SIZE")) or target.id == "_SAMPLE_STREAMS"
                ):
                    names.add(f"{path.stem}.{target.id}")
    return names


def readme_rows() -> dict[str, str]:
    """The first cell of each row of the limits table, `module.NAME`
    (value): the value's text by name."""
    rows = re.findall(r"^\| `(\w+\.\w+)` \(([^)]*)\)", (ROOT / "README.md").read_text(), re.MULTILINE)
    return dict(rows)


def readme_limits() -> set[str]:
    return set(readme_rows())


def stated_value(text: str) -> int | None:
    """The value a table cell states exactly: a plain integer, commas
    allowed, or 10^k; None for an approximation such as "≈ 3.3·10^24"."""
    if re.fullmatch(r"\d{1,3}(,\d{3})*", text):
        return int(text.replace(",", ""))
    power = re.fullmatch(r"10\^(\d+)", text)
    return 10 ** int(power.group(1)) if power else None


def test_the_limits_table_names_every_module_limit():
    assert readme_limits()
    assert readme_limits() == module_limits()


def test_the_limits_table_states_each_exact_value():
    checked = 0
    for name, text in readme_rows().items():
        value = stated_value(text)
        if value is not None:
            module, constant = name.split(".")
            assert getattr(importlib.import_module(f"diagflag.{module}"), constant) == value, name
            checked += 1
    assert checked == len(readme_rows()) - 1  # all but PRIME_TEST_LIMIT, stated as ≈ 3.3·10^24


def readme_cli_lines() -> list[list[str]]:
    """The argv of each `diagflag ...` line of the README's CLI `sh` block."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("diagflag ")]
    return [shlex.split(line)[1:] for line in lines]


def test_the_cli_examples_name_every_command_and_parse(monkeypatch):
    """Each example parses through the CLI's parser, reading no file;
    together they name every command."""

    def no_read(*args, **kwargs):
        raise AssertionError(f"parsing opened {args[0]!r}")

    monkeypatch.setattr(builtins, "open", no_read)
    commands = {_parse_args(argv).command for argv in readme_cli_lines()}
    assert commands == set(_COMMANDS)

"""The README's table of resource limits names every module-level limit of
the library: each `*_LIMIT` and `*_SIZE` constant, and the classifier's
`_SAMPLE_STREAMS`."""

import ast
import re
from pathlib import Path

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


def readme_limits() -> set[str]:
    """The first cell of each row of the limits table: `module.NAME` (value)."""
    return set(re.findall(r"^\| `(\w+\.\w+)` \(", (ROOT / "README.md").read_text(), re.MULTILINE))


def test_the_limits_table_names_every_module_limit():
    assert readme_limits()
    assert readme_limits() == module_limits()

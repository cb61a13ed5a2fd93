"""Code that only the tests use lives in the tests.

Every top-level function and class of `src/diagflag/*.py`, and every
method that is not a dunder, must count as used by the program: it is
referenced by name elsewhere in `src/` (a name, an attribute or an import
alias; docstrings and comments do not count), `__all__` exports it,
`pyproject.toml` names it, or a `perfbench/*.py` file names it.  A method
that overrides one of a standard-library base (`_CliParser.error`) counts
as used.

An exported name closes no loophole: the exports that nothing in `src/`
or `perfbench/` references must be exactly the four library operations
offered only to users, `decompose_sn_graph`, `equivariance_check`,
`validate_sn_graph` and `verify_refutation`.

The names that pass only because `perfbench` names them are `ratlin.rref`,
`nullspace`, `is_rref` and `matvec`, which the benchmark's tracer rebinds,
so they move to `tests/conftest.py` only with a change to the benchmark,
and `egraph.enumerate_valid_graphs`, which its workloads call.
"""

import ast
import collections
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diagflag"


def _referenced(tree: ast.AST) -> collections.Counter:
    """How often each name is referenced in `tree` as a name, an
    attribute or an import alias."""
    counts: collections.Counter = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.rpartition(".")[2]] += 1
    return counts


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _overrides_a_stdlib_base(module: str, cls: str, name: str) -> bool:
    live = getattr(importlib.import_module(f"diagflag.{module}"), cls)
    return any(
        name in vars(base) for base in live.__mro__[1:] if not base.__module__.startswith("diagflag")
    )


def definitions(trees: dict[str, ast.Module]):
    """(label, name, node, module, class) for each top-level function or
    class and each non-dunder method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, node, module, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{module}.{node.name}.{item.name}", item.name, item, module, node.name


def unused_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = sum((_referenced(tree) for tree in trees.values()), collections.Counter())
    exported = set().union(*(_exported(tree) for tree in trees.values()))
    outside = (ROOT / "pyproject.toml").read_text() + "".join(
        path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    named_outside = set(re.findall(r"\w+", outside))
    unused = []
    for label, name, node, module, cls in definitions(trees):
        elsewhere = references[name] - _referenced(node)[name]
        if elsewhere > 0 or name in exported or name in named_outside:
            continue
        if cls is not None and _overrides_a_stdlib_base(module, cls, name):
            continue
        unused.append(label)
    return unused


def exports_nothing_calls() -> set[str]:
    """The names `__all__` exports that no module of `src/` but the package
    init references (outside their own definitions) and no `perfbench/*.py`
    file names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = _exported(trees.pop("__init__"))
    references = sum((_referenced(tree) for tree in trees.values()), collections.Counter())
    for _, name, node, _, cls in definitions(trees):
        if cls is None:
            references[name] -= _referenced(node)[name]
    bench = "".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    return {name for name in exported if references[name] <= 0} - set(re.findall(r"\w+", bench))


def test_exports_nothing_calls_are_library_operations():
    """An export with no caller in the program must be an operation the
    library offers its users: the equivariance cross-check, the paper's
    direct-product decomposition, the refutation checker, and the
    validation of chained graphs that users build (`exhaust --gft` builds
    its chain by formula and prints it unvalidated; tier-1 validates
    realizations beyond the levels built).  Anything else exported and
    uncalled is test-only code and lives in the tests."""
    assert exports_nothing_calls() == {
        "decompose_sn_graph",
        "equivariance_check",
        "validate_sn_graph",
        "verify_refutation",
    }


def test_no_code_in_src_is_used_only_by_the_tests():
    assert unused_definitions() == []


def test_the_scan_sees_references_and_not_docstrings():
    """A name mentioned only in a docstring is unused; one referenced by
    attribute, by name or by import alias is used."""
    tree = ast.parse(
        "import a.b as c\n"
        "def lonely():\n"
        "    '''Calls helper and lonely.'''\n"
        "    return lonely()\n"
        "def helper():\n"
        "    return c.method(named)\n"
    )
    counts = _referenced(tree)
    assert counts["helper"] == 0 and counts["method"] == 1 and counts["named"] == 1 and counts["b"] == 1
    lonely = tree.body[1]
    assert counts["lonely"] - _referenced(lonely)["lonely"] == 0

"""Code that only the tests use lives in the tests.

Every top-level function and class of `src/diagflag/*.py`, and every
method that is not a dunder, must count as used by the program: it is
referenced by name elsewhere in `src/` (a name, an attribute or an import
alias; docstrings and comments do not count), `__all__` exports it,
`pyproject.toml` names it, or a `perfbench/*.py` file names it.

An exported name closes no loophole: the exports that nothing in `src/`
or `perfbench/` references must be exactly the four library operations
offered only to users, `decompose_sn_graph`, `equivariance_check`,
`validate_sn_graph` and `verify_refutation`.

The names that pass only because `perfbench` names them are `ratlin.rref`,
`nullspace`, `is_rref` and `matvec`, which the benchmark's tracer rebinds,
so they move to `tests/conftest.py` only with a change to the benchmark,
and `egraph.enumerate_valid_graphs`, which its workloads call.

Documents are read by one rule, `errors.reading`: every `from_json_obj`
reads its document's fields (`obj[...]`, `obj.get`, ...) only inside a
`with reading(...)` block, or reads no field and only hands its document
on in one `return`; and no module but `errors` turns a KeyError,
TypeError or ValueError into a "bad ... document" DomainError of its own.
"""

import ast
import collections
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


def source_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def unused_definitions() -> list[str]:
    trees = source_trees()
    references = sum((_referenced(tree) for tree in trees.values()), collections.Counter())
    exported = set().union(*(_exported(tree) for tree in trees.values()))
    outside = (ROOT / "pyproject.toml").read_text() + "".join(
        path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    named_outside = set(re.findall(r"\w+", outside))
    unused = []
    for label, name, node, _, _ in definitions(trees):
        elsewhere = references[name] - _referenced(node)[name]
        if elsewhere > 0 or name in exported or name in named_outside:
            continue
        unused.append(label)
    return unused


def exports_nothing_calls() -> set[str]:
    """The names `__all__` exports that no module of `src/` but the package
    init references (outside their own definitions) and no `perfbench/*.py`
    file names."""
    trees = source_trees()
    exported = _exported(trees.pop("__init__"))
    references = sum((_referenced(tree) for tree in trees.values()), collections.Counter())
    for _, name, node, _, cls in definitions(trees):
        if cls is None:
            references[name] -= _referenced(node)[name]
    bench = "".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    return {name for name in exported if references[name] <= 0} - set(re.findall(r"\w+", bench))


def _is_reading(expr: ast.expr) -> bool:
    func = expr.func if isinstance(expr, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "reading") or (
        isinstance(func, ast.Attribute) and func.attr == "reading"
    )


def readers_outside_reading(trees: dict[str, ast.Module]) -> list[str]:
    """Each `from_json_obj` that reads a field of its document outside
    `with reading(...)`, or reads none and does more than return."""
    found = []
    for label, name, node, _, _ in definitions(trees):
        if name != "from_json_obj":
            continue
        document = node.args.args[-1].arg
        inside = {
            id(n)
            for w in ast.walk(node)
            if isinstance(w, ast.With) and any(_is_reading(item.context_expr) for item in w.items)
            for stmt in w.body
            for n in ast.walk(stmt)
        }
        reads = [
            n
            for n in ast.walk(node)
            if isinstance(n, (ast.Subscript, ast.Attribute))
            and isinstance(n.value, ast.Name)
            and n.value.id == document
        ]
        body = [s for s in node.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
        delegates = len(body) == 1 and isinstance(body[0], ast.Return)
        if any(id(n) not in inside for n in reads) or not (reads or delegates):
            found.append(label)
    return found


def document_rewrappers(trees: dict[str, ast.Module]) -> list[str]:
    """Each `except` outside `errors` that catches a KeyError, TypeError or
    ValueError and raises a "bad ... document" error of its own."""
    found = []
    for module, tree in trees.items():
        if module == "errors":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            raised = " ".join(ast.unparse(n) for n in ast.walk(node) if isinstance(n, ast.Raise))
            if caught & {"KeyError", "TypeError", "ValueError"} and re.search(r"bad .*document", raised):
                found.append(f"{module}:{node.lineno}")
    return found


def test_every_reader_reads_inside_errors_reading():
    trees = source_trees()
    readers = [label for label, name, *_ in definitions(trees) if name == "from_json_obj"]
    assert len(readers) == 10  # the nine document readers and RatSubspace's rows
    assert readers_outside_reading(trees) == []


def test_no_module_but_errors_wraps_a_document_fault():
    assert document_rewrappers(source_trees()) == []


def test_the_reader_scans_see_a_hand_written_rule():
    """The hand-written rule each reader used to restate is seen by both
    scans, and so is a field read before `reading`; a reader inside
    `reading` and one that only delegates pass."""
    tree = ast.parse(
        "class Old:\n"
        "    def from_json_obj(cls, obj):\n"
        "        try:\n"
        "            return cls(obj['q'])\n"
        "        except (KeyError, TypeError, ValueError) as exc:\n"
        "            raise DomainError(f'bad graph document: {exc}') from exc\n"
        "class Early:\n"
        "    def from_json_obj(cls, obj):\n"
        "        q = obj.get('q')\n"
        "        with reading('graph'):\n"
        "            return cls(q)\n"
        "class New:\n"
        "    def from_json_obj(cls, obj):\n"
        "        with errors.reading('graph'):\n"
        "            return cls(strict_list(obj['q'], 'q'))\n"
        "class Rows:\n"
        "    def from_json_obj(cls, ambient, obj):\n"
        "        '''Delegates.'''\n"
        "        return cls.span(ambient, _rows(obj))\n"
    )
    trees = {"module": tree}
    assert readers_outside_reading(trees) == ["module.Old.from_json_obj", "module.Early.from_json_obj"]
    assert document_rewrappers(trees) == ["module:5"]
    assert document_rewrappers({"errors": tree}) == []


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

"""The benchmark reaches into the library: the traced run rebinds the names
listed in `perfbench/spans.py`, and the workloads in
`perfbench/workloads.py` call library names through their modules.  Each
must still exist where the benchmark looks, and the `cli` workload's
commands must still pass its checks.  These tests only read the
benchmark's files, and write only under their temporary directory."""

import ast
import dis
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_bench(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_diagflag():
    spans = load_bench(SPANS)
    assert spans.LAYER_FUNCTIONS and spans.LAYER_METHODS
    for module, name, _ in spans.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"diagflag.{module}"), name)), (module, name)
    for module, cls, attr, _ in spans.LAYER_METHODS:
        owner = getattr(importlib.import_module(f"diagflag.{module}"), cls)
        assert attr in vars(owner), (module, cls, attr)


WORKLOADS = SPANS.with_name("workloads.py")
LIBRARY_MODULES = ("cli", "diagembed", "egraph", "flagcore", "indlimit", "ratlin")


def attribute_chains(tree):
    """Every dotted name `module.a.b...` the source takes from one of the
    library modules, as (module, (a, b, ...))."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id in LIBRARY_MODULES:
            chains.add((node.id, tuple(reversed(names))))
    return chains


def test_every_library_name_the_workloads_use_resolves():
    """A deletion that removes a name the benchmark's workloads call fails
    here, before the benchmark runs."""
    chains = attribute_chains(ast.parse(WORKLOADS.read_text()))
    for expected in (("ratlin", ("as_matrix",)), ("ratlin", ("block_diagonal",)), ("ratlin", ("RatSubspace", "span"))):
        assert expected in chains
    for module, names in sorted(chains):
        obj = importlib.import_module(f"diagflag.{module}")
        for i, name in enumerate(names):
            assert hasattr(obj, name), f"{module}.{'.'.join(names[: i + 1])}"
            obj = getattr(obj, name)


def test_the_oracle_latency_hook_reaches_the_sweep():
    """The oracle workload times each case by rebinding
    `diagembed.surjections`; the sweep must look that name up there."""
    diagembed = importlib.import_module("diagflag.diagembed")
    egraph = importlib.import_module("diagflag.egraph")
    assert diagembed.surjections is egraph.surjections
    assert diagembed.oracle_sweep.__globals__ is vars(diagembed)
    loads = {i.argval for i in dis.get_instructions(diagembed.oracle_sweep) if i.opname == "LOAD_GLOBAL"}
    assert "surjections" in loads


def test_the_cli_workload_commands_pass_their_checks(tmp_path, monkeypatch):
    """Each of the `cli` workload's 14 commands, for seeds 1 and 2, run
    in-process and checked by the workload's own check: its exit code and
    verdict.  A library change that the benchmark's verdict gate would
    refuse fails here first.  The workload writes its documents under the
    directory it is given, and names them relative to the working
    directory."""
    workloads = load_bench(WORKLOADS)
    monkeypatch.chdir(tmp_path)
    for seed in (1, 2):
        workload = workloads.Cli(seed, tmp_path, True, False)
        assert len(workload.commands) == 14
        for k in range(len(workload.commands)):
            item = workload._inprocess_item(k, k)
            item.check(item.run())


def test_the_cli_workload_commands_pass_their_checks_cold(tmp_path, monkeypatch):
    """Each of the tiny `cli` workload's 14 commands at seed 1, run as the
    benchmark runs it, in a cold `python -m diagflag.cli` process that
    exits through `cli.console_main`, and checked by the workload's own
    check: no traceback, its exit code and verdict.  `finish` then runs
    each command in-process and compares its stdout with the cold one, byte
    for byte.  The processes import the package from this checkout, with
    stdout block-buffered as a pipe's is by default, so a process that
    exits without flushing it fails."""
    workloads = load_bench(WORKLOADS)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(Path(workloads.cli.__file__).resolve().parent.parent))
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    workload = workloads.Cli(1, tmp_path, True, False)
    items = next(workload.rounds())
    assert len(items) == 14
    for item in items:
        item.check(item.run())
    assert sorted(workload.process_counts) == list(range(14))
    assert workload.finish() == []


def test_the_flagmaps_workload_items_pass_their_checks(tmp_path):
    """Each item of one round of the tiny `flagmaps` workload, for seeds 1
    and 2, run in-process and checked by the workload's own check:
    equivariance of evaluation, constant spaces inside every image, member
    dimensions against the pullback, and composed against stepwise
    evaluation.  A kernel change that breaks any of them fails here before
    the benchmark runs."""
    workloads = load_bench(WORKLOADS)
    for seed in (1, 2):
        workload = workloads.FlagMaps(seed, tmp_path, True, False)
        items = next(workload.rounds())
        assert len(items) == 20
        for item in items:
            item.check(item.run())


def test_the_oracle_workload_items_pass_their_checks(tmp_path):
    """The one item of a round of the tiny `oracle` workload and its traced
    item, for seeds 1 and 2, run in-process and checked by the workload's
    own check: the sweep's verdicts agree, and it times one draw from the
    rebound `diagembed.surjections` per case.  A memo that changed a
    verdict, or a case drawn twice, fails here before the benchmark runs."""
    workloads = load_bench(WORKLOADS)

    class Ticks:
        count = 0

        def tick(self):
            self.count += 1

    reports = set()
    for seed in (1, 2):
        workload = workloads.Oracle(seed, tmp_path, True, False)
        for item in next(workload.rounds()) + workload.traced_items():
            workload.probe = Ticks()
            report = item.run()
            reports.add(item.check(report))
            assert workload.probe.count == len(item.cases()) == report.cases > 0
    assert len(reports) == 3  # the round's sweep and the traced sweep at each block count

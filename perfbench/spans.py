"""Span recorder for the traced benchmark run.

`Recorder.install()` rebinds the public functions and methods listed in
`LAYER_FUNCTIONS` / `LAYER_METHODS` to wrappers that record one span per
call: name, start, end, parent span and item id.  A function is rebound in
every `diagflag` module namespace that holds it, so calls between library
modules and calls inside one module (which look the name up in the module
globals) are both seen.  `uninstall()` puts every original back.  Nothing in
the library itself changes.

Spans are kept in flat arrays in memory and written out once, at the end.
A span's self time is its duration minus the part its direct children
cover; calls are single-threaded and properly nested, so the children of
a span never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, function name, span name)
LAYER_FUNCTIONS = (
    ("ratlin", "rref", "ratlin.rref"),
    ("ratlin", "nullspace", "ratlin.nullspace"),
    ("ratlin", "is_rref", "ratlin.is_rref"),
    ("ratlin", "matvec", "ratlin.apply"),
    ("ratlin", "stabilizer_oracle", "ratlin.stabilizer_oracle"),
    ("ratlin", "nilradical_inclusion_oracle", "ratlin.nilradical_oracle"),
    ("flagcore", "classify_bruteforce", "flagcore.classify"),
    ("flagcore", "support_and_constants", "flagcore.support_and_constants"),
    ("flagcore", "random_flag", "flagcore.random_flag"),
    ("flagcore", "se_eval", "flagcore.se_eval"),
    ("flagcore", "se_compose", "flagcore.se_compose"),
    ("diagembed", "constant_spaces", "diagembed.constant_spaces"),
    ("diagembed", "picard_pullback", "diagembed.picard_pullback"),
    ("diagembed", "unipotent_inclusion", "diagembed.unipotent_inclusion"),
    ("egraph", "build_from_alpha", "egraph.build_from_alpha"),
    ("egraph", "validate_egraph", "egraph.validate_egraph"),
    ("egraph", "partition_edges", "egraph.partition_edges"),
    ("indlimit", "admissible", "indlimit.admissible"),
    ("indlimit", "build_realization_sn_graph", "indlimit.build_realization_sn_graph"),
    ("indlimit", "verify_certificate", "indlimit.verify_certificate"),
    ("indlimit", "canonical_exhaustion", "indlimit.canonical_exhaustion"),
    ("supernat", "divides_sn", "supernat.divides_sn"),
    ("supernat", "validate_exhaustion", "supernat.validate_exhaustion"),
    ("cli", "main", "cli.main"),
    ("cli", "selftest_digest", "cli.selftest_digest"),
)

# (module, class, attribute, span name)
LAYER_METHODS = (
    ("ratlin", "RatSubspace", "__and__", "ratlin.intersect"),
    ("ratlin", "RatSubspace", "__add__", "ratlin.sum"),
    ("ratlin", "RatSubspace", "span", "ratlin.sum"),
    ("ratlin", "RatSubspace", "apply", "ratlin.apply"),
    ("ratlin", "Flag", "apply", "ratlin.apply"),
    ("diagembed", "DiagonalEmbedding", "evaluate", "diagembed.evaluate"),
    ("diagembed", "DiagonalEmbedding", "__post_init__", "diagembed.embedding_init"),
)

ITEM_SPAN = "bench.item"

# Layers whose call counts are reported.
COUNTED = (
    "ratlin.rref",
    "ratlin.nullspace",
    "ratlin.intersect",
    "ratlin.sum",
    "ratlin.apply",
    "ratlin.is_rref",
    "ratlin.stabilizer_oracle",
    "flagcore.se_eval",
    "flagcore.se_compose",
    "diagembed.evaluate",
    "egraph.build_from_alpha",
    "egraph.partition_edges",
    "supernat.divides_sn",
)

# Layers whose self time is reported, as a share of the traced wall time.
TIMED = (
    "ratlin.rref",
    "ratlin.nullspace",
    "ratlin.intersect",
    "ratlin.sum",
    "ratlin.apply",
    "ratlin.is_rref",
    "ratlin.stabilizer_oracle",
    "ratlin.nilradical_oracle",
    "flagcore.classify",
    "flagcore.support_and_constants",
    "flagcore.random_flag",
    "flagcore.se_eval",
    "flagcore.se_compose",
    "diagembed.evaluate",
    "diagembed.embedding_init",
    "diagembed.constant_spaces",
    "diagembed.picard_pullback",
    "diagembed.unipotent_inclusion",
    "egraph.build_from_alpha",
    "indlimit.admissible",
    "indlimit.build_realization_sn_graph",
    "indlimit.verify_certificate",
    "indlimit.canonical_exhaustion",
    "supernat.validate_exhaustion",
    "cli.main",
    "cli.selftest_digest",
)


class Recorder:
    """Spans in flat arrays, plus named counters, for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("H")
        self.parents = array("q")
        self.items = array("q")
        self.stack: list[int] = []
        self.item = -1
        self.paused = False  # set while the benchmark checks an output
        self.counters: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, hook=None):
        nid = self._id(name)
        starts, ends, name_ids = self.starts, self.ends, self.name_ids
        parents, items, stack = self.parents, self.items, self.stack
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            if hook is not None:
                args = hook(args)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            items.append(rec.item)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _rref_args(self, args):
        rows, width = args[0], args[1]
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        self.counters["ratlin.rref.cells"] += len(rows) * width
        return (rows, width, *args[2:])

    def _wrap_intersect(self, fn):
        inner = self._wrap(fn, "ratlin.intersect")
        counters = self.counters

        @functools.wraps(fn)
        def intersect(a, b):
            out = inner(a, b)
            # Checked after the span has closed, so its cost is not
            # charged to the intersection.
            if not self.paused and a <= b:
                counters["ratlin.intersect.contained"] += 1
            return out

        return intersect

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "diagflag" or name.startswith("diagflag.")
        }
        for modname, fname, span in LAYER_FUNCTIONS:
            original = getattr(mods[f"diagflag.{modname}"], fname)
            hook = self._rref_args if span == "ratlin.rref" else None
            wrapped = self._wrap(original, span, hook)
            for mod in mods.values():
                if mod.__dict__.get(fname) is original:
                    self._set(mod, fname, wrapped)
        for modname, clsname, attr, span in LAYER_METHODS:
            cls = getattr(mods[f"diagflag.{modname}"], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span))
            elif span == "ratlin.intersect":
                wrapped = self._wrap_intersect(raw)
            else:
                wrapped = self._wrap(raw, span)
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def item_span(self, fn):
        """Wrap one benchmark item, so every library span has it as root."""
        return self._wrap(fn, ITEM_SPAN)

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self time, and the counts derived from spans."""
        n = len(self.starts)
        starts, ends, name_ids, parents = self.starts, self.ends, self.name_ids, self.parents
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        evaluate = self._ids.get("diagembed.evaluate", -1)
        sums = self._ids.get("ratlin.sum", -1)
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        child_sums = 0
        for i in range(n):
            nid = name_ids[i]
            name = self.names[nid]
            self_s[name] += ends[i] - starts[i] - covered[i]
            p = parents[i]
            # A call nested directly in a call of the same layer (such as
            # `a + b` delegating to `span`) is one call of that layer.
            if p < 0 or name_ids[p] != nid:
                calls[name] += 1
            if nid == sums and p >= 0 and name_ids[p] == evaluate:
                child_sums += 1
        return {"calls": calls, "self_s": self_s, "child_sums": child_sums, "spans": n}

    def write(self, path: Path) -> None:
        """Spans as raw arrays (`path`) with a JSON index beside them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for arr in (self.starts, self.ends, self.parents, self.items, self.name_ids):
                arr.tofile(fh)
        index = {
            "spans": len(self.starts),
            "layout": [
                ["start", "d"],
                ["end", "d"],
                ["parent", "q"],
                ["item", "q"],
                ["name", "H"],
            ],
            "names": self.names,
            "counters": dict(self.counters),
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1))

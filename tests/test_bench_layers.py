"""The traced benchmark run rebinds the library names listed in
`perfbench/spans.py`; each must still exist where the list says."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_diagflag():
    spans = load_spans()
    assert spans.LAYER_FUNCTIONS and spans.LAYER_METHODS
    for module, name, _ in spans.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"diagflag.{module}"), name)), (module, name)
    for module, cls, attr, _ in spans.LAYER_METHODS:
        owner = getattr(importlib.import_module(f"diagflag.{module}"), cls)
        assert attr in vars(owner), (module, cls, attr)

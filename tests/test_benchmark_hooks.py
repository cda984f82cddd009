"""The benchmark's traced run finds every function it wraps.

``perfbench/workloads.py`` replaces looptrans functions at the module
attributes named in its ``LAYER_SPANS`` and taps the two quotient functions;
a renamed or dropped attribute makes ``--trace 1`` fail with AttributeError.
"""

import importlib.util
import sys
from pathlib import Path

import looptrans.algebra
import looptrans.enumeration
import looptrans.graph
import looptrans.reps
import looptrans.transform
import looptrans.transplant

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = {
    "algebra": looptrans.algebra,
    "enumeration": looptrans.enumeration,
    "graph": looptrans.graph,
    "reps": looptrans.reps,
    "transform": looptrans.transform,
    "transplant": looptrans.transplant,
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)  # defines only; main() runs under __main__
    finally:
        del sys.modules[spec.name]
    return module


def test_layer_spans_resolve():
    workloads = _load_workloads()
    assert workloads.LAYER_SPANS
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in workloads.LAYER_SPANS
        if not callable(getattr(MODULES[owner], attr, None))
    ]
    assert missing == []


def test_tapped_quotients_resolve():
    for attr in ("colour_classes", "quilt_classes"):
        assert callable(getattr(looptrans.enumeration, attr, None))

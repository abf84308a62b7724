"""The benchmark's tracer looks up every layer it wraps by name; a rename in
chainops that it does not follow would break ``perfbench/run.py --trace 1``.
The tracer module is imported read-only (no bytecode is written there)."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))   # tracing imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for name, module_name, attr in tracing.LAYERS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), (name, module_name, attr)
            target = getattr(target, part)
        assert callable(target), name

"""The benchmark tracer wraps momentlab functions by name; each must exist."""

import importlib.util
import sys
from pathlib import Path

import momentlab  # noqa: F401  (imports every momentlab layer)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    # loaded by path without writing a bytecode cache next to the file
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    missing = []
    for layer, names in tracing.TRACED.items():
        module = sys.modules[f"momentlab.{layer}"]
        for name in names:
            owner, _, attr = name.rpartition(".")
            target = vars(module).get(owner) if owner else module
            if not callable(getattr(target, attr, None)):
                missing.append(f"momentlab.{layer}.{name}")
    assert not missing
    assert len(list(tracing._targets())) >= sum(map(len, tracing.TRACED.values()))

"""The benchmark tracer's layer table names functions that exist.

``bench/spans.py`` wraps ``module.function`` for each entry of its ``LAYERS``;
a renamed function there would otherwise show only when a traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    """``bench/spans.py`` loaded by path, writing no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_and_is_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = [
        f"{mod}.{name}"
        for mod, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"spatialsdr.{mod}"), name, None))
    ]
    assert missing == []
    assert set(spans.DISTINCT) <= set(spans.TRACED)

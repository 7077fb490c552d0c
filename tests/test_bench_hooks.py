"""The benchmark's outside-in hooks still find every layer they wrap.

A renamed or deleted function would otherwise silently switch off a
per-layer metric or one of the benchmark's output checks.
"""
import importlib.util
import sys
from pathlib import Path

from quarts import train

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_layer_is_present(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    original = train.evaluate_probs
    inst = spans.Instrumentation(spans.Checks(), spans.Recorder())
    try:
        assert inst.absent == []
        assert train.evaluate_probs is not original
    finally:
        inst.remove()
    assert train.evaluate_probs is original

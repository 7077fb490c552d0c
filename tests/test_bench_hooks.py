"""The benchmark's outside-in hooks still find every layer they wrap.

A renamed or deleted function would otherwise silently switch off a
per-layer metric or one of the benchmark's output checks.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from quarts import e2e as E
from quarts import metrics as M
from quarts import train
from quarts import ved as V
from quarts.classifier import init_classifier
from quarts.data import Batch
from quarts.rng import RunRng
from quarts.tensor import Tape

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


def test_every_layer_is_present(monkeypatch):
    spans = load_spans(monkeypatch)
    original = train.evaluate_probs
    inst = spans.Instrumentation(spans.Checks(), spans.Recorder())
    try:
        assert inst.absent == []
        assert train.evaluate_probs is not original
    finally:
        inst.remove()
    assert train.evaluate_probs is original


def test_hooks_count_and_check_a_traced_round(monkeypatch):
    """The counts behind the per-layer metrics and the output checks still
    read the arguments and results of the functions they wrap."""
    spans = load_spans(monkeypatch)
    rng = np.random.default_rng(0)
    clf = init_classifier(rng, 9, 9, 4, 4, dropout=0.1)
    ved = V.init_ved(rng, 4, 4, 3, 9)
    batch = Batch(rng.integers(4, 9, size=(4, 3)), np.full(4, 3),
                  rng.integers(4, 9, size=(4, 2)), np.full(4, 2),
                  np.array([0.0, 1.0, 0.0, 0.0]))
    checks, rec = spans.Checks(), spans.Recorder()
    rec.scope, rec.stage = "round", "e2e"
    inst = spans.Instrumentation(checks, rec)
    try:
        assert inst.absent == []
        with Tape([*clf.named().values(), *ved.named().values()]) as tape:
            loss, _ = E.e2e_batch_loss(clf, ved, batch, 1.0, 5.0, RunRng(0, "finetune"))
            tape.backward(loss)
        V.beam_generate([4, 5, 6], [7, 8], clf, ved, beam=2, max_len=4)
        M.f1_best(rng.random(50), rng.integers(0, 2, size=50))
    finally:
        inst.remove()
    for key in ("s1", "switch_draws", "decode_rows", "records.e2e", "steps.e2e",
                "distinct_scores"):
        assert rec.counts[key] > 0, key
    assert checks.attempted > 0
    assert checks.failed == 0, checks.notes

"""Outside-in instrumentation: span recording and output checks.

Everything here wraps public functions of the ``quarts`` package from the
outside; nothing under ``src/`` is modified. A wrapped function is
replaced in every ``quarts`` module namespace that holds it, so a name
imported with ``from .classifier import encode_batch`` is wrapped in
``quarts.ved`` as well as in ``quarts.classifier``. Methods are wrapped on
their class. A target that no longer exists is reported as absent instead
of failing the run.

Two kinds of wrapper exist:

* check hooks, installed on every run, validate outputs (finite losses,
  probabilities in [0, 1], best-F1 consistency, well-formed generations)
  and count attempted and failed operations;
* spans, installed only on traced runs, record (name, start, end, parent,
  stage, scope) tuples in memory; self time is a span minus its children.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial

import numpy as np

# Per-layer timing metric -> (module, attribute). "Class.method" names a
# method; a generator function gets one span per item it yields.
LAYERS = {
    "tensor.backward_ms": ("quarts.tensor", "Tape.backward"),
    "classifier.encode_batch_ms": ("quarts.classifier", "encode_batch"),
    "classifier.wbw_attention_ms": ("quarts.classifier", "wbw_attention_batch"),
    "classifier.head_ms": ("quarts.classifier", "head_logit"),
    "classifier.batch_probs_ms": ("quarts.classifier", "batch_probs"),
    "ved.encode_pair_batch_ms": ("quarts.ved", "encode_pair_batch"),
    "ved.loss_batch_ms": ("quarts.ved", "ved_loss_batch"),
    "ved.decode_step_ms": ("quarts.ved", "decode_step"),
    "ved.beam_generate_ms": ("quarts.ved", "beam_generate"),
    "e2e.batch_loss_ms": ("quarts.e2e", "e2e_batch_loss"),
    "e2e.hgen_forward_ms": ("quarts.ved", "hgen_forward_batch"),
    "optim.adam_step_ms": ("quarts.optim", "Adam.step"),
    "train.val_eval_ms": ("quarts.train", "evaluate_probs"),
    "data.batches_ms": ("quarts.data", "batches"),
    "metrics.average_precision_ms": ("quarts.metrics", "average_precision"),
    "metrics.pr_curve_ms": ("quarts.metrics", "pr_curve"),
    "metrics.f1_best_ms": ("quarts.metrics", "f1_best"),
    "metrics.corpus_bleu_ms": ("quarts.metrics", "corpus_bleu"),
    "metrics.generation_accuracy_ms": ("quarts.metrics", "generation_accuracy"),
    "checkpoint.save_ms": ("quarts.checkpoint", "save_arrays"),
    "checkpoint.load_ms": ("quarts.checkpoint", "load_arrays"),
    "pipeline.load_data_ms": ("quarts.pipeline", "load_data"),
    "pipeline.generate_data_ms": ("quarts.pipeline", "generate_data"),
    "catalog.oracle_label_ms": ("quarts.catalog", "MatchOracle.label"),
}

# Layers whose work belongs to set-up; they are aggregated over the traced
# set-up and the traced round. Every other layer is aggregated over the
# traced round only, the part the end-to-end throughputs measure.
SETUP_LAYERS = ("checkpoint.", "pipeline.", "catalog.")

# Stages whose optimizer steps feed tensor.records_per_step.<stage>.
STEP_STAGES = ("clf", "ved", "e2e")


@dataclass
class Checks:
    """Counts of attempted and failed operations, plus failed-check notes."""
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, msg: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(msg)

    def require(self, ok: bool, msg: str) -> None:
        if not ok:
            self.fail(msg)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.notes


class Recorder:
    """In-memory span store; ``stage`` tags spans with the workload stage."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.stage = "setup"
        self.scope = "setup"   # "setup" or "round"
        self.counts: dict = defaultdict(float)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, stage, scope in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def covered(self, scope: str) -> float:
        """Seconds of ``scope`` wall time inside a top-level span."""
        return sum(t1 - t0 for _, t0, t1, parent, _, sc in self.spans
                   if parent < 0 and sc == scope)

    def summary(self) -> dict:
        out: dict = {}
        for span, own in zip(self.spans, self.self_times()):
            name, t0, t1, _, _, scope = span
            row = out.setdefault(f"{scope}:{name}",
                                 {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (t1 - t0) * 1e3
            row["self_ms"] += own * 1e3
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, stage, scope in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "stage": stage,
                                     "scope": scope}) + "\n")


# --- check hooks -------------------------------------------------------------

def _check_loss(checks: Checks, args, kwargs) -> None:
    loss = kwargs.get("loss", args[1] if len(args) > 1 else None)
    checks.attempted += 1
    if loss is None or not np.all(np.isfinite(loss.data)):
        checks.fail("non-finite training loss")


def _check_probs(checks: Checks, args, kwargs, out, sig=None) -> None:
    scores = np.asarray(out[0])
    checks.attempted += scores.size
    bad = int(np.count_nonzero(~(np.isfinite(scores) & (scores >= 0.0)
                                 & (scores <= 1.0))))
    if bad:
        checks.fail(f"{bad} probabilities non-finite or outside [0, 1]", bad)


def _check_f1(checks: Checks, args, kwargs, out, sig=None) -> None:
    metrics = sys.modules["quarts.metrics"]
    f1, thr = out
    again = metrics.f1_at_threshold(args[0], args[1], thr)
    checks.require(math.isfinite(f1) and again == f1,
                   f"f1_best returned {f1!r} but f1_at_threshold gives {again!r}")


def _check_generation(checks: Checks, args, kwargs, out, sig) -> None:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    vocab = bound.arguments["clf"].emb_q.shape[0]
    beam, max_len = bound.arguments["beam"], bound.arguments["max_len"]
    checks.attempted += 1
    eos = sys.modules["quarts.data"].EOS
    ok = 1 <= len(out) <= beam
    for tokens, score in out:
        ok = ok and len(tokens) <= max_len and math.isfinite(score)
        ok = ok and all(isinstance(t, int) and 0 <= t < vocab and t != eos
                        for t in tokens)
    if not ok:
        checks.fail(f"malformed generation: {out!r}"[:200])


# --- count hooks (traced runs only) -----------------------------------------

def _count_records(rec: Recorder, args, kwargs) -> None:
    if rec.scope == "round":
        rec.counts[f"records.{rec.stage}"] += len(args[0])
        rec.counts[f"steps.{rec.stage}"] += 1


def _count_rows(rec: Recorder, args, kwargs) -> None:
    if rec.scope == "round":
        rec.counts["decode_rows"] += len(kwargs.get("prev_ids", args[0] if args else ()))


def _count_distinct(rec: Recorder, args, kwargs) -> None:
    if rec.scope == "round":
        rec.counts["distinct_scores"] += np.unique(np.asarray(args[0])).size


def _count_switch(rec: Recorder, args, kwargs, out) -> None:
    if rec.scope == "round":
        s = np.asarray(out[1])
        rec.counts["s1"] += int(s.sum())
        rec.counts["switch_draws"] += s.size


CHECK_BEFORE = {"tensor.backward_ms": _check_loss}
CHECK_AFTER = {"train.val_eval_ms": _check_probs, "metrics.f1_best_ms": _check_f1,
               "ved.beam_generate_ms": _check_generation}
CHECKED = tuple(CHECK_BEFORE) + tuple(CHECK_AFTER)
COUNT_BEFORE = {"tensor.backward_ms": _count_records,
                "ved.decode_step_ms": _count_rows,
                "metrics.f1_best_ms": _count_distinct}
COUNT_AFTER = {"e2e.batch_loss_ms": _count_switch}


# --- patching ----------------------------------------------------------------

def _make_wrapper(fn, name: str, rec: Recorder | None, checks: Checks):
    before_check = CHECK_BEFORE.get(name)
    after_check = CHECK_AFTER.get(name)
    if after_check is not None:
        after_check = partial(after_check, sig=inspect.signature(fn))
    before_count = COUNT_BEFORE.get(name) if rec else None
    after_count = COUNT_AFTER.get(name) if rec else None
    clock = time.perf_counter

    if inspect.isgeneratorfunction(fn):   # only traced; one span per item
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = rec.stack[-1] if rec.stack else -1
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.spans.append((name, t0, clock(), parent, rec.stage, rec.scope))
                yield item
        return gen_wrapper

    def wrapper(*args, **kwargs):
        if before_check is not None:
            before_check(checks, args, kwargs)
        if before_count is not None:
            before_count(rec, args, kwargs)
        if rec is None:
            out = fn(*args, **kwargs)
        else:
            idx = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else -1
            rec.spans.append(None)
            rec.stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.spans[idx] = (name, t0, clock(), parent, rec.stage, rec.scope)
                rec.stack.pop()
        if after_check is not None:
            after_check(checks, args, kwargs, out)
        if after_count is not None:
            after_count(rec, args, kwargs, out)
        return out

    return wrapper


def _quarts_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "quarts" or n.startswith("quarts."))]


class Instrumentation:
    """Installs wrappers; ``remove`` restores every patched attribute."""

    def __init__(self, checks: Checks, rec: Recorder | None = None):
        self.checks = checks
        self.rec = rec
        self.absent: list[str] = []
        self._undo: list = []
        for name in (LAYERS if rec is not None else CHECKED):
            self._install(name, *LAYERS[name])

    def _install(self, name: str, module_name: str, attr: str) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(name)
            return
        owner, _, method = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            fn = cls.__dict__.get(method) if isinstance(cls, type) else None
            if not callable(fn):
                self.absent.append(name)
                return
            setattr(cls, method, _make_wrapper(fn, name, self.rec, self.checks))
            self._undo.append((cls, method, fn))
            return
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return
        wrapper = _make_wrapper(fn, name, self.rec, self.checks)
        for mod in _quarts_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, fn))

    def remove(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()


def layer_metrics(rec: Recorder, absent: list[str]) -> dict[str, float]:
    """Per-layer values from one traced set-up plus one traced round.

    Timing metrics are the mean inclusive milliseconds per call; a layer
    the workload never calls reads 0. Absent layers are left out.
    """
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    for name, t0, t1, _, _, scope in rec.spans:
        if scope == "round" or name.startswith(SETUP_LAYERS):
            calls[name] += 1
            total[name] += t1 - t0
    out = {}
    for name in LAYERS:
        if name not in absent:
            out[name] = total[name] / calls[name] * 1e3 if calls[name] else 0.0
    c = rec.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    if "tensor.backward_ms" not in absent:
        for stage in STEP_STAGES:
            out[f"tensor.records_per_step.{stage}"] = ratio(
                f"records.{stage}", f"steps.{stage}")
    if "ved.decode_step_ms" not in absent:
        n = calls["ved.decode_step_ms"]
        out["ved.decode_step_calls"] = float(n)
        out["ved.decode_rows_per_call"] = c["decode_rows"] / n if n else 0.0
    if "metrics.f1_best_ms" not in absent:
        n = calls["metrics.f1_best_ms"]
        out["metrics.distinct_scores"] = c["distinct_scores"] / n if n else 0.0
    if "e2e.batch_loss_ms" not in absent:
        out["e2e.s1_fraction"] = ratio("s1", "switch_draws")
    return out

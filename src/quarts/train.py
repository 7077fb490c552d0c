"""Training loops: one ``fit`` for every phase trained on labeled pairs,
and ``train_ved`` for generator pretraining.

``fit`` serves classifier pretraining, the naive-augment and pooled
baselines, and switched end-to-end training; the caller hands it the
batch loss. ``train_ved`` batches (item, matched, mismatched) triples
and anneals the KL weight, so it keeps its own loop.

All loops are single-threaded and deterministic given a RunRng; gradient
reset is explicit and asserted before every backward pass.
"""
from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

import numpy as np

from . import metrics as M
from .classifier import ClassifierParams, DssmParams, batch_probs, dssm_batch_probs
from .data import Batch, Example, batches
from .optim import Adam, assert_grads_clear
from .rng import RunRng
from .tensor import Tape, Tensor
from .ved import TripleExample, VedParams, make_triple_batch, ved_loss_batch

log = logging.getLogger(__name__)


@dataclass
class EpochRecord:
    epoch: int
    split: str
    aupr: float
    f1: float
    loss: float
    s1_fraction: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class TrainSettings:
    """The knobs every loop shares."""
    batch_size: int = 32
    lr: float = 1e-4
    beta: float = 5.0
    decay_factor: float = 0.8
    decay_every: int = 10


def _maybe_decay(opt: Adam, st: TrainSettings, epoch: int) -> None:
    if epoch > 0 and st.decay_every > 0 and epoch % st.decay_every == 0:
        opt.decay_lr(st.decay_factor)


def evaluate_probs(model: ClassifierParams | DssmParams, examples: list[Example],
                   batch_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode mismatch probabilities over a dataset (no rng consumed).

    Examples are scored in order of query length, then title length, so
    each batch pads to near its own lengths; scores and labels come back
    in input order. No score depends on the padded width, but BLAS may
    round a row differently in a GEMM with another row count, so a
    float32 score can move in its last bits against input-order batches.
    """
    order = np.lexsort(([len(e.item_ids) for e in examples],
                        [len(e.query_ids) for e in examples]))
    scores, labels = [], []
    for b in batches([examples[i] for i in order], batch_size):
        if isinstance(model, DssmParams):
            probs = dssm_batch_probs(model, b.item_ids, b.item_lens,
                                     b.query_ids, b.query_lens)
        else:
            probs, _ = batch_probs(model, b.item_ids, b.item_lens,
                                   b.query_ids, b.query_lens, training=False)
        scores.append(probs.data)
        labels.append(b.labels)
    back = np.argsort(order)   # the inverse permutation
    return np.concatenate(scores)[back], np.concatenate(labels)[back]


def fit(model: ClassifierParams | DssmParams, named: dict[str, Tensor],
        loss_fn: Callable[[Batch], tuple[Tensor, np.ndarray]],
        train_ex: list[Example], val_ex: list[Example], st: TrainSettings,
        rng: RunRng, epochs: int, phase: str) -> list[EpochRecord]:
    """Adam on ``named`` over shuffled batches, then a val pass per epoch.

    ``loss_fn(batch)`` returns (loss, s): ``s`` holds the batch's switch
    draws, empty for losses without a switch, and feeds the s1 fraction.
    ``model`` is what the val pass scores.
    """
    opt = Adam(named, st.lr)
    records = []
    for epoch in range(epochs):
        _maybe_decay(opt, st, epoch)
        losses = []
        s_total = 0
        n_total = 0
        for batch in batches(train_ex, st.batch_size, rng.shuffle):
            assert_grads_clear(named)
            with Tape() as tape:
                loss, s = loss_fn(batch)
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
            losses.append(loss.item())
            s_total += int(s.sum())
            n_total += len(s)
        scores, labels = evaluate_probs(model, val_ex)
        rec = EpochRecord(epoch, "val", M.average_precision(scores, labels),
                          M.f1_best(scores, labels)[0], float(np.mean(losses)),
                          s_total / max(n_total, 1))
        records.append(rec)
        log.info("%s epoch %d: val aupr=%.4f f1=%.4f loss=%.4f s1=%.3f",
                 phase, epoch, rec.aupr, rec.f1, rec.loss, rec.s1_fraction)
    return records


@dataclass
class VedEpoch:
    epoch: int
    loss: float
    nll: float
    kl: float
    kl_weight: float


def kl_weight_at(epoch: int, anneal_epochs: int) -> float:
    """Linear 0 -> 1 over the first ``anneal_epochs`` epochs."""
    if anneal_epochs <= 1:
        return 1.0
    return min(1.0, epoch / (anneal_epochs - 1))


@contextmanager
def frozen(params: dict[str, Tensor]) -> Iterator[None]:
    """Mark ``params`` untracked for the block, so no step can change them."""
    for p in params.values():
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params.values():
            p.requires_grad = True


def train_ved(clf: ClassifierParams, ved: VedParams,
              triples: list[TripleExample], st: TrainSettings, rng: RunRng,
              epochs: int, ved_lr: float, kl_anneal_epochs: int = 5,
              ) -> list[VedEpoch]:
    """Decoder/latent pretraining with the encoder frozen.

    The classifier tensors are not touched: they are marked untracked for
    the duration, so this phase leaves them bitwise unchanged.
    """
    named = ved.named()
    opt = Adam(named, ved_lr)
    records = []
    with frozen(clf.named()):
        for epoch in range(epochs):
            _maybe_decay(opt, st, epoch)
            w = kl_weight_at(epoch, kl_anneal_epochs)
            losses, nlls, kls = [], [], []
            order = rng.shuffle.permutation(len(triples))
            for start in range(0, len(triples), st.batch_size):
                chunk = [triples[i] for i in order[start:start + st.batch_size]]
                tb = make_triple_batch(chunk)
                assert_grads_clear(named)
                with Tape() as tape:
                    loss, nll, kl = ved_loss_batch(clf, ved, tb, w, rng=rng.latent)
                    tape.backward(loss)
                opt.step()
                opt.zero_grad()
                losses.append(loss.item())
                nlls.append(nll)
                kls.append(kl)
            rec = VedEpoch(epoch, float(np.mean(losses)), float(np.mean(nlls)),
                           float(np.mean(kls)), w)
            records.append(rec)
            log.info("ved epoch %d: loss=%.4f nll=%.4f kl=%.4f (w=%.2f)",
                     epoch, rec.loss, rec.nll, rec.kl, w)
    return records

"""The one training loop, ``fit``, for every phase.

The caller hands ``fit`` the batch loss: the weighted cross-entropy for
classifier pretraining and the naive-augment baseline, the pooled
baseline's loss, the VED loss for generator pretraining, and the
switched loss for end-to-end training. Labeled pairs and (item, matched,
mismatched) triples go through the same shuffled batching. The loss
receives the epoch, so a schedule such as the KL annealing lives in it.
The batch size and the rate decay come from the run's ``RunConfig``.

``fit`` only trains; each phase states what its epoch records hold: the
stats its loss reports, each averaged over all the epoch's values, and
the fields its ``epoch_fields`` returns, such as ``val_pass``'s val AUPR
and F1. A new per-epoch measure is one entry in either. The records, in
``fit``'s key order, go into the phase's entry in ``manifest.json``.

Evaluation scores a ``classifier.EncodedBatch`` per batch, gathered in
part from the encode-once cache (``encode_distinct``) that VED
pretraining gathers its records from too.

All loops are single-threaded and deterministic given a RunRng. The
parameter map a phase hands ``fit`` is the one statement of what it
trains: each step opens its tape on exactly those tensors, so any other
tensor (a classifier held fixed while the generator pretrains, a
generator held fixed for ablation) is untracked by the step. A step's
gradients are the map its tape's backward pass returns; ``fit`` hands it
to Adam once the tape is closed and drops it with the step.
"""
from __future__ import annotations

import logging
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import metrics as M
from .classifier import (ClassifierParams, DssmParams, EncodedBatch, LstmParams,
                         batch_probs, dssm_batch_probs, encode_batch)
from .config import RunConfig
from .data import Batch, Example, TripleBatch, TripleExample, batches, pad_matrix
from .optim import Adam
from .rng import RunRng
from .tensor import Tape, Tensor

log = logging.getLogger(__name__)


class EpochRecord(SimpleNamespace):
    """One epoch of a phase: ``epoch``, the phase's ``epoch_fields``, the
    mean loss and each stat's mean, in that order (see ``fit``)."""

    def to_json(self) -> dict:
        return dict(vars(self))


EVAL_BATCH_SIZE = 256
EVAL_GROUPING = ("pairs sorted by query length, then title length; classifier "
                 "titles encoded once per distinct title, in length-sorted batches")


def encode_distinct(seqs: list[list[int]], emb: Tensor, lstm: LstmParams,
                    ) -> Callable[[np.ndarray, int], tuple[Tensor, Tensor]]:
    """Encode each distinct id sequence once, in length-sorted batches of
    ``EVAL_BATCH_SIZE``.

    Returns the cache's one gather: ``gather(seq_index, width)`` gives the
    untracked (states, final) of sequences ``seq_index``, states trimmed
    to ``width``. A row is zero past its length, as ``encode_batch``
    leaves it in a wider batch, so that is its encoding in such a batch.
    """
    index: dict[tuple[int, ...], int] = {}
    row_of = np.array([index.setdefault(tuple(s), len(index)) for s in seqs])
    ids, lens = pad_matrix(list(index))
    states = np.zeros(ids.shape + (lstm.wh.shape[0],), emb.data.dtype)
    final = np.empty((len(index), lstm.wh.shape[0]), emb.data.dtype)
    by_len = np.argsort(lens, kind="stable")
    for rows in np.split(by_len, range(EVAL_BATCH_SIZE, len(by_len), EVAL_BATCH_SIZE)):
        width = int(lens[rows].max())
        k_states, last = encode_batch(ids[rows, :width], lens[rows], emb, lstm)
        final[rows] = last.data
        states[rows, :width] = k_states.data

    def gather(seq_index: np.ndarray, width: int) -> tuple[Tensor, Tensor]:
        picked = row_of[seq_index]
        return Tensor(states[picked, :width]), Tensor(final[picked])
    return gather


def evaluate_probs(model: ClassifierParams | DssmParams, examples: list[Example],
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode mismatch probabilities over a dataset (no rng consumed).

    Examples are scored in batches of ``EVAL_BATCH_SIZE``, in order of query
    length, then title length, so each batch pads to near its own lengths;
    scores and labels come back in input order. The classifier encodes each
    distinct title once per call (``encode_distinct``); a pair batch's
    ``EncodedBatch`` gathers its titles from that cache and encodes its
    queries. No score depends on the padded width, but BLAS may round a row
    differently in a GEMM with another row count, so a float32 score can
    move in its last bits against input-order batches.
    """
    order = np.lexsort(([len(e.item_ids) for e in examples],
                        [len(e.query_ids) for e in examples]))
    if isinstance(model, ClassifierParams):
        titles = encode_distinct([e.item_ids for e in examples], model.emb_t, model.lstm_t)
    scores, labels = [], []
    for start, b in zip(range(0, len(order), EVAL_BATCH_SIZE),
                        batches([examples[i] for i in order], EVAL_BATCH_SIZE)):
        if isinstance(model, ClassifierParams):
            enc = EncodedBatch(
                *titles(order[start:start + len(b)], b.item_ids.shape[1]),
                *encode_batch(b.query_ids, b.query_lens, model.emb_q, model.lstm_q),
                b.item_lens, b.query_lens)
            probs, _ = batch_probs(model, enc)
        else:
            probs = dssm_batch_probs(model, b.item_ids, b.item_lens,
                                     b.query_ids, b.query_lens)
        scores.append(probs.data)
        labels.append(b.labels)
    back = np.argsort(order)   # the inverse permutation
    return np.concatenate(scores)[back], np.concatenate(labels)[back]


def val_pass(model: ClassifierParams | DssmParams, examples: list[Example],
             ) -> Callable[[int], dict]:
    """The ``epoch_fields`` of a phase that scores ``model`` on ``examples``
    after each epoch: ``split``, ``aupr`` and ``f1``, or nothing when there
    are no examples."""
    def fields(epoch: int) -> dict:
        if not examples:
            return {}
        scores, labels = evaluate_probs(model, examples)
        return {"split": "val", "aupr": M.average_precision(scores, labels),
                "f1": M.f1_best(scores, labels)[0]}
    return fields


def fit(named: dict[str, Tensor],
        loss_fn: Callable[[Batch | TripleBatch, int], tuple[Tensor, dict]],
        train_ex: list[Example] | list[TripleExample], cfg: RunConfig, lr: float,
        rng: RunRng, epochs: int, phase: str, epoch_fields: Callable[[int], dict],
        ) -> list[EpochRecord]:
    """Adam on ``named`` at rate ``lr`` over shuffled batches, one record
    per epoch; ``cfg`` gives the batch size and the rate's decay. Each
    step differentiates ``named`` and nothing else.

    ``loss_fn(batch, epoch)`` returns (loss, stats), a stat being a number
    or per-row values; the record holds each stat's mean over all the
    epoch's values, after ``epoch_fields(epoch)`` of the trained epoch. A
    name given twice, ``epoch`` and ``loss`` included, raises ``TypeError``.
    """
    opt = Adam(named, lr)
    records = []
    for epoch in range(epochs):
        if epoch > 0 and epoch % cfg.decay_every == 0:
            opt.decay_lr(cfg.decay_factor)
        losses, stats = [], {}
        for batch in batches(train_ex, cfg.batch_size, rng.shuffle):
            with Tape(named.values()) as tape:
                loss, batch_stats = loss_fn(batch, epoch)
                grads = tape.backward(loss)
            opt.step(grads)
            # dropped here, not when the next step rebinds it: kept alive, the
            # map overlaps the next forward and backward pass (peak RSS)
            del grads
            losses.append(loss.item())
            for key, value in batch_stats.items():
                stats.setdefault(key, []).append(value)
        rec = EpochRecord(epoch=epoch, **epoch_fields(epoch), loss=float(np.mean(losses)),
                          **{k: float(np.mean(np.hstack(v))) for k, v in stats.items()})
        records.append(rec)
        log.info("%s epoch %d: %s", phase, epoch, " ".join(
            f"{k}={v:.4f}" for k, v in rec.to_json().items() if isinstance(v, float)))
    return records

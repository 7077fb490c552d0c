"""End-to-end training objective with the Bernoulli switch.

Per example: draw z ~ Bernoulli(p) and set s = (1-y)z. With s=0 the
example contributes the usual weighted cross-entropy on the real pair;
with s=1 (only possible for matched pairs) the generator's continuous
query representation replaces the encoded query, so the switch selects
one of the two rather than mixing them, and the example contributes the
same loss with proxy label 1. A batch whose draws are all zero reduces
to the plain classifier batch loss, bitwise; ``train.fit`` runs this
loss like any other batch loss.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .classifier import ClassifierParams, batch_probs, classifier_batch_loss, \
    weighted_ce_loss
from .data import Batch
from .rng import RunRng
from .tensor import Tensor
from .ved import VedParams, encode_pair_batch, hgen_forward_batch


def sample_switches(labels: np.ndarray, p: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Vector of s values; one uniform is consumed per example regardless
    of label, keeping the stream aligned across label compositions."""
    z = (rng.random(len(labels)) < p).astype(np.int64)
    return (1 - labels.astype(np.int64)) * z


def _subset(batch: Batch, idx: np.ndarray) -> Batch:
    return Batch(batch.item_ids[idx], batch.item_lens[idx],
                 batch.query_ids[idx], batch.query_lens[idx], batch.labels[idx])


def e2e_batch_loss(clf: ClassifierParams, ved: VedParams, batch: Batch,
                   p: float, beta: float, rng: RunRng,
                   force_switch: int | None = None,
                   latent_eps: np.ndarray | None = None,
                   ) -> tuple[Tensor, np.ndarray]:
    """Training-mode mixed real/generated batch loss; returns (loss, s vector).

    ``force_switch`` pins every draw (testing); matched pairs still obey
    s = (1-y)z. With no s=1 examples this is exactly the classifier batch
    loss on the full batch.
    """
    if force_switch is None:
        s = sample_switches(batch.labels, p, rng.switch)
    else:
        z = np.full(len(batch), int(force_switch), dtype=np.int64)
        s = (1 - batch.labels.astype(np.int64)) * z
    idx1 = np.flatnonzero(s == 1)
    if idx1.size == 0:
        return classifier_batch_loss(clf, batch, beta, rng.dropout), s

    idx0 = np.flatnonzero(s == 0)
    probs_parts, label_parts = [], []
    if idx0.size:
        sub0 = _subset(batch, idx0)
        p0, _ = batch_probs(clf, sub0.item_ids, sub0.item_lens,
                            sub0.query_ids, sub0.query_lens,
                            rng=rng.dropout, training=True)
        probs_parts.append(p0)
        label_parts.append(sub0.labels)

    sub1 = _subset(batch, idx1)
    enc = encode_pair_batch(clf, sub1.item_ids, sub1.item_lens,
                            sub1.query_ids, sub1.query_lens)
    h_gen, gen_final, gen_lens = hgen_forward_batch(
        clf, ved, enc, sub1.query_lens, rng=rng.latent, eps=latent_eps)
    p1, _ = batch_probs(clf, sub1.item_ids, sub1.item_lens,
                        sub1.query_ids, sub1.query_lens,
                        rng=rng.dropout, training=True,
                        h_override=(h_gen, gen_final, gen_lens),
                        k_precomputed=enc.k_states)
    probs_parts.append(p1)
    label_parts.append(np.ones(idx1.size))  # proxy label z = 1

    probs = probs_parts[0] if len(probs_parts) == 1 else T.concat(probs_parts, axis=0)
    labels = np.concatenate(label_parts)
    return weighted_ce_loss(probs, labels, beta), s

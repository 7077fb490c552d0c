"""End-to-end training objective with the Bernoulli switch.

Per example: draw z ~ Bernoulli(p) and set s = (1-y)z. With s=0 the
example contributes the usual weighted cross-entropy on the real pair;
with s=1 (only possible for matched pairs) the generator's continuous
query representation replaces the encoded query, so the switch selects
one of the two rather than mixing them, and the example contributes the
same loss with proxy label 1. A batch whose draws are all zero reduces
to the plain classifier batch loss, bitwise; ``train.fit`` runs this
loss like any other batch loss.

A switched batch is encoded once. The generator reads the s=1 rows' U
and c by row gather, its states take the place of those rows' query
states, and one classifier pass scores the whole batch.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .classifier import ClassifierParams, batch_probs, classifier_batch_loss, \
    encode_batch, weighted_ce_loss
from .data import Batch
from .rng import RunRng
from .tensor import Tensor
from .ved import EncodedPair, VedParams, hgen_forward_batch, pair_memory


def sample_switches(labels: np.ndarray, p: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Vector of s values; one uniform is consumed per example regardless
    of label, keeping the stream aligned across label compositions."""
    z = (rng.random(len(labels)) < p).astype(np.int64)
    return (1 - labels.astype(np.int64)) * z


def e2e_batch_loss(clf: ClassifierParams, ved: VedParams, batch: Batch,
                   p: float, beta: float, rng: RunRng) -> tuple[Tensor, np.ndarray]:
    """Training-mode mixed real/generated batch loss; returns (loss, s vector).

    The switch, the s=1 rows' latent noise and dropout draw from ``rng``;
    p=1 switches every matched pair. With no s=1 examples this is exactly
    the classifier batch loss on the full batch.
    """
    s = sample_switches(batch.labels, p, rng.switch)
    idx1 = np.flatnonzero(s == 1)
    if idx1.size == 0:
        return classifier_batch_loss(clf, batch, beta, rng.dropout), s

    item_lens, query_lens = batch.item_lens, batch.query_lens
    k_states, t_final = encode_batch(batch.item_ids, item_lens, clf.emb_t, clf.lstm_t)
    h_states, q_final = encode_batch(batch.query_ids, query_lens, clf.emb_q, clf.lstm_q)
    enc = pair_memory(k_states, t_final, item_lens, h_states, q_final, query_lens)
    gen_enc = EncodedPair(T.lookup(enc.u_states, idx1, unique=True), enc.u_logmask[idx1],
                          T.lookup(enc.c, idx1, unique=True))
    h_gen, gen_final = hgen_forward_batch(
        clf, ved, gen_enc, query_lens[idx1],
        rng.latent.standard_normal((idx1.size, ved.d_z)))
    # the generated rows take the place of their rows' query encodings
    bsz, width, k = h_states.shape
    short = width - h_gen.shape[1]
    if short:
        h_gen = T.concat([h_gen, T.zeros((idx1.size, short, k))], axis=1)
    order = np.arange(bsz)
    order[idx1] = bsz + np.arange(idx1.size)
    h_mixed = T.lookup(T.concat([h_states, h_gen], axis=0), order, unique=True)
    q_mixed = T.lookup(T.concat([q_final, gen_final], axis=0), order, unique=True)
    probs, _ = batch_probs(clf, batch.item_ids, item_lens, batch.query_ids, query_lens,
                           rng=rng.dropout, h_override=(h_mixed, q_mixed),
                           k_precomputed=k_states)
    labels = np.where(s == 1, 1.0, batch.labels)   # proxy label z = 1
    return weighted_ce_loss(probs, labels, beta), s

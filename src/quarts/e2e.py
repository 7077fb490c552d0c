"""End-to-end training objective with the Bernoulli switch.

Per example: draw z ~ Bernoulli(p) and set s = (1-y)z. With s=0 the
example contributes the usual weighted cross-entropy on the real pair;
with s=1 (only possible for matched pairs) the generator's continuous
query representation replaces the encoded query, so the switch selects
one of the two rather than mixing them, and the example contributes the
same loss with proxy label 1. A batch whose draws are all zero reduces
to the plain classifier batch loss, bitwise; ``train.fit`` runs this
loss like any other, and the s vector it returns is the phase's
``s1_fraction`` stat, averaged over all of an epoch's draws.

Every batch is encoded once into a ``classifier.EncodedBatch``. When
some rows switch, the generator reads their rows of that record and its
states replace them in the record's query half; one classifier pass
scores the whole record. ``ved.hgen_forward_batch`` returns its states at
the record's query width, so they need no padding here.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import tensor as T
from .classifier import ClassifierParams, batch_probs, encode_pair_batch, weighted_ce_loss
from .data import Batch
from .rng import RunRng
from .tensor import Tensor
from .ved import VedParams, hgen_forward_batch


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
    p=1 switches every matched pair. With no s=1 examples nothing is
    spliced, and this is exactly the classifier batch loss.
    """
    s = sample_switches(batch.labels, p, rng.switch)
    idx1 = np.flatnonzero(s == 1)
    enc = encode_pair_batch(clf, batch.item_ids, batch.item_lens, batch.query_ids,
                            batch.query_lens)
    if idx1.size:
        h_gen, gen_final = hgen_forward_batch(
            clf, ved, enc.rows(idx1), rng.latent.standard_normal((idx1.size, ved.d_z)))
        # the generated rows take the place of their rows' query encodings
        order = np.arange(len(s))
        order[idx1] = len(s) + np.arange(idx1.size)
        enc = dataclasses.replace(
            enc, query_states=T.lookup(T.concat([enc.query_states, h_gen], axis=0), order),
            query_final=T.lookup(T.concat([enc.query_final, gen_final], axis=0), order))
    probs, _ = batch_probs(clf, enc, rng.dropout)
    return weighted_ce_loss(probs, np.maximum(s, batch.labels), beta), s   # proxy label 1

"""The unfused per-step compositions the fused ops replaced.

Each function builds its recurrence one step at a time from primitive
tape ops over every row of the padded batch, with 0/1 update masks
freezing state past each row's length. They are slow, but every op in
them is gradient-checked on its own, so the fused ops are held to them:
forward values and gradients must agree at float64 within a relative
1e-10. The fused ops step only live rows and leave their outputs zero
past each row's length, where these references repeat the frozen state
(the decoder reference zeroes its columns too); tests compare real
columns and final states. The free-running decoder feeds back its argmax
under the decode-time masks (``decode_mask``). ``slice_axis`` and
``softmax_rows``, which only these references use, live here with them.
"""
import dataclasses

import numpy as np

from quarts import tensor as T
from quarts import ved as V
from quarts.classifier import batch_probs, encode_pair_batch, weighted_ce_loss
from quarts.data import BOS, EOS, PAD, UNK, pad_mask
from quarts.tensor import Tensor


def slice_axis(a, axis, start, stop):
    """``a[start:stop]`` along ``axis``; backward scatters into zeros."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape = a.shape

    def rule(g):
        z = np.zeros(shape, dtype=g.dtype)
        z[idx] = g
        return (z,)

    return T.record(a.data[idx], (a,), rule)


def softmax_rows(a):
    """Softmax over the last axis; each row sums to 1 within 1e-12."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    return T.record(y, (a,), lambda g: ((g - (g * y).sum(axis=-1, keepdims=True)) * y,))


def lstm_step(p, x, h, c):
    k = p.wh.shape[0]
    gates = T.matmul(x, p.wx) + T.matmul(h, p.wh) + p.b
    i = T.sigmoid(slice_axis(gates, 1, 0, k))
    f = T.sigmoid(slice_axis(gates, 1, k, 2 * k))
    g = T.tanh(slice_axis(gates, 1, 2 * k, 3 * k))
    o = T.sigmoid(slice_axis(gates, 1, 3 * k, 4 * k))
    c2 = f * c + i * g
    return o * T.tanh(c2), c2


def _blend(on, new, old):
    k = new.shape[1]
    m = np.repeat(on.astype(np.float64)[:, None], k, axis=1)
    return Tensor(m) * new + Tensor(1.0 - m) * old


def encode_batch(ids, lens, emb, lstm):
    bsz, width = ids.shape
    k = lstm.wh.shape[0]
    h = Tensor(np.zeros((bsz, k)))
    c = Tensor(np.zeros((bsz, k)))
    cols = []
    for t in range(width):
        h2, c2 = lstm_step(lstm, T.lookup(emb, ids[:, t]), h, c)
        on = t < lens
        h, c = _blend(on, h2, h), _blend(on, c2, c)
        cols.append(T.reshape(h, (bsz, 1, k)))
    return T.concat(cols, axis=1), h


def wbw_attention_batch(k_states, item_lens, h_states, query_lens, attn):
    bsz, m, k = k_states.shape
    n = h_states.shape[1]
    ones_m = Tensor(np.ones((bsz, m, 1)))
    tmask = Tensor(pad_mask(item_lens, m))
    w = T.reshape(attn.w, (k, 1))
    r = Tensor(np.zeros((bsz, k)))
    alphas = []
    for t in range(n):
        h_t = T.reshape(slice_axis(h_states, 1, t, t + 1), (bsz, 1, k))
        r_blk = T.matmul(ones_m, T.reshape(r, (bsz, 1, k)))
        h_blk = T.matmul(ones_m, h_t)
        blend = T.reshape(T.concat([k_states, h_blk, r_blk], axis=2), (bsz * m, 3 * k))
        m_t = T.tanh(T.matmul(blend, attn.w_h))
        a_t = T.tanh(T.reshape(T.matmul(m_t, w), (bsz, m))) * tmask
        mix = T.reshape(T.matmul(T.reshape(a_t, (bsz, 1, m)), k_states), (bsz, k))
        r_new = mix + T.tanh(T.matmul(r, T.transpose_last2(attn.w_r)))
        r = _blend(t < query_lens, r_new, r)
        alphas.append(T.reshape(a_t, (bsz, 1, m)))
    return r, T.concat(alphas, axis=1)


def decode_mask(prev_ids, vocab):
    """Where ``ved._logits`` masks a step's logits: PAD, BOS and UNK, and
    EOS in rows whose input is BOS. ``decode_step`` leaves them unmasked,
    as teacher-forced training reads them."""
    mask = np.zeros((len(prev_ids), vocab), dtype=bool)
    mask[:, [PAD, BOS, UNK]] = True
    mask[prev_ids == BOS, EOS] = True
    return mask


def decode_step(prev_ids, h, c, start, ved, emb_q):
    x = T.concat([T.lookup(emb_q, prev_ids), start.z], axis=1)
    h2, c2 = lstm_step(ved.dec.lstm, x, h, c)
    bsz, k = h2.shape
    u = start.u_states
    scores = T.matmul(T.reshape(T.matmul(h2, ved.dec.w_a), (bsz, 1, k)),
                      T.transpose_last2(u))
    scores = T.reshape(scores, (bsz, u.shape[1]))
    weights = softmax_rows(scores + Tensor(start.u_logmask))
    ctx = T.reshape(T.matmul(T.reshape(weights, (bsz, 1, -1)), u), (bsz, k))
    d_tilde = T.tanh(T.matmul(T.concat([h2, ctx], axis=1), ved.dec.w_c))
    logits = T.matmul(d_tilde, ved.dec.w_v) + ved.dec.b_v
    return logits, d_tilde, h2, c2, weights


def ved_nll(clf, ved, start, batch):
    """Teacher-forced mean NLL of the target queries, one step at a time."""
    bsz, width = batch.target_ids.shape
    h, c = start.h0, Tensor(np.zeros(start.h0.shape))
    nlls = []
    for t in range(width):
        logits, _, h2, c2, _ = decode_step(batch.prev_ids[:, t], h, c, start, ved,
                                           clf.emb_q)
        nll_t = T.scale(T.pick_columns(T.log_softmax_rows(logits), batch.target_ids[:, t]),
                        -1.0)
        on = t < batch.target_lens
        nlls.append(T.reshape(nll_t * Tensor(on.astype(np.float64)), (bsz, 1)))
        h, c = _blend(on, h2, h), _blend(on, c2, c)
    per_example = T.sum_axis(T.concat(nlls, axis=1), axis=1)
    return T.mean_all(per_example * Tensor(1.0 / batch.target_lens))


def hgen_states(clf, ved, start, steps, prev_ids=None):
    """Attentional decoder states under argmax feedback, or reading
    ``prev_ids[:, t]`` at step t when given, zero past ``steps``."""
    bsz, k = start.h0.shape
    h, c = start.h0, Tensor(np.zeros((bsz, k)))
    prev = np.full(bsz, BOS, dtype=np.int64)
    cols = []
    final = Tensor(np.zeros((bsz, k)))
    for t in range(int(steps.max())):
        if prev_ids is not None:
            prev = prev_ids[:, t]
        logits, d_tilde, h2, c2, _ = decode_step(prev, h, c, start, ved, clf.emb_q)
        prev = np.argmax(np.where(decode_mask(prev, logits.shape[1]), -np.inf, logits.data),
                         axis=1)
        on = t < steps
        cols.append(T.reshape(_blend(on, d_tilde, Tensor(np.zeros((bsz, k)))), (bsz, 1, k)))
        final = _blend(on, d_tilde, final)
        h, c = _blend(on, h2, h), _blend(on, c2, c)
    return T.concat(cols, axis=1), final


def e2e_batch_loss(clf, ved, batch, s, beta, latent_eps):
    """The switched loss as two sub-batches, without dropout: the s=0 rows
    scored as one batch; the s=1 rows encoded again, decoded one step at a
    time and scored as another, with proxy label 1."""
    probs, labels = [], []
    idx0, idx1 = np.flatnonzero(s == 0), np.flatnonzero(s == 1)
    if idx0.size:
        p0, _ = batch_probs(clf, encode_pair_batch(
            clf, batch.item_ids[idx0], batch.item_lens[idx0], batch.query_ids[idx0],
            batch.query_lens[idx0]))
        probs.append(p0)
        labels.append(batch.labels[idx0])
    items, item_lens = batch.item_ids[idx1], batch.item_lens[idx1]
    queries, query_lens = batch.query_ids[idx1], batch.query_lens[idx1]
    enc = encode_pair_batch(clf, items, item_lens, queries, query_lens)
    states, final = hgen_states(clf, ved, V.decoder_start(enc, ved, latent_eps), query_lens)
    p1, _ = batch_probs(clf, dataclasses.replace(enc, query_states=states,
                                                 query_final=final))
    probs.append(p1)
    labels.append(np.ones(idx1.size))
    return weighted_ce_loss(T.concat(probs, axis=0), np.concatenate(labels), beta)

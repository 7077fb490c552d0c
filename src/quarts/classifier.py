"""Query-item mismatch classifier.

Pipeline: two independently embedded token sequences -> two LSTM encoders
-> word-by-word attention of the query over the title -> combined
representation -> dense head -> mismatch probability in (0, 1).

Attention scores use tanh, so rows are not a probability simplex and may
be negative; heatmap export min-max normalizes per row for display only.
Internally sequences run in row-major batches: states are (B, k) rows and
title/query encodings are (B, T, k) stacks.

Both recurrences are fused tape ops: ``lstm_scan`` (the two encoders)
and ``wbw_attention_batch`` each run their whole loop in plain numpy and
record once, with a hand-written backward pass through time. Input
projections that do not depend on the recurrent state (``x @ W_x``, and
the title and query thirds of the attention's ``W_h``) run once, outside
the loop, and only on real positions. Every recurrence, here and in the
generator's decoder, steps its rows on one ``Ragged`` layout: step t runs
only on the rows still live, so no padded step runs, and a row's outputs
are zero past its true length, so padding can neither leak into results
nor change them. The LSTM cell and its backward through time
(``lstm_bptt``) are shared with the decoder scan in ``ved``.

A batch's shared-encoder output is one ``EncodedBatch`` record, built by
``encode_pair_batch`` or gathered from an encode-once cache
(``train.encode_distinct``). ``batch_probs`` scores it, the generator
reads it (``ved.decoder_start``), and ``e2e`` swaps its query half.

Parameter names come from the model's dataclass fields (``Params``): the
classifier's are ``clf.<field path>``, the pooled baseline's
``dssm.<field path>``, so adding a field names, trains, saves and loads it.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .data import Batch, PAD, pad_mask, pad_matrix
from .tensor import Tensor

CE_CLAMP_F64 = 1e-12
CE_CLAMP_F32 = 1e-7  # 1 - 1e-12 is not representable in float32


class Params:
    """A dataclass of parameters, named by walking its fields.

    A ``Tensor`` field is a parameter and a ``Params`` field a subtree; any
    other field is a setting (``HeadParams.dropout``). ``named()`` gives
    each parameter its dotted path under the root's ``PREFIX`` in field
    order, which is the order and the names checkpoints store.
    """

    PREFIX = ""

    def named(self, prefix: str | None = None) -> dict[str, Tensor]:
        prefix = self.PREFIX if prefix is None else prefix
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[f"{prefix}.{f.name}"] = value
            elif isinstance(value, Params):
                out.update(value.named(f"{prefix}.{f.name}"))
        return out


@dataclass
class LstmParams(Params):
    """Gate layout along the 4k axis: input, forget, cell, output."""
    wx: Tensor  # (d_in, 4k)
    wh: Tensor  # (k, 4k)
    b: Tensor   # (4k,)


@dataclass
class AttentionParams(Params):
    w_h: Tensor  # (3k, k)
    w: Tensor    # (k,)
    w_r: Tensor  # (k, k)
    w_x: Tensor  # (k, 3k)


@dataclass
class HeadParams(Params):
    w1: Tensor   # (k, k)
    b1: Tensor   # (k,)
    w2: Tensor   # (k, 1)
    b2: Tensor   # (1,)
    dropout: float = 0.1


@dataclass
class ClassifierParams(Params):
    PREFIX = "clf"
    emb_q: Tensor  # (V_q, d), row 0 (PAD) initialized to zero
    emb_t: Tensor  # (V_t, d)
    lstm_q: LstmParams
    lstm_t: LstmParams
    attn: AttentionParams
    head: HeadParams


def init_uniform(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.uniform(-0.08, 0.08, size=shape))


def init_lstm(rng: np.random.Generator, d_in: int, k: int) -> LstmParams:
    b = np.zeros(4 * k)
    b[k:2 * k] = 1.0  # forget gate opens by default
    return LstmParams(init_uniform(rng, d_in, 4 * k), init_uniform(rng, k, 4 * k), Tensor(b))


def init_embedding(rng: np.random.Generator, vocab_size: int, dim: int) -> Tensor:
    w = rng.uniform(-0.08, 0.08, size=(vocab_size, dim))
    w[PAD] = 0.0
    return Tensor(w)


def init_classifier(rng: np.random.Generator, vocab_q: int, vocab_t: int,
                    embed_dim: int, k: int, dropout: float = 0.1) -> ClassifierParams:
    return ClassifierParams(
        emb_q=init_embedding(rng, vocab_q, embed_dim),
        emb_t=init_embedding(rng, vocab_t, embed_dim),
        lstm_q=init_lstm(rng, embed_dim, k),
        lstm_t=init_lstm(rng, embed_dim, k),
        attn=AttentionParams(init_uniform(rng, 3 * k, k), init_uniform(rng, k),
                             init_uniform(rng, k, k), init_uniform(rng, k, 3 * k)),
        head=HeadParams(init_uniform(rng, k, k), Tensor(np.zeros(k)), init_uniform(rng, k, 1),
                        Tensor(np.zeros(1)), dropout=dropout),
    )


def gate_affine(k: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(scale, shift) with act = tanh(scale * pre) * scale + shift.

    The sigmoid gates (input, forget, output) use sigmoid(x) =
    0.5 * tanh(x / 2) + 0.5 and the cell gate is plain tanh, so one tanh
    call activates all four blocks.
    """
    scale = np.full(4 * k, 0.5, dtype=dtype)
    shift = np.full(4 * k, 0.5, dtype=dtype)
    scale[2 * k:3 * k] = 1.0
    shift[2 * k:3 * k] = 0.0
    return scale, shift


def lstm_cell(pre: np.ndarray, h: np.ndarray, c: np.ndarray, wh: np.ndarray,
              scale: np.ndarray, shift: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM step in plain numpy, shared by every fused recurrence.

    ``pre`` (B, 4k) is the step's input projection with the bias added.
    Returns (gate activations, new c, new h).
    """
    k = h.shape[1]
    act = np.tanh((pre + h @ wh) * scale)
    act *= scale
    act += shift
    c_new = act[:, k:2 * k] * c + act[:, :k] * act[:, 2 * k:3 * k]
    return act, c_new, act[:, 3 * k:] * np.tanh(c_new)


class Ragged:
    """Rows of lengths ``lens`` laid out for a recurrence that steps only
    live rows; the one place a scan's row order and packed slots are built.

    Rows are sorted once, longest first with ties in input order, so the
    rows live at step t are the first ``n_live[t]`` sorted rows. A packed
    array holds one slot per real step, step-major: step t's live rows
    fill slots ``start[t]:start[t + 1]``, slot j is input row ``rows[j]``
    at step ``steps[j]``, and ``last[i]`` is row i's slot at its last step.
    """

    def __init__(self, lens: np.ndarray, width: int):
        self.width = width
        self.order = np.argsort(-lens, kind="stable")
        live = pad_mask(lens[self.order], int(lens.max(initial=0))).T   # (step, sorted row)
        self.n_live = live.sum(axis=1)
        self.start = np.concatenate([[0], np.cumsum(self.n_live)])
        self.steps, sorted_row = np.nonzero(live)
        self.rows = self.order[sorted_row]
        self.last = np.empty(len(lens), np.int64)
        self.last[self.order] = self.start[lens[self.order] - 1] + np.arange(len(lens))

    def span(self, t: int) -> slice:
        return slice(self.start[t], self.start[t + 1])

    def padded(self, x: np.ndarray) -> np.ndarray:
        """Packed (N, ...) slots as (B, width, ...) in input order, zero
        past each row's length."""
        out = np.zeros((len(self.order), self.width) + x.shape[1:], x.dtype)
        out[self.rows, self.steps] = x
        return out


def lstm_bptt(lay: Ragged, g_h: np.ndarray, acts: np.ndarray, cells: np.ndarray,
              hs: np.ndarray, h0: np.ndarray, wh: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through time of an LSTM run on ``lay`` from (h0, zero c);
    the one LSTM BPTT, shared by the encoders and the decoder.

    ``acts`` (N, 4k), ``cells`` and ``hs`` (N, k) are each packed slot's
    gate activations, c and h, and ``g_h`` the gradient reaching each
    slot's h from outside the recurrence. Step t runs on its live prefix,
    so a row's dh and dc wait untouched until its last step. Step t
    computes its gate derivatives and tanh(c) from its own slots, with the
    forward's ufuncs and bits, and then overwrites its slots of ``acts``
    with their gate gradients, so no other (N, 4k) array is allocated.
    Returns (gate pre-activation gradients (N, 4k), packed, which is
    ``acts``; the gradient of h0 (B, k); the gradient of W_h).
    """
    bsz, k = h0.shape
    dt, start = acts.dtype, lay.start
    is_sig = gate_affine(k, dt)[1] * 2   # 1 on the sigmoid blocks, 0 on the cell block
    is_tanh = 1 - is_sig
    dact_buf = np.empty((bsz, 4 * k), dt)
    dh, dc = np.zeros((bsz, k), dt), np.zeros((bsz, k), dt)
    for t in reversed(range(len(lay.n_live))):
        n, s = lay.n_live[t], lay.span(t)
        g, tc = acts[s], np.tanh(cells[s])   # g holds the activations until overwritten
        # d act / d pre: y(1 - y) on the sigmoid blocks, 1 - y^2 on the cell block
        dact = np.subtract(is_sig, g, out=dact_buf[:n])
        np.add(np.multiply(dact, g, out=dact), is_tanh, out=dact)
        c_prev = cells[start[t - 1]:start[t - 1] + n] if t else np.zeros((n, k), dt)
        dh_t = dh[:n] + g_h[s]
        dc_t = dc[:n] + dh_t * g[:, 3 * k:] * (1 - tc * tc)
        dc[:n] = dc_t * g[:, k:2 * k]
        g_cell = dc_t * g[:, :k]   # each of the input and cell blocks reads the other
        np.multiply(dc_t, g[:, 2 * k:3 * k], out=g[:, :k])
        np.multiply(dc_t, c_prev, out=g[:, k:2 * k])
        g[:, 2 * k:3 * k] = g_cell
        np.multiply(dh_t, tc, out=g[:, 3 * k:])
        g *= dact
        dh[:n] = g @ wh.T
    # each slot's previous h: h0 at step 0, then the prefix of the step before
    h_prev = np.concatenate([h0[lay.order]] + [
        hs[start[t - 1]:start[t - 1] + n] for t, n in enumerate(lay.n_live) if t])
    g_h0 = np.empty_like(dh)
    g_h0[lay.order] = dh
    return acts, g_h0, h_prev.T @ acts


def lstm_scan(xw: Tensor, wh: Tensor, b: Tensor, lay: Ragged) -> tuple[Tensor, Tensor]:
    """An LSTM recurrence from a zero state over ``lay``'s rows as one tape
    record with a hand-written BPTT (``lstm_bptt``); the encoders' recurrence.

    ``xw`` (N, 4k) holds the input projections ``x @ W_x`` of the N real
    steps in ``lay``'s packed order, so the hoisted GEMM never runs on
    padding. Step t runs only on the rows still live. Returns (states
    (B, width, k), zero past each row's length; final h (B, k), the state
    at each row's last real step). The record keeps each slot's gate
    activations, c and h for ``lstm_bptt``, which recomputes tanh(c).
    """
    k = wh.shape[0]
    dt = xw.data.dtype
    w = wh.data
    pre = xw.data + b.data
    scale, shift = gate_affine(k, dt)
    grad = T.needs_grad(xw, wh, b)
    hs = np.empty((len(pre), k), dt)
    if grad:
        acts, cells = np.empty_like(pre), np.empty_like(hs)
    h = c = np.zeros((len(lay.order), k), dt)
    for t, n in enumerate(lay.n_live):
        s = lay.span(t)
        act, c, h = lstm_cell(pre[s], h[:n], c[:n], w, scale, shift)
        hs[s] = h
        if grad:
            acts[s], cells[s] = act, c

    def rule(grads):
        g_states, g_final = grads
        g_h = np.zeros_like(hs) if g_states is None else g_states[lay.rows, lay.steps]
        if g_final is not None:
            g_h[lay.last] += g_final
        gates, _, g_wh = lstm_bptt(lay, g_h, acts, cells, hs,
                                   np.zeros((len(lay.order), k), dt), w)
        return gates, g_wh, gates.sum(axis=0)

    return T.record((lay.padded(hs), hs[lay.last]), (xw, wh, b), rule if grad else None)


def encode_batch(ids: np.ndarray, lens: np.ndarray, emb: Tensor,
                 lstm: LstmParams) -> tuple[Tensor, Tensor]:
    """Run the LSTM over a padded id matrix.

    Three tape records: one lookup of the real tokens, gathered straight
    into ``Ragged`` packed order, one GEMM with W_x over all of them, one
    ``lstm_scan``. Returns (states, final): states is (B, T, k) with one
    row of columns per step, zero past each example's true length, and
    ``final`` is the hidden state at the true last token.
    """
    if lens.size and lens.min() < 1:
        raise ValueError("every sequence needs at least one token")
    lay = Ragged(lens, ids.shape[1])
    xw = T.matmul(T.lookup(emb, ids[lay.rows, lay.steps]), lstm.wx)
    return lstm_scan(xw, lstm.wh, lstm.b, lay)


def attention_step(proj_k: np.ndarray, proj_q: np.ndarray, r: np.ndarray,
                   ks: np.ndarray, tmf: np.ndarray, attn: AttentionParams,
                   ) -> tuple[np.ndarray, ...]:
    """One word-by-word attention step over the live rows in plain numpy.
    Returns (blend, tanh of the scores, scores, carry, new summary)."""
    w, w_s = attn.w.data, attn.w_h.data[2 * r.shape[1]:]
    blend = np.tanh(proj_k + (proj_q + r @ w_s)[:, None, :])
    ts = np.tanh((blend * w).sum(axis=-1))
    a_t = ts * tmf
    carry = np.tanh(r @ attn.w_r.data.T)
    return blend, ts, a_t, carry, np.einsum("nm,nmk->nk", a_t, ks) + carry


def wbw_attention_batch(k_states: Tensor, item_lens: np.ndarray,
                        h_states: Tensor, query_lens: np.ndarray,
                        attn: AttentionParams) -> tuple[Tensor, Tensor]:
    """Word-by-word attention of the query over the title, batched.

    k_states (B, m, k) and h_states (B, n, k) are encoder stacks of titles
    and queries with true lengths ``item_lens`` and ``query_lens``. For each
    query step t: scores over title words from tanh of an additive blend
    of the title states, the current query state, and the previous summary
    r_{t-1} (r_0 = 0); the new summary is the score-weighted title mix
    plus a gated carry of r_{t-1}. Returns the summary (B, k) at each true
    query length, and the (B, n, m) score stack, zero past each true query
    length and at title padding.

    One tape record with a hand-written BPTT. The title and query
    projections through W_h run once, outside the step loop, and only on
    real positions; step t runs only on the rows whose query is still live
    (``Ragged``), so no result depends on the padded widths. The score
    stack is returned untracked: nothing differentiates through it.
    """
    bsz, m, k = k_states.shape
    dt = k_states.data.dtype
    ks, hs = k_states.data, h_states.data
    w_h, w, w_r = attn.w_h.data, attn.w.data, attn.w_r.data
    w_k, w_q, w_s = w_h[:k], w_h[k:2 * k], w_h[2 * k:]
    lay = Ragged(query_lens, h_states.shape[1])
    tmask = pad_mask(item_lens, m)
    ks_o, tmask_o = ks[lay.order], tmask[lay.order]   # title side in sorted rows
    tmf = tmask_o.astype(dt)
    proj_k = np.zeros((bsz, m, k), dt)
    proj_k[tmask_o] = ks_o[tmask_o] @ w_k
    hq = hs[lay.rows, lay.steps]   # the real query states, packed
    proj_q = hq @ w_q
    grad = T.needs_grad(k_states, h_states, attn.w_h, attn.w, attn.w_r)
    slots = len(hq)
    rs, alphas = np.empty((slots, k), dt), np.empty((slots, m), dt)
    if grad:
        r_prev, carries = np.empty((slots, k), dt), np.empty((slots, k), dt)
        blends, tanh_s = np.empty((slots, m, k), dt), np.empty((slots, m), dt)
    r = np.zeros((bsz, k), dt)
    for t, n in enumerate(lay.n_live):
        s = lay.span(t)
        blend, ts, alphas[s], carry, r_new = attention_step(
            proj_k[:n], proj_q[s], r[:n], ks_o[:n], tmf[:n], attn)
        if grad:
            r_prev[s], blends[s], tanh_s[s], carries[s] = r[:n], blend, ts, carry
        rs[s] = r = r_new
    alpha = lay.padded(alphas)

    def rule(g_r):
        g_r = g_r[lay.order]   # each row's gradient waits until its last step
        g_on, g_carry = np.empty((slots, k), dt), np.empty((slots, k), dt)
        g_score, g_proj_q = np.empty((slots, m), dt), np.empty((slots, k), dt)
        g_proj_k = np.zeros((bsz, m, k), dt)
        for t in reversed(range(len(lay.n_live))):
            n, s = lay.n_live[t], lay.span(t)
            g_on[s] = g = g_r[:n]
            g_carry[s] = gc = g * (1 - carries[s] * carries[s])
            g_a = (ks_o[:n] * g[:, None, :]).sum(axis=-1)
            g_score[s] = gs = g_a * tmf[:n] * (1 - tanh_s[s] * tanh_s[s])
            g_blend = gs[:, :, None] * w * (1 - blends[s] * blends[s])
            g_proj_k[:n] += g_blend
            g_proj_q[s] = g_row = g_blend.sum(axis=1)
            g_r[:n] = gc @ w_r + g_row @ w_s.T
        # the title mix over all steps: d/dK of sum_t a_t K = sum_t a_t^T g_t
        g_ks = np.matmul(alpha.transpose(0, 2, 1), lay.padded(g_on))
        # back to input order, then the real positions only
        g_proj_k = g_proj_k[np.argsort(lay.order)][tmask]
        g_ks[tmask] += g_proj_k @ w_k.T
        g_w_h = np.concatenate([ks[tmask].T @ g_proj_k, hq.T @ g_proj_q,
                                r_prev.T @ g_proj_q])
        g_w = g_score.reshape(-1) @ blends.reshape(-1, k)
        return g_ks, lay.padded(g_proj_q @ w_q.T), g_w_h, g_w, g_carry.T @ r_prev

    inputs = (k_states, h_states, attn.w_h, attn.w, attn.w_r)
    return T.record(rs[lay.last], inputs, rule if grad else None), Tensor(alpha)


def combine(r_n: Tensor, q_n: Tensor, w_x: Tensor) -> Tensor:
    """h* = tanh(W_x [r; q; |r - q|]) over (B, k) rows of r and q; the
    elementwise-product block is deliberately absent."""
    z = T.concat([r_n, q_n, T.absval(T.sub(r_n, q_n))], axis=1)
    return T.tanh(T.matmul(z, T.transpose_last2(w_x)))


def head_logit(h_star: Tensor, head: HeadParams,
               rng: np.random.Generator | None) -> Tensor:
    h = h_star if rng is None else T.dropout(h_star, head.dropout, rng)
    a1 = T.tanh(T.matmul(h, head.w1) + head.b1)
    return T.matmul(a1, head.w2) + head.b2


@dataclass
class EncodedBatch:
    """(title, query) pairs through the shared encoder; states are zero
    past each row's length."""
    title_states: Tensor   # (B, m, k)
    title_final: Tensor    # (B, k)
    query_states: Tensor   # (B, n, k)
    query_final: Tensor    # (B, k)
    item_lens: np.ndarray
    query_lens: np.ndarray

    def rows(self, index: np.ndarray) -> "EncodedBatch":
        """Rows ``index``, none twice, gathered as one tape record. The
        record keeps the parts' shapes and dtypes, not the parts."""
        parts = (self.title_states, self.title_final, self.query_states, self.query_final)
        layouts = [(p.shape, p.data.dtype) for p in parts]

        def rule(grads):
            out = [np.zeros(shape, dt) for shape, dt in layouts]
            for z, g in zip(out, grads):
                z[index] = 0.0 if g is None else g
            return out

        picked = T.record(tuple(p.data[index] for p in parts), parts, rule)
        return EncodedBatch(*picked, self.item_lens[index], self.query_lens[index])


def encode_pair_batch(clf: ClassifierParams, item_ids: np.ndarray, item_lens: np.ndarray,
                      query_ids: np.ndarray, query_lens: np.ndarray) -> EncodedBatch:
    return EncodedBatch(*encode_batch(item_ids, item_lens, clf.emb_t, clf.lstm_t),
                        *encode_batch(query_ids, query_lens, clf.emb_q, clf.lstm_q),
                        item_lens, query_lens)


def batch_probs(params: ClassifierParams, enc: EncodedBatch,
                rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
    """Mismatch probabilities of an encoded batch; returns (probs (B,), alpha).

    Dropout draws from ``rng`` when one is given (training).
    """
    r_n, alpha = wbw_attention_batch(enc.title_states, enc.item_lens, enc.query_states,
                                     enc.query_lens, params.attn)
    h_star = combine(r_n, enc.query_final, params.attn.w_x)
    logit = head_logit(h_star, params.head, rng)
    return T.sigmoid(T.reshape(logit, (-1,))), alpha


def weighted_ce_loss(probs: Tensor, labels: np.ndarray, beta: float = 5.0) -> Tensor:
    """Mean over the batch of -[beta*y*log(f) + (1-y)*log(1-f)].

    Positives (mismatches) are up-weighted by beta; probabilities are
    clamped away from 0 and 1 before the logs.
    """
    eps = CE_CLAMP_F64 if T.get_default_dtype() is np.float64 else CE_CLAMP_F32
    f = T.clamp(probs, eps, 1.0 - eps)
    y = np.asarray(labels, dtype=np.float64)
    pos = Tensor(beta * y) * T.log(f)
    negt = Tensor(1.0 - y) * T.log(T.sub(1.0, f))
    return T.scale(T.mean_all(pos + negt), -1.0)


def classifier_batch_loss(params: ClassifierParams, batch: Batch, beta: float,
                          rng: np.random.Generator) -> Tensor:
    """Training-mode weighted cross-entropy; dropout draws from ``rng``."""
    enc = encode_pair_batch(params, batch.item_ids, batch.item_lens, batch.query_ids,
                            batch.query_lens)
    probs, _ = batch_probs(params, enc, rng)
    return weighted_ce_loss(probs, batch.labels, beta)


# --- pooled-embedding dense baseline --------------------------------------

@dataclass
class DssmParams(Params):
    PREFIX = "dssm"
    emb_q: Tensor
    emb_t: Tensor
    w1: Tensor  # (2d, k)
    b1: Tensor
    w2: Tensor  # (k, 1)
    b2: Tensor


def init_dssm(rng: np.random.Generator, vocab_q: int, vocab_t: int,
              embed_dim: int, k: int) -> DssmParams:
    return DssmParams(
        emb_q=init_embedding(rng, vocab_q, embed_dim),
        emb_t=init_embedding(rng, vocab_t, embed_dim),
        w1=init_uniform(rng, 2 * embed_dim, k),
        b1=Tensor(np.zeros(k)),
        w2=init_uniform(rng, k, 1),
        b2=Tensor(np.zeros(1)),
    )


def _mean_pool(emb: Tensor, ids: np.ndarray, lens: np.ndarray) -> Tensor:
    bsz, width = ids.shape
    flat = T.lookup(emb, ids.reshape(-1))
    stack = T.reshape(flat, (bsz, width, emb.shape[1]))
    w = pad_mask(lens, width) / lens[:, None]
    pooled = T.matmul(T.reshape(Tensor(w), (bsz, 1, width)), stack)
    return T.reshape(pooled, (bsz, emb.shape[1]))


def dssm_batch_probs(params: DssmParams, item_ids, item_lens, query_ids,
                     query_lens) -> Tensor:
    """Word-order-blind baseline: pooled embeddings through dense layers."""
    pq = _mean_pool(params.emb_q, query_ids, query_lens)
    pt = _mean_pool(params.emb_t, item_ids, item_lens)
    z = T.concat([pq, pt], axis=1)
    a1 = T.tanh(T.matmul(z, params.w1) + params.b1)
    logit = T.matmul(a1, params.w2) + params.b2
    return T.sigmoid(T.reshape(logit, (-1,)))


def dssm_batch_loss(params: DssmParams, batch: Batch, beta: float) -> Tensor:
    probs = dssm_batch_probs(params, batch.item_ids, batch.item_lens,
                             batch.query_ids, batch.query_lens)
    return weighted_ce_loss(probs, batch.labels, beta)


# --- attention heatmap export ---------------------------------------------

def attention_heatmap(item_ids: list[int], query_ids: list[int],
                      params: ClassifierParams) -> np.ndarray:
    """Raw (n, m) attention scores for one pair, rows = query words."""
    _, alpha = batch_probs(params, encode_pair_batch(
        params, *pad_matrix([item_ids]), *pad_matrix([query_ids])))
    return np.array(alpha.data[0], dtype=np.float64)


def normalize_heatmap(alpha: np.ndarray) -> np.ndarray:
    """Min-max normalize each row to [0, 1]; a row of equal entries becomes 1.0."""
    out = np.empty_like(alpha, dtype=np.float64)
    for i, row in enumerate(alpha):
        lo, hi = row.min(), row.max()
        out[i] = 1.0 if hi == lo else (row - lo) / (hi - lo)
    return out


def heatmap_text(norm: np.ndarray, query_tokens: list[str],
                 title_tokens: list[str]) -> str:
    lines = ["\t" + "\t".join(title_tokens)]
    for tok, row in zip(query_tokens, norm):
        lines.append(tok + "\t" + "\t".join(f"{v:.3f}" for v in row))
    return "\n".join(lines) + "\n"

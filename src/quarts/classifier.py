"""Query-item mismatch classifier.

Pipeline: two independently embedded token sequences -> two LSTM encoders
-> word-by-word attention of the query over the title -> combined
representation -> dense head -> mismatch probability in (0, 1).

Attention scores use tanh, so rows are not a probability simplex and may
be negative; heatmap export min-max normalizes per row for display only.
Internally sequences run in row-major batches: states are (B, k) rows and
title/query encodings are (B, T, k) stacks, with padded positions frozen
by 0/1 update masks so they cannot leak into downstream results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Batch, PAD, pad_mask
from .tensor import Tensor

CE_CLAMP_F64 = 1e-12
CE_CLAMP_F32 = 1e-7  # 1 - 1e-12 is not representable in float32


@dataclass
class LstmParams:
    """Gate layout along the 4k axis: input, forget, cell, output."""
    wx: Tensor  # (d_in, 4k)
    wh: Tensor  # (k, 4k)
    b: Tensor   # (4k,)

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[0]


@dataclass
class AttentionParams:
    w_h: Tensor  # (3k, k)
    w: Tensor    # (k,)
    w_r: Tensor  # (k, k)
    w_x: Tensor  # (k, 3k)


@dataclass
class HeadParams:
    w1: Tensor   # (k, k)
    b1: Tensor   # (k,)
    w2: Tensor   # (k, 1)
    b2: Tensor   # (1,)
    dropout: float = 0.1


@dataclass
class ClassifierParams:
    emb_q: Tensor  # (V_q, d), row 0 (PAD) frozen at zero
    emb_t: Tensor  # (V_t, d)
    lstm_q: LstmParams
    lstm_t: LstmParams
    attn: AttentionParams
    head: HeadParams

    @property
    def hidden_size(self) -> int:
        return self.lstm_q.hidden_size

    def named(self, prefix: str = "clf") -> dict[str, Tensor]:
        out = {f"{prefix}.emb_q": self.emb_q, f"{prefix}.emb_t": self.emb_t}
        for side, p in (("q", self.lstm_q), ("t", self.lstm_t)):
            out[f"{prefix}.lstm_{side}.wx"] = p.wx
            out[f"{prefix}.lstm_{side}.wh"] = p.wh
            out[f"{prefix}.lstm_{side}.b"] = p.b
        a, h = self.attn, self.head
        out.update({f"{prefix}.attn.w_h": a.w_h, f"{prefix}.attn.w": a.w,
                    f"{prefix}.attn.w_r": a.w_r, f"{prefix}.attn.w_x": a.w_x,
                    f"{prefix}.head.w1": h.w1, f"{prefix}.head.b1": h.b1,
                    f"{prefix}.head.w2": h.w2, f"{prefix}.head.b2": h.b2})
        return out


def _uniform(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.uniform(-0.08, 0.08, size=shape), requires_grad=True)


def init_lstm(rng: np.random.Generator, d_in: int, k: int) -> LstmParams:
    b = np.zeros(4 * k)
    b[k:2 * k] = 1.0  # forget gate opens by default
    return LstmParams(_uniform(rng, d_in, 4 * k), _uniform(rng, k, 4 * k),
                      Tensor(b, requires_grad=True))


def init_embedding(rng: np.random.Generator, vocab_size: int, dim: int) -> Tensor:
    w = rng.uniform(-0.08, 0.08, size=(vocab_size, dim))
    w[PAD] = 0.0
    return Tensor(w, requires_grad=True)


def init_classifier(rng: np.random.Generator, vocab_q: int, vocab_t: int,
                    embed_dim: int, k: int, dropout: float = 0.1) -> ClassifierParams:
    return ClassifierParams(
        emb_q=init_embedding(rng, vocab_q, embed_dim),
        emb_t=init_embedding(rng, vocab_t, embed_dim),
        lstm_q=init_lstm(rng, embed_dim, k),
        lstm_t=init_lstm(rng, embed_dim, k),
        attn=AttentionParams(_uniform(rng, 3 * k, k), _uniform(rng, k),
                             _uniform(rng, k, k), _uniform(rng, k, 3 * k)),
        head=HeadParams(_uniform(rng, k, k), Tensor(np.zeros(k), requires_grad=True),
                        _uniform(rng, k, 1), Tensor(np.zeros(1), requires_grad=True),
                        dropout=dropout),
    )


def lstm_step(p: LstmParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    k = p.hidden_size
    gates = T.matmul(x, p.wx) + T.matmul(h, p.wh) + p.b
    i = T.sigmoid(T.slice_axis(gates, 1, 0, k))
    f = T.sigmoid(T.slice_axis(gates, 1, k, 2 * k))
    g = T.tanh(T.slice_axis(gates, 1, 2 * k, 3 * k))
    o = T.sigmoid(T.slice_axis(gates, 1, 3 * k, 4 * k))
    c2 = f * c + i * g
    return o * T.tanh(c2), c2


def _step_masks(lens: np.ndarray, width: int, k: int) -> list[np.ndarray]:
    """Per-step (B, k) update masks: 1 for real positions, 0 past true length."""
    return [np.repeat((t < lens).astype(np.float64)[:, None], k, axis=1)
            for t in range(width)]


def encode_batch(ids: np.ndarray, lens: np.ndarray, emb: Tensor,
                 lstm: LstmParams) -> tuple[Tensor, Tensor]:
    """Run the LSTM over a padded id matrix.

    Returns (states, final): states is (B, T, k) with one row of columns
    per step; state updates are frozen past each example's true length,
    so ``final`` is exactly the hidden state at the true last token.
    """
    bsz, width = ids.shape
    k = lstm.hidden_size
    h = T.zeros((bsz, k))
    c = T.zeros((bsz, k))
    cols = []
    for t, m in enumerate(_step_masks(lens, width, k)):
        x = T.lookup(emb, ids[:, t])
        h2, c2 = lstm_step(lstm, x, h, c)
        mk = T.constant(m)
        inv = T.constant(1.0 - m)
        h = mk * h2 + inv * h
        c = mk * c2 + inv * c
        cols.append(T.reshape(h, (bsz, 1, k)))
    return T.concat(cols, axis=1), h


def encode(ids: list[int], emb: Tensor, lstm: LstmParams,
           true_len: int | None = None) -> Tensor:
    """Single-sequence encoder output as a (k, len) matrix of hidden states."""
    if true_len is None:
        true_len = len(ids)
    if true_len < 1:
        raise ValueError("encode requires at least one token")
    mat = np.asarray([ids], dtype=np.int64)
    states, _ = encode_batch(mat, np.array([true_len]), emb, lstm)
    cols = T.slice_axis(states, 1, 0, true_len)
    return T.transpose_last2(T.reshape(cols, (true_len, lstm.hidden_size)))


def wbw_attention_batch(k_states: Tensor, title_mask: np.ndarray,
                        h_states: Tensor, query_lens: np.ndarray,
                        attn: AttentionParams) -> tuple[Tensor, Tensor]:
    """Word-by-word attention of the query over the title, batched.

    k_states (B, m, k) and h_states (B, n, k) are encoder stacks. For each
    query step t: scores over title words from tanh of an additive blend
    of the title states, the current query state, and the previous summary
    r_{t-1} (r_0 = 0); the new summary is the score-weighted title mix
    plus a gated carry of r_{t-1}. Returns the final summary (B, k),
    frozen at each true query length, and the (B, n, m) score stack.
    """
    bsz, m, k = k_states.shape
    n = h_states.shape[1]
    ones_m = T.constant(np.ones((m, 1)))
    tmask = T.constant(title_mask)
    r = T.zeros((bsz, k))
    alphas = []
    for t in range(n):
        h_t = T.reshape(T.slice_axis(h_states, 1, t, t + 1), (bsz, 1, k))
        r_blk = T.matmul(ones_m, T.reshape(r, (bsz, 1, k)))
        h_blk = T.matmul(ones_m, h_t)
        m_t = T.tanh(T.matmul(T.concat([k_states, h_blk, r_blk], axis=2), attn.w_h))
        a_t = T.tanh(T.matmul(m_t, attn.w)) * tmask
        mix = T.reshape(T.matmul(T.reshape(a_t, (bsz, 1, m)), k_states), (bsz, k))
        r_new = mix + T.tanh(T.matmul(r, T.transpose_last2(attn.w_r)))
        step_on = np.repeat((t < query_lens).astype(np.float64)[:, None], k, 1)
        r = T.constant(step_on) * r_new + T.constant(1.0 - step_on) * r
        alphas.append(T.reshape(a_t, (bsz, 1, m)))
    return r, T.concat(alphas, axis=1)


def wbw_attention(k_mat: Tensor, h_mat: Tensor,
                  attn: AttentionParams) -> tuple[Tensor, Tensor]:
    """Single-pair attention over (k, m) title and (k, n) query matrices.

    Returns (r_n, alpha) with alpha of shape (n, m).
    """
    k, m = k_mat.shape
    n = h_mat.shape[1]
    ks = T.reshape(T.transpose_last2(k_mat), (1, m, k))
    hs = T.reshape(T.transpose_last2(h_mat), (1, n, k))
    r, alpha = wbw_attention_batch(ks, np.ones((1, m)), hs, np.array([n]), attn)
    return T.reshape(r, (k,)), T.reshape(alpha, (n, m))


def combine(r_n: Tensor, q_n: Tensor, w_x: Tensor) -> Tensor:
    """h* = tanh(W_x [r; q; |r - q|]); the elementwise-product block is
    deliberately absent."""
    vec = r_n.ndim == 1
    r2 = T.reshape(r_n, (1, -1)) if vec else r_n
    q2 = T.reshape(q_n, (1, -1)) if vec else q_n
    z = T.concat([r2, q2, T.absval(T.sub(r2, q2))], axis=1)
    h = T.tanh(T.matmul(z, T.transpose_last2(w_x)))
    return T.reshape(h, (-1,)) if vec else h


def head_logit(h_star: Tensor, head: HeadParams, rng: np.random.Generator | None,
               training: bool) -> Tensor:
    h = T.dropout(h_star, head.dropout, rng, training) if training else h_star
    a1 = T.tanh(T.matmul(h, head.w1) + head.b1)
    return T.matmul(a1, head.w2) + head.b2


def batch_probs(params: ClassifierParams, item_ids: np.ndarray, item_lens: np.ndarray,
                query_ids: np.ndarray, query_lens: np.ndarray,
                rng: np.random.Generator | None = None, training: bool = False,
                h_override: tuple[Tensor, Tensor, np.ndarray] | None = None,
                k_precomputed: Tensor | None = None,
                ) -> tuple[Tensor, Tensor]:
    """Mismatch probabilities for a padded batch; returns (probs (B,), alpha).

    ``h_override`` swaps in replacement query-side states
    (states (B, n, k), final (B, k), lens) in place of the encoded query,
    which is how generated representations enter the model.
    ``k_precomputed`` reuses already-encoded title states.
    """
    if k_precomputed is not None:
        k_states = k_precomputed
    else:
        k_states, _ = encode_batch(item_ids, item_lens, params.emb_t, params.lstm_t)
    if h_override is None:
        h_states, q_n = encode_batch(query_ids, query_lens, params.emb_q, params.lstm_q)
        h_lens = query_lens
    else:
        h_states, q_n, h_lens = h_override
    tmask = pad_mask(item_lens, item_ids.shape[1])
    r_n, alpha = wbw_attention_batch(k_states, tmask, h_states, h_lens, params.attn)
    h_star = combine(r_n, q_n, params.attn.w_x)
    logit = head_logit(h_star, params.head, rng, training)
    probs = T.sigmoid(T.reshape(logit, (-1,)))
    return probs, alpha


def classify(item_ids: list[int], query_ids: list[int], params: ClassifierParams,
             training: bool = False, rng: np.random.Generator | None = None,
             ) -> float:
    """Mismatch probability for one pair; trailing PAD ids are ignored."""
    probs, _ = _classify_full(item_ids, query_ids, params, training, rng)
    return float(probs.data[0])


def _strip_pads(ids: list[int]) -> list[int]:
    n = len(ids)
    while n > 1 and ids[n - 1] == PAD:
        n -= 1
    return list(ids[:n])


def _classify_full(item_ids, query_ids, params, training=False, rng=None):
    item_ids = _strip_pads(item_ids)
    query_ids = _strip_pads(query_ids)
    if not item_ids or not query_ids:
        raise ValueError("classify requires nonempty sequences")
    return batch_probs(params,
                       np.asarray([item_ids], dtype=np.int64),
                       np.array([len(item_ids)]),
                       np.asarray([query_ids], dtype=np.int64),
                       np.array([len(query_ids)]),
                       rng=rng, training=training)


def ce_clamp_eps() -> float:
    return CE_CLAMP_F64 if T.get_default_dtype() is np.float64 else CE_CLAMP_F32


def weighted_ce_loss(probs: Tensor, labels: np.ndarray, beta: float = 5.0) -> Tensor:
    """Mean over the batch of -[beta*y*log(f) + (1-y)*log(1-f)].

    Positives (mismatches) are up-weighted by beta; probabilities are
    clamped away from 0 and 1 before the logs.
    """
    eps = ce_clamp_eps()
    f = T.clamp(probs, eps, 1.0 - eps)
    y = np.asarray(labels, dtype=np.float64)
    pos = T.constant(beta * y) * T.log(f)
    negt = T.constant(1.0 - y) * T.log(T.sub(1.0, f))
    return T.neg(T.mean_all(pos + negt))


def classifier_batch_loss(params: ClassifierParams, batch: Batch, beta: float,
                          rng: np.random.Generator | None, training: bool = True,
                          ) -> Tensor:
    probs, _ = batch_probs(params, batch.item_ids, batch.item_lens,
                           batch.query_ids, batch.query_lens,
                           rng=rng, training=training)
    return weighted_ce_loss(probs, batch.labels, beta)


# --- pooled-embedding dense baseline --------------------------------------

@dataclass
class DssmParams:
    emb_q: Tensor
    emb_t: Tensor
    w1: Tensor  # (2d, k)
    b1: Tensor
    w2: Tensor  # (k, 1)
    b2: Tensor

    def named(self, prefix: str = "dssm") -> dict[str, Tensor]:
        return {f"{prefix}.emb_q": self.emb_q, f"{prefix}.emb_t": self.emb_t,
                f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


def init_dssm(rng: np.random.Generator, vocab_q: int, vocab_t: int,
              embed_dim: int, k: int) -> DssmParams:
    return DssmParams(
        emb_q=init_embedding(rng, vocab_q, embed_dim),
        emb_t=init_embedding(rng, vocab_t, embed_dim),
        w1=_uniform(rng, 2 * embed_dim, k),
        b1=Tensor(np.zeros(k), requires_grad=True),
        w2=_uniform(rng, k, 1),
        b2=Tensor(np.zeros(1), requires_grad=True),
    )


def _mean_pool(emb: Tensor, ids: np.ndarray, lens: np.ndarray) -> Tensor:
    bsz, width = ids.shape
    flat = T.lookup(emb, ids.reshape(-1))
    stack = T.reshape(flat, (bsz, width, emb.shape[1]))
    w = pad_mask(lens, width) / lens[:, None]
    pooled = T.matmul(T.reshape(T.constant(w), (bsz, 1, width)), stack)
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
    _, alpha = _classify_full(item_ids, query_ids, params)
    return np.array(alpha.data[0], dtype=np.float64)


def normalize_heatmap(alpha: np.ndarray) -> np.ndarray:
    """Min-max normalize each row to [0, 1]; constant rows become 1.0."""
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

"""Variational encoder-decoder that rewrites a matched query into a
lexically similar mismatched one.

The encoder is the classifier's (shared tensors, not a copy): title and
query encodings are concatenated into an attention memory U, and the
final hidden states feed a Gaussian latent. The decoder is an LSTM whose
input is [previous token embedding ++ latent], with multiplicative
attention over U. Discrete queries come out of beam search; for
end-to-end training the decoder instead exposes its per-step attentional
states as a continuous stand-in for the query encoding, with gradients
flowing through the recurrence but not through token choices.

Teacher-forced training knows every decoder input up front, so its
recurrence is one fused ``lstm_scan`` record over the padded target
matrix (state frozen past each target's length), and attention and the
output projection run over all steps at once. Free-running decoding,
where each step's input is the previous step's choice, runs one numpy
step function: ``hgen_forward_batch`` loops it in a fused scan recorded
once with a hand-written backward pass, and ``decode_step``, beam
search's step, runs it once with no tape.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .classifier import (ClassifierParams, LstmParams, encode_batch, gate_slopes,
                         init_lstm, lstm_cell, lstm_cell_backward, lstm_scan,
                         _gate_affine, _uniform)
from .data import (BOS, EOS, RawPair, TripleBatch, TripleExample, Vocabulary,
                   pad_mask, tokenize)
from .tensor import Tensor

log = logging.getLogger(__name__)

LOGVAR_MIN, LOGVAR_MAX = -8.0, 8.0
_MASK_NEG = -1e30


@dataclass
class LatentParams:
    w_mu: Tensor      # (2k, d_z)
    b_mu: Tensor
    w_logvar: Tensor  # (2k, d_z)
    b_logvar: Tensor
    w_init: Tensor    # (d_z, k)
    b_init: Tensor


@dataclass
class DecoderParams:
    lstm: LstmParams    # input (embed + d_z), hidden k
    w_a: Tensor         # (k, k) bilinear attention
    w_c: Tensor         # (2k, k) output combiner
    w_v: Tensor         # (k, V_q) vocabulary projection
    b_v: Tensor


@dataclass
class VedParams:
    latent: LatentParams
    dec: DecoderParams

    @property
    def d_z(self) -> int:
        return self.latent.w_mu.shape[1]

    def named(self, prefix: str = "ved") -> dict[str, Tensor]:
        l, d = self.latent, self.dec
        return {
            f"{prefix}.lat.w_mu": l.w_mu, f"{prefix}.lat.b_mu": l.b_mu,
            f"{prefix}.lat.w_logvar": l.w_logvar, f"{prefix}.lat.b_logvar": l.b_logvar,
            f"{prefix}.lat.w_init": l.w_init, f"{prefix}.lat.b_init": l.b_init,
            f"{prefix}.dec.lstm.wx": d.lstm.wx, f"{prefix}.dec.lstm.wh": d.lstm.wh,
            f"{prefix}.dec.lstm.b": d.lstm.b,
            f"{prefix}.dec.w_a": d.w_a, f"{prefix}.dec.w_c": d.w_c,
            f"{prefix}.dec.w_v": d.w_v, f"{prefix}.dec.b_v": d.b_v,
        }


def init_ved(rng: np.random.Generator, k: int, embed_dim: int, d_z: int,
             vocab_q: int) -> VedParams:
    latent = LatentParams(
        _uniform(rng, 2 * k, d_z), Tensor(np.zeros(d_z), requires_grad=True),
        _uniform(rng, 2 * k, d_z), Tensor(np.zeros(d_z), requires_grad=True),
        _uniform(rng, d_z, k), Tensor(np.zeros(k), requires_grad=True))
    dec = DecoderParams(
        lstm=init_lstm(rng, embed_dim + d_z, k),
        w_a=_uniform(rng, k, k),
        w_c=_uniform(rng, 2 * k, k),
        w_v=_uniform(rng, k, vocab_q),
        b_v=Tensor(np.zeros(vocab_q), requires_grad=True))
    return VedParams(latent, dec)


# --- triple construction ---------------------------------------------------

def build_triples(pairs: list[RawPair], cap: int = 10) -> list[tuple[str, str, str]]:
    """(title, matched query, mismatched query) for items carrying both labels.

    Emits the cross product of matched x mismatched queries per item in
    dataset order, capped per item so heavily annotated items cannot
    dominate. An empty result is allowed (warned, not fatal).
    """
    matched: dict[str, list[str]] = {}
    mismatched: dict[str, list[str]] = {}
    for p in pairs:
        bucket = matched if p.label == 0 else mismatched
        bucket.setdefault(p.title, []).append(p.query)
    out = []
    for title, good in matched.items():
        bad = mismatched.get(title)
        if not bad:
            continue
        taken = 0
        for q in good:
            for qm in bad:
                if taken >= cap:
                    break
                out.append((title, q, qm))
                taken += 1
            if taken >= cap:
                break
    if not out:
        log.warning("no (item, matched, mismatched) triples could be built")
    return out


def encode_triples(triples: list[tuple[str, str, str]], vocab_t: Vocabulary,
                   vocab_q: Vocabulary, max_title_len: int,
                   max_query_len: int) -> list[TripleExample]:
    out = []
    for title, q, qm in triples:
        out.append(TripleExample(
            vocab_t.encode(tokenize(title)[:max_title_len]),
            vocab_q.encode(tokenize(q)[:max_query_len]),
            vocab_q.encode(tokenize(qm)[:max_query_len])))
    return out


# --- encoding and the latent ----------------------------------------------

@dataclass
class EncodedPair:
    """Shared-encoder view of one (item, query) batch."""
    u_states: Tensor        # (B, m+n, k) attention memory
    u_logmask: np.ndarray   # (B, m+n), 0 real / -inf-ish padded
    c: Tensor               # (B, 2k) latent context


def pair_memory(k_states: Tensor, t_final: Tensor, item_lens: np.ndarray,
                h_states: Tensor, q_final: Tensor, query_lens: np.ndarray,
                ) -> EncodedPair:
    """The generator's view of encoded titles and queries: U is the title
    states followed by the query states, masked past each true length,
    and c the two final states side by side."""
    u = T.concat([k_states, h_states], axis=1)
    real = np.concatenate([pad_mask(item_lens, k_states.shape[1]),
                           pad_mask(query_lens, h_states.shape[1])], axis=1)
    logmask = ((1.0 - real) * _MASK_NEG).astype(u.data.dtype)
    return EncodedPair(u, logmask, T.concat([t_final, q_final], axis=1))


def encode_pair_batch(clf: ClassifierParams, item_ids: np.ndarray,
                      item_lens: np.ndarray, query_ids: np.ndarray,
                      query_lens: np.ndarray) -> EncodedPair:
    k_states, t_final = encode_batch(item_ids, item_lens, clf.emb_t, clf.lstm_t)
    h_states, q_final = encode_batch(query_ids, query_lens, clf.emb_q, clf.lstm_q)
    return pair_memory(k_states, t_final, item_lens, h_states, q_final, query_lens)


def sample_latent(c: Tensor, lat: LatentParams,
                  rng: np.random.Generator | None = None,
                  deterministic: bool = False,
                  eps: np.ndarray | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Reparameterized Gaussian draw for each (B, 2k) row of c:
    z = mu + exp(logvar/2) * eps.

    Deterministic mode returns z = mu (evaluation); ``eps`` can be pinned
    for gradient checking.
    """
    mu = T.matmul(c, lat.w_mu) + lat.b_mu
    logvar = T.clamp(T.matmul(c, lat.w_logvar) + lat.b_logvar,
                     LOGVAR_MIN, LOGVAR_MAX)
    if deterministic:
        z = mu
    else:
        if eps is None:
            if rng is None:
                raise ValueError("sampling the latent needs the latent substream")
            eps = rng.standard_normal(mu.shape)
        z = mu + T.exp(T.scale(logvar, 0.5)) * T.constant(eps)
    return z, mu, logvar


def kl_weight_at(epoch: int, anneal_epochs: int) -> float:
    """Linear 0 -> 1 over the first ``anneal_epochs`` epochs."""
    if anneal_epochs <= 1:
        return 1.0
    return min(1.0, epoch / (anneal_epochs - 1))


def kl_divergence(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, exp(logvar)) || N(0, I)) of (B, d) rows, summed over dims,
    batch-averaged."""
    term = T.sub(T.sub(1.0 + logvar, mu * mu), T.exp(logvar))
    return T.scale(T.mean_all(T.sum_axis(term, axis=1)), -0.5)


# --- decoding ---------------------------------------------------------------

def decoder_init(z: Tensor, lat: LatentParams) -> tuple[Tensor, Tensor]:
    h0 = T.tanh(T.matmul(z, lat.w_init) + lat.b_init)
    return h0, T.zeros(h0.shape)


def _decoder_step(prev_ids: np.ndarray, zx: np.ndarray, h: np.ndarray, c: np.ndarray,
                  u: np.ndarray, logmask: np.ndarray, ved: VedParams, emb_q: Tensor,
                  ) -> tuple[np.ndarray, ...]:
    """One free-running decoder step in plain numpy, shared by
    ``decode_step`` and the ``hgen_forward_batch`` scan.

    The LSTM input is [embedding(prev) ++ z]; ``zx`` = z @ W_x[d:] + b is
    its z part. Then attention over U (B, L, k), d~ = tanh([h ++ ctx] @ W_c)
    and the logits d~ @ W_v + b_v. Returns (logits, d~, h, c, weights) and
    the backward cache (gate activations, tanh(c), [h ++ ctx]).
    """
    dec = ved.dec
    scale, shift = _gate_affine(h.shape[1], h.dtype)
    pre = emb_q.data[prev_ids] @ dec.lstm.wx.data[:emb_q.shape[1]] + zx
    act, c2, tc, h2 = lstm_cell(pre, h, c, dec.lstm.wh.data, scale, shift)
    scores = np.matmul(u, (h2 @ dec.w_a.data)[:, :, None])[:, :, 0] + logmask
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    hc = np.concatenate([h2, np.matmul(alpha[:, None, :], u)[:, 0]], axis=1)
    d_tilde = np.tanh(hc @ dec.w_c.data)
    return d_tilde @ dec.w_v.data + dec.b_v.data, d_tilde, h2, c2, alpha, act, tc, hc


def decode_step(prev_ids: np.ndarray, z: Tensor, h: Tensor, c: Tensor,
                enc: EncodedPair, ved: VedParams, emb_q: Tensor,
                ) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """One decoder step over a batch, for inputs chosen as decoding goes
    (beam search). Nothing is recorded: no gradient flows through it.

    Returns (logits over V_q, attentional state d~, new h, new c, weights).
    """
    lstm = ved.dec.lstm
    zx = z.data @ lstm.wx.data[emb_q.shape[1]:] + lstm.b.data
    out = _decoder_step(prev_ids, zx, h.data, c.data, enc.u_states.data, enc.u_logmask,
                        ved, emb_q)
    return tuple(map(T.constant, out[:5]))


# --- training loss ----------------------------------------------------------

def ved_loss_batch(clf: ClassifierParams, ved: VedParams, batch: TripleBatch,
                   kl_weight: float, rng: np.random.Generator | None = None,
                   deterministic: bool = False, eps: np.ndarray | None = None,
                   ) -> tuple[Tensor, float, float]:
    """Teacher-forced reconstruction of the mismatched query plus weighted KL.

    The per-triple NLL is the mean over its target tokens (mismatched
    query plus the end marker). Returns (loss, nll value, kl value).
    """
    enc = encode_pair_batch(clf, batch.item_ids, batch.item_lens,
                            batch.query_ids, batch.query_lens)
    z, mu, logvar = sample_latent(enc.c, ved.latent, rng=rng,
                                  deterministic=deterministic, eps=eps)
    h0, c0 = decoder_init(z, ved.latent)
    bsz, width = batch.target_ids.shape
    mask = pad_mask(batch.target_lens, width)
    # each real step's input is [token embedding ++ z]: one GEMM over the
    # packed real steps, then one scan (state frozen past each target)
    lstm, dec = ved.dec.lstm, ved.dec
    x = T.concat([T.lookup(clf.emb_q, batch.prev_ids[mask]),
                  T.lookup(z, np.nonzero(mask)[0])], axis=1)
    states, _, _ = lstm_scan(T.matmul(x, lstm.wx), lstm.wh, lstm.b, mask, h0, c0)
    # multiplicative attention over U, every step at once
    scores = T.matmul(T.matmul(states, dec.w_a), T.transpose_last2(enc.u_states))
    weights = T.softmax_rows(scores + T.constant(enc.u_logmask[:, None, :]))
    ctx = T.matmul(weights, enc.u_states)
    d_tilde = T.tanh(T.matmul(T.concat([states, ctx], axis=2), dec.w_c))
    # the output projection runs on real target steps only
    real = T.lookup(T.reshape(d_tilde, (bsz * width, -1)), np.flatnonzero(mask))
    logp = T.log_softmax_rows(T.matmul(real, dec.w_v) + dec.b_v)
    picked = T.pick_columns(logp, batch.target_ids[mask])
    # per-triple mean over its target tokens, then the batch mean
    weight = 1.0 / (np.repeat(batch.target_lens, batch.target_lens) * bsz)
    nll = T.neg(T.sum_axis(picked * T.constant(weight)))
    kl = kl_divergence(mu, logvar)
    loss = nll + T.scale(kl, kl_weight)
    return loss, float(nll.data), float(kl.data)


# --- generation -------------------------------------------------------------

def hgen_forward_batch(clf: ClassifierParams, ved: VedParams, enc: EncodedPair,
                       steps: np.ndarray, rng: np.random.Generator | None = None,
                       deterministic: bool = False, eps: np.ndarray | None = None,
                       ) -> tuple[Tensor, Tensor, np.ndarray]:
    """Continuous query stand-in: per-step attentional states, argmax feedback.

    ``steps[i]`` is the number of columns generated for example i (the
    source query's true length). Returns (states (B, n, k), final state
    (B, k), lens) shaped like an encoder's output, ready to replace it:
    ``final`` is each row's state at its last step, and columns past a
    row's length (the row decodes on with the batch) are ignored
    downstream, as attention stops at ``lens``.

    The ``steps.max()`` decoder steps are one tape record with a
    hand-written backward pass, so the tape grows by the same count
    whatever the length. Gradients flow through hidden states and
    attention, not through the argmax, so W_v and b_v get none. Every
    step's output gradient is known up front, so the backward pass runs
    attention and W_c for all steps at once, its loop carries only the h/c
    recurrence, and the weight and embedding gradients are one GEMM or
    scatter each after it.
    """
    z, _, _ = sample_latent(enc.c, ved.latent, rng=rng,
                            deterministic=deterministic, eps=eps)
    h0, c0 = decoder_init(z, ved.latent)
    lstm, dec = ved.dec.lstm, ved.dec
    emb, wh, w_a, w_c = clf.emb_q.data, lstm.wh.data, dec.w_a.data, dec.w_c.data
    wx_e, wx_z = lstm.wx.data[:emb.shape[1]], lstm.wx.data[emb.shape[1]:]
    zs, u, h_init, c_init = z.data, enc.u_states.data, h0.data, c0.data
    zx = zs @ wx_z + lstm.b.data
    bsz, k = c_init.shape
    dt = zs.dtype
    width = int(steps.max())
    inputs = (z, h0, c0, clf.emb_q, lstm.wx, lstm.wh, lstm.b, enc.u_states, dec.w_a,
              dec.w_c)
    grad = T.needs_grad(*inputs)
    states = np.empty((bsz, width, k), dt)
    prevs = np.empty((bsz, width), np.int64)
    cache = []   # per step: gate activations, c, tanh(c), [h ++ ctx], weights
    h, c = h_init, c_init
    prev = np.full(bsz, BOS, dtype=np.int64)
    for t in range(width):
        prevs[:, t] = prev
        logits, states[:, t], h, c, alpha, act, tc, hc = _decoder_step(
            prev, zx, h, c, u, enc.u_logmask, ved, clf.emb_q)
        prev = np.argmax(logits, axis=1)
        if grad:
            cache.append((act, c, tc, hc, alpha))
    rows, last = np.arange(bsz), steps - 1

    def rule(grads):
        g_states, g_final = grads
        acts, cells, tanh_c, hcs, alphas = (np.stack(x, axis=1) for x in zip(*cache))
        g = np.zeros_like(states) if g_states is None else g_states.copy()
        if g_final is not None:
            g[rows, last] += g_final
        g_pre = g * (1 - states * states)           # through d~ = tanh(.)
        g_hc = g_pre @ w_c.T
        h2s = hcs[:, :, :k]
        g_alpha = np.matmul(g_hc[:, :, k:], u.transpose(0, 2, 1))
        g_scores = alphas * (g_alpha - (g_alpha * alphas).sum(axis=2, keepdims=True))
        g_hw = np.matmul(g_scores, u)
        g_u = (np.matmul(alphas.transpose(0, 2, 1), g_hc[:, :, k:])
               + np.matmul(g_scores.transpose(0, 2, 1), h2s @ w_a))
        g_h2 = g_hc[:, :, :k] + g_hw @ w_a.T
        dact = gate_slopes(acts, _gate_affine(k, dt)[1])
        gates = np.empty_like(acts)
        dh, dc = np.zeros((bsz, k), dt), np.zeros((bsz, k), dt)
        for t in reversed(range(width)):
            dh = dh + g_h2[:, t]
            dc = lstm_cell_backward(dh, dc, acts[:, t], tanh_c[:, t],
                                    cells[:, t - 1] if t else c_init, dact[:, t],
                                    gates[:, t])
            dh = gates[:, t] @ wh.T
        flat = gates.reshape(-1, 4 * k)
        g_zx = gates.sum(axis=1)
        ids = prevs.reshape(-1)
        g_emb = np.zeros_like(emb)
        np.add.at(g_emb, ids, flat @ wx_e.T)
        g_wx = np.concatenate([emb[ids].T @ flat, zs.T @ g_zx])
        h_prev = np.concatenate([h_init[:, None], h2s[:, :-1]], axis=1)
        return (g_zx @ wx_z.T, dh, dc, g_emb, g_wx, h_prev.reshape(-1, k).T @ flat,
                g_zx.sum(axis=0), g_u, h2s.reshape(-1, k).T @ g_hw.reshape(-1, k),
                hcs.reshape(-1, 2 * k).T @ g_pre.reshape(-1, k))

    out, final = T.record((states, states[rows, last]), inputs, rule if grad else None)
    return out, final, steps.copy()


def beam_generate(item_ids: list[int], query_ids: list[int],
                  clf: ClassifierParams, ved: VedParams, beam: int = 4,
                  max_len: int = 12) -> list[tuple[list[int], float]]:
    """Length-normalized beam search with the deterministic latent.

    Returns up to ``beam`` token sequences (end marker stripped) sorted by
    score = total log-probability / length. beam=1 is exactly greedy
    argmax decoding.
    """
    enc = encode_pair_batch(
        clf, np.asarray([item_ids], dtype=np.int64), np.array([len(item_ids)]),
        np.asarray([query_ids], dtype=np.int64), np.array([len(query_ids)]))
    z, _, _ = sample_latent(enc.c, ved.latent, deterministic=True)
    h0, c0 = decoder_init(z, ved.latent)

    # live: (tokens, logp_sum, h, c); finished: (tokens, normalized score)
    live = [([], 0.0, h0, c0)]
    done: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        candidates = []
        for tokens, logp, h, c in live:
            prev = np.array([tokens[-1] if tokens else BOS], dtype=np.int64)
            logits, _, h2, c2, _ = decode_step(prev, z, h, c, enc, ved, clf.emb_q)
            logprob = T.log_softmax_rows(logits).data[0]
            top = np.argsort(-logprob, kind="stable")[:beam]
            for tok in top:
                candidates.append((tokens + [int(tok)], logp + float(logprob[tok]),
                                   h2, c2))
        candidates.sort(key=lambda cand: -(cand[1] / len(cand[0])))
        live = []
        for tokens, logp, h, c in candidates:
            if tokens[-1] == EOS:
                done.append((tokens[:-1], logp / len(tokens)))
            elif len(live) < beam:
                live.append((tokens, logp, h, c))
            if len(done) >= beam and len(live) >= beam:
                break
        live = live[:beam]
        if not live:
            break
    for tokens, logp, _, _ in live:
        done.append((tokens, logp / max(len(tokens), 1)))
    done.sort(key=lambda pair: -pair[1])
    return done[:beam]

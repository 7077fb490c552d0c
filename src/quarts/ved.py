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

Both uses of the decoder run one fused scan, recorded once with a
hand-written backward pass: teacher-forced VED training reads the given
previous tokens, and ``hgen_forward_batch`` feeds back its own argmax.
The two differ only in where each step's input token comes from. The scan
steps each row only up to its own length, on the classifier's ``Ragged``
layout and through its ``lstm_bptt``, so its columns past that length are
zero in both modes, as the encoders' are. Beam search runs that step
untaped on a chunk's live hypotheses at once (``decode_step``), so a
float32 generation score can move in its last bits with its chunk's pairs.
Whatever chooses tokens (``hgen``'s argmax, beam search) reads the logits
through ``_logits``, under the decode-time masks; training does not.

The generator reads the shared encoder's ``classifier.EncodedBatch``
through one entry, ``decoder_start``: the attention memory U and its
mask, the latent (z, mu, logvar) and the decoder's initial state h0 all
come from there, for the VED loss, ``hgen`` and beam search. VED training
takes each batch's record as an argument: the phase trains only the
generator's parameters, so the shared encoder holds still, and the
pipeline encodes each distinct title and matched query once per phase
and gathers a batch's record from that cache.

The generator's parameters are named ``ved.<field path>`` by walking
``VedParams``' fields (``classifier.Params``): ``ved.lat.*`` for the
latent, ``ved.dec.*`` for the decoder.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .classifier import (ClassifierParams, EncodedBatch, LstmParams, Params, Ragged,
                         encode_pair_batch, init_lstm, lstm_bptt, lstm_cell, _gate_affine,
                         _uniform)
from .data import (BOS, EOS, PAD, UNK, RawPair, TripleBatch, TripleExample, Vocabulary,
                   pad_mask, pad_matrix, tokenize)
from .tensor import Tensor
from .train import EVAL_BATCH_SIZE

log = logging.getLogger(__name__)

LOGVAR_MIN, LOGVAR_MAX = -8.0, 8.0
_MASK_NEG = -1e30


@dataclass
class LatentParams(Params):
    w_mu: Tensor      # (2k, d_z)
    b_mu: Tensor
    w_logvar: Tensor  # (2k, d_z)
    b_logvar: Tensor
    w_init: Tensor    # (d_z, k)
    b_init: Tensor


@dataclass
class DecoderParams(Params):
    lstm: LstmParams    # input (embed + d_z), hidden k
    w_a: Tensor         # (k, k) bilinear attention
    w_c: Tensor         # (2k, k) output combiner
    w_v: Tensor         # (k, V_q) vocabulary projection
    b_v: Tensor


@dataclass
class VedParams(Params):
    PREFIX = "ved"
    lat: LatentParams
    dec: DecoderParams

    @property
    def d_z(self) -> int:
        return self.lat.w_mu.shape[1]


def init_ved(rng: np.random.Generator, k: int, embed_dim: int, d_z: int,
             vocab_q: int) -> VedParams:
    latent = LatentParams(
        _uniform(rng, 2 * k, d_z), Tensor(np.zeros(d_z)),
        _uniform(rng, 2 * k, d_z), Tensor(np.zeros(d_z)),
        _uniform(rng, d_z, k), Tensor(np.zeros(k)))
    dec = DecoderParams(
        lstm=init_lstm(rng, embed_dim + d_z, k),
        w_a=_uniform(rng, k, k),
        w_c=_uniform(rng, 2 * k, k),
        w_v=_uniform(rng, k, vocab_q),
        b_v=Tensor(np.zeros(vocab_q)))
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
        crossed = itertools.product(good, mismatched.get(title, []))
        out.extend((title, q, qm) for q, qm in itertools.islice(crossed, cap))
    if not out:
        log.warning("no (item, matched, mismatched) triples could be built")
    return out


def encode_triples(triples: list[tuple[str, str, str]], vocab_t: Vocabulary,
                   vocab_q: Vocabulary, max_title_len: int,
                   max_query_len: int) -> list[TripleExample]:
    return [TripleExample(vocab_t.encode(tokenize(title)[:max_title_len]),
                          vocab_q.encode(tokenize(q)[:max_query_len]),
                          vocab_q.encode(tokenize(qm)[:max_query_len]))
            for title, q, qm in triples]


# --- the decoder's start ----------------------------------------------------

@dataclass
class _DecoderStart:
    """What the decoder reads of an encoded batch, from ``decoder_start``."""
    u_states: Tensor        # (B, m+n, k) attention memory
    u_logmask: np.ndarray   # (B, m+n), 0 real / -inf-ish padded
    z: Tensor               # (B, d_z) latent draw
    mu: Tensor              # (B, d_z)
    logvar: Tensor          # (B, d_z), clamped
    h0: Tensor              # (B, k) initial decoder state; its c starts at zero


def decoder_start(enc: EncodedBatch, ved: VedParams, eps: np.ndarray) -> _DecoderStart:
    """The generator's one entry: U, its mask, the latent and h0 of ``enc``.

    U is the title states followed by the query states, masked past each
    true length, and c the two final states side by side. The latent is
    the reparameterized Gaussian draw z = mu + exp(logvar/2) * eps from c,
    with ``eps`` (B, d_z) drawn by the caller from its latent stream
    (zeros give z = mu, the latent that beam search decodes from), and
    h0 = tanh(z @ W_init + b_init).
    """
    lat = ved.lat
    u = T.concat([enc.title_states, enc.query_states], axis=1)
    real = np.concatenate([pad_mask(enc.item_lens, enc.title_states.shape[1]),
                           pad_mask(enc.query_lens, enc.query_states.shape[1])], axis=1)
    c = T.concat([enc.title_final, enc.query_final], axis=1)
    mu = T.matmul(c, lat.w_mu) + lat.b_mu
    logvar = T.clamp(T.matmul(c, lat.w_logvar) + lat.b_logvar, LOGVAR_MIN, LOGVAR_MAX)
    z = mu + T.exp(T.scale(logvar, 0.5)) * Tensor(eps)
    return _DecoderStart(u, ((1.0 - real) * _MASK_NEG).astype(u.data.dtype), z, mu, logvar,
                         T.tanh(T.matmul(z, lat.w_init) + lat.b_init))


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

def _decoder_step(pre: np.ndarray, h: np.ndarray, c: np.ndarray, u: np.ndarray,
                  logmask: np.ndarray, dec: DecoderParams) -> tuple[np.ndarray, ...]:
    """One decoder step in plain numpy, shared by ``decode_step`` and
    ``_decoder_scan``: the LSTM cell on ``pre`` = [embedding(prev) ++ z] @ W_x
    + b, attention over U (B, L, k) and d~ = tanh([h ++ ctx] @ W_c). Returns
    (d~, h, c, weights, gate activations, [h ++ ctx])."""
    scale, shift = _gate_affine(h.shape[1], h.dtype)
    act, c2, h2 = lstm_cell(pre, h, c, dec.lstm.wh.data, scale, shift)
    scores = np.matmul(u, (h2 @ dec.w_a.data)[:, :, None])[:, :, 0] + logmask
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    hc = np.concatenate([h2, np.matmul(alpha[:, None, :], u)[:, 0]], axis=1)
    return np.tanh(hc @ dec.w_c.data), h2, c2, alpha, act, hc


def _logits(d_tilde: np.ndarray, dec: DecoderParams, prev_ids: np.ndarray) -> np.ndarray:
    """d~ @ W_v + b_v under the decode-time masks: the one place decoding
    (beam search, greedy decoding and ``hgen``) reads the vocabulary logits.

    PAD, BOS and UNK are never emitted, and EOS is not emitted at a step
    whose input ``prev_ids`` is BOS, so no decoded query is empty.
    Teacher-forced training scores its targets without the masks.
    """
    logits = d_tilde @ dec.w_v.data + dec.b_v.data
    logits[:, [PAD, BOS, UNK]] = _MASK_NEG
    logits[prev_ids == BOS, EOS] = _MASK_NEG
    return logits


def decode_step(prev_ids: np.ndarray, h: np.ndarray, c: np.ndarray, pair: np.ndarray,
                start: _DecoderStart, zx: np.ndarray, ved: VedParams, emb_q: Tensor,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One untaped decoder step: row i extends ``prev_ids[i]`` from (h[i],
    c[i]) with pair ``pair[i]``'s memory and mask in ``start`` and latent
    projection ``zx[pair[i]]`` (z @ W_x's latent rows + b). Returns (masked
    logits, new h, new c). As BLAS rounds a GEMM row by the rows beside it,
    a float32 score can move in its last bits with the pairs in its chunk."""
    pre = emb_q.data[prev_ids] @ ved.dec.lstm.wx.data[:emb_q.shape[1]] + zx[pair]
    d_tilde, h2, c2 = _decoder_step(pre, h, c, start.u_states.data[pair],
                                    start.u_logmask[pair], ved.dec)[:3]
    return _logits(d_tilde, ved.dec, prev_ids), h2, c2


def _decoder_scan(emb_q: Tensor, ved: VedParams, start: _DecoderStart, steps: np.ndarray,
                  width: int, prev_ids: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """The decoder over a batch as one tape record, teacher-forced or free.

    Row i decodes its first ``steps[i]`` steps and no more, none past
    ``width``. Given ``prev_ids`` (B, width), step t reads prev_ids[:, t]
    (one embedding GEMM before the loop); without, each row reads BOS, then
    its own argmax. Returns (d~ states (B, width, k), zero past each row's
    steps; each row's state at step ``steps - 1``), in input order.

    The rows run on the ``Ragged`` layout of ``steps``, as the encoders'
    do: step t runs on the rows still live, and activations stay packed.
    The backward pass runs attention and W_c for all steps at once, the
    recurrence through ``lstm_bptt``, and each weight and embedding
    gradient as one GEMM or scatter over the real steps. No gradient flows
    through token choices (W_v and b_v get none), and none is computed for
    an untracked ``emb_q`` or U. The record keeps each slot's gate
    activations, c, [h ++ ctx] and weights, not tanh(c), which
    ``lstm_bptt`` recomputes; the rule frees its attention temporaries
    before it runs the recurrence's backward pass.
    """
    lstm, dec = ved.dec.lstm, ved.dec
    z, h0, u_states = start.z, start.h0, start.u_states
    emb, wh, w_a, w_c = emb_q.data, lstm.wh.data, dec.w_a.data, dec.w_c.data
    wx_e, wx_z = lstm.wx.data[:emb.shape[1]], lstm.wx.data[emb.shape[1]:]
    k = h0.shape[1]
    dt = z.data.dtype
    lay = Ragged(steps, width)
    u, logmask = u_states.data[lay.order], start.u_logmask[lay.order]
    zx = z.data[lay.order] @ wx_z + lstm.b.data
    if prev_ids is None:
        ids, prev = [], np.full(len(steps), BOS, dtype=np.int64)
    else:
        ids = prev_ids[lay.rows, lay.steps]
        xe = emb[ids] @ wx_e
    inputs = (z, h0, emb_q, lstm.wx, lstm.wh, lstm.b, u_states, dec.w_a, dec.w_c)
    grad = T.needs_grad(*inputs)
    want_emb, want_u = T.needs_grad(emb_q), T.needs_grad(u_states)
    slots = len(lay.rows)
    packed = np.empty((slots, k), dt)   # d~ of each slot
    if grad:
        acts, cells = np.empty((slots, 4 * k), dt), np.empty((slots, k), dt)
        hcs, alphas = np.empty((slots, 2 * k), dt), np.empty((slots, u.shape[1]), dt)
    h, c = h0.data[lay.order], np.zeros((len(steps), k), dt)
    for t, n in enumerate(lay.n_live):
        s = lay.span(t)
        if prev_ids is None:
            ids.append(prev[:n])
            pre = emb[prev[:n]] @ wx_e + zx[:n]
        else:
            pre = xe[s] + zx[:n]
        packed[s], h, c, alpha, act, hc = _decoder_step(
            pre, h[:n], c[:n], u[:n], logmask[:n], dec)
        if prev_ids is None:
            prev = np.argmax(_logits(packed[s], dec, prev[:n]), axis=1)
        if grad:
            acts[s], cells[s], hcs[s], alphas[s] = act, c, hc, alpha
    if prev_ids is None:
        ids = np.concatenate(ids)

    def rule(grads):
        g_states, g_final = grads
        g = np.zeros_like(packed) if g_states is None else g_states[lay.rows, lay.steps]
        if g_final is not None:
            g[lay.last] += g_final
        h2s = hcs[:, :k]
        g_pre = g * (1 - packed * packed)   # through d~ = tanh(.)
        g_hc = g_pre @ w_c.T
        # attention over each row's memory, for all its steps at once
        u_in, a = u_states.data, lay.padded(alphas)
        g_ctx = lay.padded(g_hc[:, k:])
        g_alpha = np.matmul(g_ctx, u_in.transpose(0, 2, 1))
        g_scores = a * (g_alpha - (g_alpha * a).sum(axis=2, keepdims=True))
        g_hw = np.matmul(g_scores, u_in)[lay.rows, lay.steps]
        g_u = None
        if want_u:
            g_u = (np.matmul(a.transpose(0, 2, 1), g_ctx)
                   + np.matmul(g_scores.transpose(0, 2, 1), lay.padded(h2s @ w_a)))
        del a, g_ctx, g_alpha, g_scores
        gates, g_h0, g_wh = lstm_bptt(lay, g_hc[:, :k] + g_hw @ w_a.T, acts, cells,
                                      h2s, h0.data, wh)
        g_zx = lay.padded(gates).sum(axis=1)
        g_emb = None
        if want_emb:
            g_emb = np.zeros_like(emb)
            np.add.at(g_emb, ids, gates @ wx_e.T)
        g_wx = np.concatenate([emb[ids].T @ gates, z.data.T @ g_zx])
        return (g_zx @ wx_z.T, g_h0, g_emb, g_wx, g_wh, g_zx.sum(axis=0), g_u,
                h2s.T @ g_hw, hcs.T @ g_pre)

    return T.record((lay.padded(packed), packed[lay.last]), inputs, rule if grad else None)


# --- training loss ----------------------------------------------------------

def ved_loss_batch(clf: ClassifierParams, ved: VedParams, enc: EncodedBatch,
                   batch: TripleBatch, kl_weight: float, eps: np.ndarray,
                   ) -> tuple[Tensor, float, float]:
    """Teacher-forced reconstruction of the mismatched query plus weighted KL.

    ``enc`` is the batch's (title, matched query) record: gathered from a
    phase's cache in training, ``encode_pair_batch`` output where the
    encoder's gradient is wanted. The per-triple NLL is the mean over its
    target tokens (mismatched query plus the end marker); ``eps`` (B, d_z)
    is the latent noise. Returns (loss, nll value, kl value).
    """
    start = decoder_start(enc, ved, eps)
    states, _ = _decoder_scan(clf.emb_q, ved, start, batch.target_lens,
                              batch.prev_ids.shape[1], batch.prev_ids)
    bsz, width, k = states.shape
    mask = pad_mask(batch.target_lens, width)
    # the output projection runs on real target steps only
    real = T.lookup(T.reshape(states, (bsz * width, k)), np.flatnonzero(mask))
    logp = T.log_softmax_rows(T.matmul(real, ved.dec.w_v) + ved.dec.b_v)
    picked = T.pick_columns(logp, batch.target_ids[mask])
    # per-triple mean over its target tokens, then the batch mean
    weight = 1.0 / (np.repeat(batch.target_lens, batch.target_lens) * bsz)
    nll = T.scale(T.sum_axis(picked * Tensor(weight)), -1.0)
    kl = kl_divergence(start.mu, start.logvar)
    loss = nll + T.scale(kl, kl_weight)
    return loss, float(nll.data), float(kl.data)


# --- generation -------------------------------------------------------------

def hgen_forward_batch(clf: ClassifierParams, ved: VedParams, enc: EncodedBatch,
                       eps: np.ndarray) -> tuple[Tensor, Tensor]:
    """Continuous query stand-in: the free-running decoder's states from
    the latent with noise ``eps`` (B, d_z), conditioned on ``enc``, each row
    for its query's length. Returns (states (B, n, k), final (B, k)) at the
    record's query width n, zero past each row's length, so they replace
    the query half as they are."""
    return _decoder_scan(clf.emb_q, ved, decoder_start(enc, ved, eps), enc.query_lens,
                         enc.query_states.shape[1])


def beam_search(item_ids: list[list[int]], query_ids: list[list[int]],
                clf: ClassifierParams, ved: VedParams, beam: int = 4, max_len: int = 12,
                ) -> list[list[tuple[list[int], float]]]:
    """Length-normalized beam search from the latent mean z = mu: for each
    (item, query) pair, in input order, up to ``beam`` token sequences (end
    marker stripped) sorted by score = log-probability / length; beam=1 is
    greedy. Each chunk of ``EVAL_BATCH_SIZE`` pairs is one encoded batch,
    and each step one ``decode_step`` over the chunk's live hypotheses.
    Every pair keeps GNMT's rules by itself, with ties kept in hypothesis
    then rank order and ranks in the logits' dtype. A float32 score can move
    in its last bits with the pairs that share its chunk.

    A pair stops once it holds ``beam`` finished hypotheses and the
    ``beam``-th best finished score is >= ``logp / max_len`` of each live
    one. No output changes: log-probabilities are <= 0, so a live hypothesis
    ends, finished or flushed at ``max_len``, scoring at most ``logp /
    max_len`` (in floats too: adding a value <= 0, and dividing one by a
    larger length, are monotone); an equal score sorts after the kept ones.
    """
    out = []
    for lo in range(0, len(item_ids), EVAL_BATCH_SIZE):
        items, queries = item_ids[lo:lo + EVAL_BATCH_SIZE], query_ids[lo:lo + EVAL_BATCH_SIZE]
        start = decoder_start(encode_pair_batch(clf, *pad_matrix(items), *pad_matrix(queries)),
                              ved, np.zeros((len(items), ved.d_z)))
        zx = start.z.data @ ved.dec.lstm.wx.data[clf.emb_q.shape[1]:] + ved.dec.lstm.b.data
        h, c = start.h0.data, np.zeros_like(start.h0.data)
        # per pair: live (tokens, logp_sum, row of h and c) and finished (tokens, score)
        live, done = [[([], 0.0, i)] for i in range(len(items))], [[] for _ in items]
        for length in range(1, max_len + 1):
            hyps = [hyp for pair_live in live for hyp in pair_live]
            if not hyps:
                break
            prev = np.array([tokens[-1] if tokens else BOS for tokens, _, _ in hyps], np.int64)
            pair = np.repeat(np.arange(len(items)), [len(pair_live) for pair_live in live])
            rows = [row for _, _, row in hyps]
            logits, h, c = decode_step(prev, h[rows], c[rows], pair, start, zx, ved, clf.emb_q)
            logprob = T.log_softmax(logits)
            top = np.argsort(-logprob, axis=1, kind="stable")[:, :beam]
            toks, lps = top.tolist(), np.take_along_axis(logprob, top, axis=1).tolist()
            first = 0   # the pair's first row
            for pair_live, pair_done in zip(live, done):
                cands = [(tokens, tok, logp + lp, row)
                         for row, (tokens, logp, _) in enumerate(pair_live, first)
                         for tok, lp in zip(toks[row], lps[row])]
                first += len(pair_live)
                cands.sort(key=lambda cand: -(cand[2] / length))
                pair_live.clear()
                for tokens, tok, logp, row in cands:
                    if tok == EOS:
                        pair_done.append((tokens, logp / length))
                    elif len(pair_live) < beam:
                        pair_live.append((tokens + [tok], logp, row))
                    if len(pair_done) >= beam and len(pair_live) >= beam:
                        break
                if len(pair_done) >= beam:
                    kept = sorted(score for _, score in pair_done)[-beam]
                    if all(kept >= logp / max_len for _, logp, _ in pair_live):
                        pair_live.clear()
        for pair_live, pair_done in zip(live, done):
            flushed = [(tokens, logp / max(len(tokens), 1)) for tokens, logp, _ in pair_live]
            out.append(sorted(pair_done + flushed, key=lambda hyp: -hyp[1])[:beam])
    return out


def beam_generate(item_ids: list[int], query_ids: list[int],
                  clf: ClassifierParams, ved: VedParams, beam: int = 4,
                  max_len: int = 12) -> list[tuple[list[int], float]]:
    """``beam_search`` of one pair, alone in its chunk: its float32 score can
    differ in its last bits from the same pair's in a larger chunk."""
    return beam_search([item_ids], [query_ids], clf, ved, beam, max_len)[0]

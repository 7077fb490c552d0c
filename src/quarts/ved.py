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
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .classifier import (ClassifierParams, LstmParams, encode_batch, init_lstm,
                         lstm_step, _uniform)
from .data import (BOS, EOS, RawPair, TripleExample, Vocabulary, pad_mask,
                   pad_matrix, tokenize)
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
                   vocab_q: Vocabulary, max_title_len: int = 16,
                   max_query_len: int = 8) -> list[TripleExample]:
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
    k_states: Tensor        # (B, m, k) title encodings
    title_mask: np.ndarray  # (B, m)
    u_states: Tensor        # (B, m+n, k) attention memory
    u_logmask: np.ndarray   # (B, m+n), 0 real / -inf-ish padded
    c: Tensor               # (B, 2k) latent context


def encode_pair_batch(clf: ClassifierParams, item_ids: np.ndarray,
                      item_lens: np.ndarray, query_ids: np.ndarray,
                      query_lens: np.ndarray) -> EncodedPair:
    k_states, t_final = encode_batch(item_ids, item_lens, clf.emb_t, clf.lstm_t)
    h_states, q_final = encode_batch(query_ids, query_lens, clf.emb_q, clf.lstm_q)
    u = T.concat([k_states, h_states], axis=1)
    tmask = pad_mask(item_lens, item_ids.shape[1])
    qmask = pad_mask(query_lens, query_ids.shape[1])
    logmask = (1.0 - np.concatenate([tmask, qmask], axis=1)) * _MASK_NEG
    c = T.concat([t_final, q_final], axis=1)
    return EncodedPair(k_states, tmask, u, logmask, c)


def encode_pair(item_ids: list[int], query_ids: list[int],
                clf: ClassifierParams) -> tuple[Tensor, Tensor]:
    """Single-pair view: U as (k, m+n) columns and the latent context (2k,)."""
    enc = encode_pair_batch(
        clf, np.asarray([item_ids], dtype=np.int64), np.array([len(item_ids)]),
        np.asarray([query_ids], dtype=np.int64), np.array([len(query_ids)]))
    m_n = enc.u_states.shape[1]
    k = enc.u_states.shape[2]
    u = T.transpose_last2(T.reshape(enc.u_states, (m_n, k)))
    return u, T.reshape(enc.c, (-1,))


def sample_latent(c: Tensor, lat: LatentParams,
                  rng: np.random.Generator | None = None,
                  deterministic: bool = False,
                  eps: np.ndarray | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Reparameterized Gaussian draw: z = mu + exp(logvar/2) * eps.

    Deterministic mode returns z = mu (evaluation); ``eps`` can be pinned
    for gradient checking.
    """
    vec = c.ndim == 1
    c2 = T.reshape(c, (1, -1)) if vec else c
    mu = T.matmul(c2, lat.w_mu) + lat.b_mu
    logvar = T.clamp(T.matmul(c2, lat.w_logvar) + lat.b_logvar,
                     LOGVAR_MIN, LOGVAR_MAX)
    if deterministic:
        z = mu
    else:
        if eps is None:
            if rng is None:
                raise ValueError("sampling the latent needs the latent substream")
            eps = rng.standard_normal(mu.shape)
        z = mu + T.exp(T.scale(logvar, 0.5)) * T.constant(eps)
    if vec:
        return (T.reshape(z, (-1,)), T.reshape(mu, (-1,)), T.reshape(logvar, (-1,)))
    return z, mu, logvar


def kl_divergence(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, exp(logvar)) || N(0, I)), summed over dims, batch-averaged."""
    vec = mu.ndim == 1
    mu2 = T.reshape(mu, (1, -1)) if vec else mu
    lv2 = T.reshape(logvar, (1, -1)) if vec else logvar
    term = T.sub(T.sub(1.0 + lv2, mu2 * mu2), T.exp(lv2))
    return T.scale(T.mean_all(T.sum_axis(term, axis=1)), -0.5)


# --- decoding ---------------------------------------------------------------

def decoder_init(z: Tensor, lat: LatentParams) -> tuple[Tensor, Tensor]:
    h0 = T.tanh(T.matmul(z, lat.w_init) + lat.b_init)
    return h0, T.zeros(h0.shape)


def decode_step(prev_ids: np.ndarray, z: Tensor, h: Tensor, c: Tensor,
                enc: EncodedPair, ved: VedParams, emb_q: Tensor,
                ) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """One decoder step over a batch.

    Returns (logits over V_q, attentional state d~, new h, new c, weights).
    """
    x = T.concat([T.lookup(emb_q, prev_ids), z], axis=1)
    h2, c2 = lstm_step(ved.dec.lstm, x, h, c)
    bsz, k = h2.shape
    scores = T.matmul(T.reshape(T.matmul(h2, ved.dec.w_a), (bsz, 1, k)),
                      T.transpose_last2(enc.u_states))
    scores = T.reshape(scores, (bsz, enc.u_states.shape[1]))
    weights = T.softmax_rows(scores + T.constant(enc.u_logmask))
    ctx = T.reshape(T.matmul(T.reshape(weights, (bsz, 1, -1)), enc.u_states), (bsz, k))
    d_tilde = T.tanh(T.matmul(T.concat([h2, ctx], axis=1), ved.dec.w_c))
    logits = T.matmul(d_tilde, ved.dec.w_v) + ved.dec.b_v
    return logits, d_tilde, h2, c2, weights


# --- training loss ----------------------------------------------------------

@dataclass
class TripleBatch:
    item_ids: np.ndarray
    item_lens: np.ndarray
    query_ids: np.ndarray
    query_lens: np.ndarray
    prev_ids: np.ndarray     # (B, L): BOS then the mismatched query
    target_ids: np.ndarray   # (B, L): mismatched query then EOS
    target_lens: np.ndarray  # (B,)

    def __len__(self):
        return self.item_ids.shape[0]


def make_triple_batch(triples: list[TripleExample]) -> TripleBatch:
    items, item_lens = pad_matrix([t.item_ids for t in triples])
    queries, query_lens = pad_matrix([t.matched_query_ids for t in triples])
    prev, _ = pad_matrix([[BOS] + t.mismatched_query_ids for t in triples])
    target, target_lens = pad_matrix([t.mismatched_query_ids + [EOS] for t in triples])
    return TripleBatch(items, item_lens, queries, query_lens, prev, target, target_lens)


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
    h, c = decoder_init(z, ved.latent)
    bsz, width = batch.target_ids.shape
    k = h.shape[1]
    step_nlls = []
    for t in range(width):
        logits, _, h2, c2, _ = decode_step(batch.prev_ids[:, t], z, h, c,
                                           enc, ved, clf.emb_q)
        logp = T.log_softmax_rows(logits)
        nll_t = T.neg(T.pick_columns(logp, batch.target_ids[:, t]))
        on = (t < batch.target_lens).astype(np.float64)
        step_nlls.append(T.reshape(nll_t * T.constant(on), (bsz, 1)))
        sm = T.constant(np.repeat(on[:, None], k, 1))
        inv = T.constant(1.0 - sm.data)
        h = sm * h2 + inv * h
        c = sm * c2 + inv * c
    per_example = T.sum_axis(T.concat(step_nlls, axis=1), axis=1)
    nll = T.mean_all(per_example * T.constant(1.0 / batch.target_lens))
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
    source query's true length). Gradients flow through hidden states and
    attention, not through the argmax token choice. Returns
    (states (B, n, k), final state (B, k), lens) shaped like an encoder's
    output, ready to replace it.
    """
    z, _, _ = sample_latent(enc.c, ved.latent, rng=rng,
                            deterministic=deterministic, eps=eps)
    h, c = decoder_init(z, ved.latent)
    bsz = enc.c.shape[0]
    k = h.shape[1]
    width = int(steps.max())
    prev = np.full(bsz, BOS, dtype=np.int64)
    cols = []
    final = T.zeros((bsz, k))
    for t in range(width):
        logits, d_tilde, h2, c2, _ = decode_step(prev, z, h, c, enc, ved, clf.emb_q)
        prev = np.argmax(logits.data, axis=1)
        on = (t < steps).astype(np.float64)
        sm = T.constant(np.repeat(on[:, None], k, 1))
        inv = T.constant(1.0 - sm.data)
        cols.append(T.reshape(sm * d_tilde, (bsz, 1, k)))
        final = sm * d_tilde + inv * final
        h = sm * h2 + inv * h
        c = sm * c2 + inv * c
    return T.concat(cols, axis=1), final, steps.copy()


def hgen_forward(item_ids: list[int], query_ids: list[int], clf: ClassifierParams,
                 ved: VedParams, rng: np.random.Generator | None = None,
                 deterministic: bool = True) -> Tensor:
    """Single-pair generated representation as (k, n) columns."""
    enc = encode_pair_batch(
        clf, np.asarray([item_ids], dtype=np.int64), np.array([len(item_ids)]),
        np.asarray([query_ids], dtype=np.int64), np.array([len(query_ids)]))
    states, _, _ = hgen_forward_batch(clf, ved, enc, np.array([len(query_ids)]),
                                      rng=rng, deterministic=deterministic)
    n = states.shape[1]
    return T.transpose_last2(T.reshape(states, (n, states.shape[2])))


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

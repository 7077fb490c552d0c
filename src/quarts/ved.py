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
output projection run over all steps at once. ``decode_step`` runs one
step for inputs chosen as it goes (beam search, ``hgen_forward_batch``)
through the same scan with a single step.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .classifier import (ClassifierParams, LstmParams, encode_batch, init_lstm,
                         lstm_scan, _uniform)
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
    k_states: Tensor        # (B, m, k) title encodings
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
    return EncodedPair(k_states, u, logmask, c)


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


def _decoder_lstm(ved: VedParams, emb_q: Tensor, prev_ids: np.ndarray,
                  mask: np.ndarray, z: Tensor, h: Tensor, c: Tensor,
                  ) -> tuple[Tensor, Tensor, Tensor]:
    """The decoder LSTM over the (B, T) token matrix ``prev_ids``.

    Each real step's input is [token embedding ++ z]; their projections
    are one GEMM over the packed real steps, and the recurrence one
    ``lstm_scan`` (see there for ``mask`` and the outputs).
    """
    x = T.concat([T.lookup(emb_q, prev_ids[mask]), T.lookup(z, np.nonzero(mask)[0])],
                 axis=1)
    lstm = ved.dec.lstm
    return lstm_scan(T.matmul(x, lstm.wx), lstm.wh, lstm.b, mask, h, c)


def _attend(states: Tensor, enc: EncodedPair, ved: VedParams) -> tuple[Tensor, Tensor]:
    """Multiplicative attention of decoder states (B, T, k) over U.

    Returns the attentional states d~ (B, T, k) and the weights (B, T, m+n).
    """
    scores = T.matmul(T.matmul(states, ved.dec.w_a), T.transpose_last2(enc.u_states))
    weights = T.softmax_rows(scores + T.constant(enc.u_logmask[:, None, :]))
    ctx = T.matmul(weights, enc.u_states)
    return T.tanh(T.matmul(T.concat([states, ctx], axis=2), ved.dec.w_c)), weights


def decode_step(prev_ids: np.ndarray, z: Tensor, h: Tensor, c: Tensor,
                enc: EncodedPair, ved: VedParams, emb_q: Tensor,
                ) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """One decoder step over a batch.

    Returns (logits over V_q, attentional state d~, new h, new c, weights);
    the attention weights are untracked.
    """
    bsz = len(prev_ids)
    _, h2, c2 = _decoder_lstm(ved, emb_q, prev_ids[:, None], np.ones((bsz, 1), bool),
                              z, h, c)
    d_tilde, weights = _attend(T.reshape(h2, (bsz, 1, -1)), enc, ved)
    d_tilde = T.reshape(d_tilde, (bsz, -1))
    logits = T.matmul(d_tilde, ved.dec.w_v) + ved.dec.b_v
    return logits, d_tilde, h2, c2, T.constant(weights.data[:, 0])


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
    states, _, _ = _decoder_lstm(ved, clf.emb_q, batch.prev_ids, mask, z, h0, c0)
    d_tilde, _ = _attend(states, enc, ved)
    # the output projection runs on real target steps only
    real = T.lookup(T.reshape(d_tilde, (bsz * width, -1)), np.flatnonzero(mask))
    logp = T.log_softmax_rows(T.matmul(real, ved.dec.w_v) + ved.dec.b_v)
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
    source query's true length). Gradients flow through hidden states and
    attention, not through the argmax token choice. Returns
    (states (B, n, k), final state (B, k), lens) shaped like an encoder's
    output, ready to replace it: ``final`` is each row's state at its last
    step, and columns past a row's length (the row decodes on with the
    batch) are ignored downstream, as attention stops at ``lens``.
    """
    z, _, _ = sample_latent(enc.c, ved.latent, rng=rng,
                            deterministic=deterministic, eps=eps)
    h, c = decoder_init(z, ved.latent)
    bsz = enc.c.shape[0]
    width = int(steps.max())
    prev = np.full(bsz, BOS, dtype=np.int64)
    cols = []
    for _ in range(width):
        logits, d_tilde, h, c, _ = decode_step(prev, z, h, c, enc, ved, clf.emb_q)
        prev = np.argmax(logits.data, axis=1)
        cols.append(d_tilde)
    states = T.reshape(T.concat(cols, axis=1), (bsz, width, -1))
    last = np.arange(bsz) * width + steps - 1
    final = T.lookup(T.reshape(states, (bsz * width, -1)), last)
    return states, final, steps.copy()


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

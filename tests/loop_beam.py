"""Per-pair, per-hypothesis beam search, kept as the reference.

This is the search ``quarts.ved`` ran before it decoded many pairs at
once: each pair encoded as a one-row batch, and one decoder step per live
hypothesis per step, each on one row. ``tests/test_ved.py`` requires
``ved.beam_search`` to return its tokens exactly (``==``) and its scores
to within a relative 1e-12 at float64; only the number of rows each GEMM
rounds together differs between the two.
"""
import numpy as np

from quarts import tensor as T
from quarts import ved as V
from quarts.data import BOS, EOS, pad_matrix


def latent_projection(start, ved, emb_q):
    """z @ W_x's latent rows + b, one row per pair of ``start``: the
    ``zx`` that ``ved.decode_step`` reads."""
    wx, d = ved.dec.lstm.wx.data, emb_q.shape[1]
    return start.z.data @ wx[d:] + ved.dec.lstm.b.data


def decode_one(prev, h, c, start, ved, emb_q):
    """One decoder step of one hypothesis: (masked logits, new h, new c)."""
    wx, d = ved.dec.lstm.wx.data, emb_q.shape[1]
    pre = emb_q.data[prev] @ wx[:d] + latent_projection(start, ved, emb_q)
    d_tilde, h2, c2 = V._decoder_step(pre, h, c, start.u_states.data, start.u_logmask,
                                      ved.dec)[:3]
    return V._logits(d_tilde, ved.dec, prev), h2, c2


def beam_generate(item_ids, query_ids, clf, ved, beam=4, max_len=12):
    """Length-normalized beam search of one pair from the latent mean."""
    start = V.decoder_start(V.encode_pair_batch(clf, *pad_matrix([item_ids]),
                                                *pad_matrix([query_ids])),
                            ved, np.zeros((1, ved.d_z)))

    # live: (tokens, logp_sum, h, c) with (h, c) arrays; finished: (tokens, score)
    live = [([], 0.0, start.h0.data, np.zeros_like(start.h0.data))]
    done = []
    for _ in range(max_len):
        candidates = []
        for tokens, logp, h, c in live:
            prev = np.array([tokens[-1] if tokens else BOS], dtype=np.int64)
            logits, h2, c2 = decode_one(prev, h, c, start, ved, clf.emb_q)
            logprob = T.log_softmax(logits)[0]
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

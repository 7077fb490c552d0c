"""Fused recurrent ops against the unfused per-step compositions.

At float64 the fused LSTM scan, word-by-word attention and decoder, and
the one-pass switched loss, must give the forward values and the
gradients of ``tests/unfused.py`` within a relative 1e-10 (of each
array's largest magnitude); only the order of floating-point operations
differs between the two. The decoder scan's two modes are also held to
each other bit for bit, and leaving its embedding and memory inputs off
the tape must leave every other gradient bit for bit unchanged.
"""
import dataclasses

import pytest

import numpy as np

import loop_beam as L
import unfused as U
from quarts import classifier as C
from quarts import tensor as T
from quarts import ved as V
from quarts.data import BOS, PAD, Batch, TripleExample, make_triple_batch, pad_mask
from quarts.e2e import e2e_batch_loss
from quarts.rng import RunRng
from quarts.tensor import Tape, Tensor

RTOL = 1e-10


def close(got, want):
    want = np.asarray(want)
    scale = np.abs(want).max() if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


def value_and_grads(f, params):
    with Tape(params) as tape:
        out = f()
        grads = tape.backward(out)
    return out.item(), [grads.get(p) for p in params]


def assert_same(fused, unfused, params):
    got, g_got = value_and_grads(fused, params)
    want, g_want = value_and_grads(unfused, params)
    close(got, want)
    for p, a, b in zip(params, g_got, g_want):
        assert (a is None) == (b is None), p
        if a is not None:
            close(a, b)


def models(seed=0, k=4, d=5, vocab=12, d_z=3):
    rng = np.random.default_rng(seed)
    clf = C.init_classifier(rng, vocab, vocab, d, k, dropout=0.0)
    ved = V.init_ved(rng, k, d, d_z, vocab)
    for t in {**clf.named(), **ved.named()}.values():
        t.data *= 4.0   # leave the near-linear regime of the toy init
    return clf, ved, rng


# mixed lengths: one full row, padded rows, a length-1 row
ITEMS = np.array([[4, 5, 6, 7], [8, 9, PAD, PAD], [10, PAD, PAD, PAD]])
ITEM_LENS = np.array([4, 2, 1])
QUERIES = np.array([[6, 7, 8], [4, PAD, PAD], [9, 11, PAD]])
QUERY_LENS = np.array([3, 1, 2])


# the mixed lengths above, and five unsorted rows with ties (2, 4, 1, 4, 2)
RAGGED_TITLES = [(ITEMS, ITEM_LENS),
                 (np.array([[4, 5, PAD, PAD], [6, 7, 8, 9], [10, PAD, PAD, PAD],
                            [11, 4, 5, 6], [7, 8, PAD, PAD]]), np.array([2, 4, 1, 4, 2]))]
RAGGED_QUERIES = [(QUERIES, QUERY_LENS),
                  (np.array([[6, 7, PAD, PAD], [4, 5, 6, 7], [9, PAD, PAD, PAD],
                             [8, 9, 10, 11], [5, 4, PAD, PAD]]), np.array([2, 4, 1, 4, 2]))]


def test_encoder_matches_unfused(f64):
    for ids, lens in RAGGED_TITLES:
        clf, _, rng = models()
        real = pad_mask(lens, ids.shape[1])
        # only real columns are weighted: past each length the two differ by design
        w_states = Tensor(rng.normal(size=ids.shape + (4,)) * real[:, :, None])
        w_final = Tensor(rng.normal(size=(len(ids), 4)))
        outputs = []

        def loss(encode):
            states, final = encode(ids, lens, clf.emb_t, clf.lstm_t)
            outputs.append(states.data)
            return T.sum_axis(T.tanh(states) * w_states) + T.sum_axis(final * w_final)

        assert_same(lambda: loss(C.encode_batch), lambda: loss(U.encode_batch),
                    [clf.emb_t, clf.lstm_t.wx, clf.lstm_t.wh, clf.lstm_t.b])
        got, want = outputs
        close(got[real], want[real])
        assert not got[~real].any()   # exactly zero past each row's length


def test_attention_matches_unfused(f64):
    for (items, item_lens), (queries, query_lens) in zip(RAGGED_TITLES, RAGGED_QUERIES):
        clf, _, rng = models(seed=1)
        w_r = Tensor(rng.normal(size=(len(items), 4)))

        def run(attend):
            ks, _ = C.encode_batch(items, item_lens, clf.emb_t, clf.lstm_t)
            hs, _ = C.encode_batch(queries, query_lens, clf.emb_q, clf.lstm_q)
            return attend(ks, item_lens, hs, query_lens, clf.attn)

        params = list(clf.named().values())[:12]   # embeddings, LSTMs, attention
        assert_same(lambda: T.sum_axis(run(C.wbw_attention_batch)[0] * w_r),
                    lambda: T.sum_axis(run(U.wbw_attention_batch)[0] * w_r), params)
        # score rows agree on real query steps; the fused op zeroes the rest
        _, got = run(C.wbw_attention_batch)
        _, want = run(U.wbw_attention_batch)
        qmask = pad_mask(query_lens, queries.shape[1])
        close(got.data[qmask], want.data[qmask])
        assert not got.data[~qmask].any()


def test_no_padded_step_runs(monkeypatch):
    # a step runs only on the rows still live, however wide the padding
    clf, _, _ = models()
    (items, item_lens), (queries, query_lens) = RAGGED_TITLES[1], RAGGED_QUERIES[1]
    items, queries = np.pad(items, ((0, 0), (0, 3))), np.pad(queries, ((0, 0), (0, 2)))
    stepped = []

    def counted(step):
        def run(live, *args):
            stepped.append(len(live))
            return step(live, *args)
        return run

    monkeypatch.setattr(C, "lstm_cell", counted(C.lstm_cell))
    monkeypatch.setattr(C, "attention_step", counted(C.attention_step))
    with Tape(clf.named().values()):
        ks, _ = C.encode_batch(items, item_lens, clf.emb_t, clf.lstm_t)
        assert sum(stepped) == item_lens.sum()
        hs, _ = C.encode_batch(queries, query_lens, clf.emb_q, clf.lstm_q)
        del stepped[:]
        C.wbw_attention_batch(ks, item_lens, hs, query_lens, clf.attn)
        assert sum(stepped) == query_lens.sum()


def triple_batch():
    return make_triple_batch([TripleExample([4, 5], [6, 7], [8, 6]),
                              TripleExample([6, 7, 8], [5], [4, 7, 9, 10]),
                              TripleExample([6], [5, 9, 9], [4])])


def encode(clf, tb):
    return V.encode_pair_batch(clf, tb.item_ids, tb.item_lens, tb.query_ids,
                               tb.query_lens)


def test_ved_nll_matches_unfused(f64):
    clf, ved, rng = models(seed=2)
    tb = triple_batch()
    eps = rng.standard_normal((3, 3))

    def fused():
        loss, _, _ = V.ved_loss_batch(clf, ved, encode(clf, tb), tb, kl_weight=0.0,
                                      eps=eps)
        return loss

    def unfused():
        return U.ved_nll(clf, ved, V.decoder_start(encode(clf, tb), ved, eps), tb)

    assert_same(fused, unfused, list(clf.named().values()) + list(ved.named().values()))


def test_decode_step_matches_unfused(f64):
    clf, ved, _ = models(seed=3)
    start = scan_start(clf, ved)
    # each row reads its own pair's memory, mask and latent projection
    pair = np.array([2, 0, 0, 1])
    rows = dataclasses.replace(start, u_states=Tensor(start.u_states.data[pair]),
                               u_logmask=start.u_logmask[pair], z=Tensor(start.z.data[pair]))
    h, c = rows.h0.data[pair], np.zeros((4, 4))
    prev = np.array([BOS, 5, 7, BOS])
    got, *got_rest = V.decode_step(prev, h, c, pair, start,
                                   L.latent_projection(start, ved, clf.emb_q), ved, clf.emb_q)
    want, _, *want_rest, _ = U.decode_step(prev, Tensor(h), Tensor(c), rows, ved, clf.emb_q)
    # the logits agree where the decode-time masks leave them
    masked = U.decode_mask(prev, got.shape[1])
    assert masked.sum() == 4 * 3 + 2 and (got[masked] == V._MASK_NEG).all()
    close(got[~masked], want.data[~masked])
    for a, b in zip(got_rest, want_rest):
        close(a, b.data)


def test_hgen_matches_unfused(f64):
    clf, ved, rng = models(seed=4)
    steps = QUERY_LENS   # each row decodes its own query's length
    on = Tensor(np.repeat(pad_mask(steps, 3)[:, :, None], 4, axis=2))
    w_states = Tensor(rng.normal(size=(3, 3, 4)))
    w_final = Tensor(rng.normal(size=(3, 4)))

    def loss(states, final):
        return T.sum_axis(T.tanh(states) * w_states) + T.sum_axis(final * w_final)

    def fused():
        enc = V.encode_pair_batch(clf, ITEMS, ITEM_LENS, QUERIES, QUERY_LENS)
        states, final = V.hgen_forward_batch(clf, ved, enc, np.zeros((3, 3)))
        return loss(states * on, final)

    def unfused():
        return loss(*U.hgen_states(clf, ved, scan_start(clf, ved), steps))

    assert_same(fused, unfused, list(clf.named().values()) + list(ved.named().values()))


def test_hgen_records_independent_of_length():
    clf, ved, _ = models(seed=5)
    # padded to a query width of 7, so every row's query may be up to 7 long
    queries = np.pad(QUERIES, ((0, 0), (0, 4)))
    added = []
    for query_lens in (np.array([2, 1, 2]), np.array([7, 3, 5])):
        enc = V.encode_pair_batch(clf, ITEMS, ITEM_LENS, queries, query_lens)
        with Tape([*clf.named().values(), *ved.named().values()]) as tape:
            before = len(tape)
            V.hgen_forward_batch(clf, ved, enc, np.zeros((3, 3)))
            added.append(len(tape) - before)
    assert added[0] == added[1]


# [1, 0, 0]: the s=1 rows decode 2 steps, short of the width 3, so their
# states are padded; [0, 1, 0]: they decode the full width
@pytest.mark.parametrize("labels", [[1, 0, 0], [0, 1, 0]], ids=["padded", "full"])
def test_e2e_loss_matches_two_sub_batches(f64, labels):
    clf, ved, _ = models(seed=6)
    batch = Batch(ITEMS, ITEM_LENS, QUERIES, QUERY_LENS, np.array(labels, float))
    s = 1 - batch.labels.astype(np.int64)   # p=1: every matched pair switched
    eps = RunRng(0, "finetune").latent.standard_normal((int(s.sum()), 3))

    def one_pass():   # a fresh stream per call draws the same noise
        loss, got = e2e_batch_loss(clf, ved, batch, 1.0, 5.0, RunRng(0, "finetune"))
        np.testing.assert_array_equal(got, s)
        return loss

    assert_same(one_pass, lambda: U.e2e_batch_loss(clf, ved, batch, s, 5.0, eps),
                list(clf.named().values()) + list(ved.named().values()))


def scan_start(clf, ved):
    """The decoder's start on the mixed-length batch, from the latent mean."""
    return V.decoder_start(V.encode_pair_batch(clf, ITEMS, ITEM_LENS, QUERIES, QUERY_LENS),
                           ved, np.zeros((3, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_scan_forced_on_own_choices_equals_free_run(dtype):
    steps = np.array([3, 1, 2])
    with T.using_dtype(dtype):
        clf, ved, _ = models(seed=7)
        start = scan_start(clf, ved)
        free, free_final = V._decoder_scan(clf.emb_q, ved, start, steps, 3)
        prev = [np.full(3, BOS)]
        for t in range(2):
            prev.append(np.argmax(V._logits(free.data[:, t], ved.dec, prev[-1]), axis=1))
        prev = np.stack(prev, axis=1)
        forced, forced_final = V._decoder_scan(clf.emb_q, ved, start, steps, 3, prev)
    real = pad_mask(steps, 3)
    np.testing.assert_array_equal(forced.data[real], free.data[real])
    np.testing.assert_array_equal(forced_final.data, free_final.data)


@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
def test_scan_frozen_inputs_leave_other_gradients(forced):
    clf, ved, rng = models(seed=8)
    steps = np.array([3, 1, 2])
    prev = np.array([[BOS, 5, 6], [BOS, PAD, PAD], [BOS, 7, PAD]]) if forced else None
    w_states = Tensor(rng.normal(size=(3, 3, 4)))

    def grads(params):
        with Tape(params) as tape:
            states, final = V._decoder_scan(clf.emb_q, ved, scan_start(clf, ved), steps,
                                            3, prev)
            return tape.backward(T.sum_axis(T.tanh(states) * w_states) + T.sum_axis(final))

    tracked = grads([*clf.named().values(), *ved.named().values()])
    # the tracked run reaches the embedding, and the title encoder through U
    assert clf.emb_q in tracked and clf.lstm_t.wx in tracked
    untracked = grads(ved.named().values())
    assert clf.emb_q not in untracked and clf.lstm_t.wx not in untracked
    for name, p in ved.named().items():
        assert (p in tracked) == (p in untracked), name
        if p in tracked:
            np.testing.assert_array_equal(untracked[p], tracked[p], err_msg=name)


# five rows, unsorted, with ties in both the longest and a shorter length
ITEMS5 = np.array([[4, 5, 6], [8, PAD, PAD], [10, 11, PAD], [5, 9, 7], [6, PAD, PAD]])
ITEM_LENS5 = np.array([3, 1, 2, 3, 1])
QUERIES5 = np.array([[6, 7], [4, PAD], [9, 11], [5, PAD], [7, 8]])
QUERY_LENS5 = np.array([2, 1, 2, 1, 2])
STEPS5 = np.array([2, 4, 1, 4, 2])
PREV5 = np.array([[BOS, 5, PAD, PAD], [BOS, 6, 7, 8], [BOS, PAD, PAD, PAD],
                  [BOS, 9, 4, 10], [BOS, 11, PAD, PAD]])


@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
def test_packed_scan_matches_unfused_on_ragged_steps(f64, forced):
    clf, ved, rng = models(seed=9)
    prev = PREV5 if forced else None
    eps = rng.standard_normal((5, 3))
    w_states = Tensor(rng.normal(size=(5, 4, 4)))
    w_final = Tensor(rng.normal(size=(5, 4)))
    outputs = []

    def loss(scan):
        states, final = scan(V.decoder_start(
            V.encode_pair_batch(clf, ITEMS5, ITEM_LENS5, QUERIES5, QUERY_LENS5), ved, eps))
        outputs.append((states.data, final.data))
        return T.sum_axis(T.tanh(states) * w_states) + T.sum_axis(final * w_final)

    assert_same(lambda: loss(lambda start: V._decoder_scan(
                    clf.emb_q, ved, start, STEPS5, 4, prev)),
                lambda: loss(lambda start: U.hgen_states(clf, ved, start, STEPS5, prev)),
                list(clf.named().values()) + list(ved.named().values()))
    (got, got_final), (want, want_final) = outputs
    close(got, want)
    close(got_final, want_final)
    assert not got[~pad_mask(STEPS5, 4)].any()   # exactly zero past each row's steps

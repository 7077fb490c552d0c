"""Generator components: triples, latent, decoding, beam search, training."""
import numpy as np
import pytest

import loop_beam as L
from quarts import classifier as C
from quarts import tensor as T
from quarts import ved as V
from quarts.classifier import init_classifier
from quarts.data import BOS, EOS, PAD, UNK, RawPair, TripleExample, batches, make_triple_batch
from quarts.pipeline import triple_memory, ved_loss
from quarts.rng import RunRng
from quarts.tensor import Tape, Tensor
from quarts.config import desk_profile
from quarts.train import EVAL_BATCH_SIZE, fit


def models(seed=0, k=4, d=4, vocab=9, d_z=3):
    rng = np.random.default_rng(seed)
    clf = init_classifier(rng, vocab, vocab, d, k, dropout=0.0)
    ved = V.init_ved(rng, k, d, d_z, vocab)
    return clf, ved


class TestBuildTriples:
    def test_hand_case(self):
        pairs = [RawPair("item one", "qa", 0, "annotated"),
                 RawPair("item one", "qb", 1, "annotated"),
                 RawPair("item two", "qc", 0, "annotated")]
        assert V.build_triples(pairs) == [("item one", "qa", "qb")]

    def test_cross_product(self):
        pairs = ([RawPair("it", f"m{i}", 0, "annotated") for i in range(2)]
                 + [RawPair("it", f"x{i}", 1, "annotated") for i in range(3)])
        assert len(V.build_triples(pairs)) == 6

    def test_only_matched_gives_empty(self):
        pairs = [RawPair("it", "q", 0, "annotated")]
        assert V.build_triples(pairs) == []

    def test_cap_per_item(self):
        pairs = ([RawPair("it", f"m{i}", 0, "annotated") for i in range(5)]
                 + [RawPair("it", f"x{i}", 1, "annotated") for i in range(5)])
        assert len(V.build_triples(pairs, cap=10)) == 10

    def test_oracle_roundtrip_on_corpus_triples(self):
        from quarts.catalog import CatalogSpec, generate_corpus
        labeled, _, oracle = generate_corpus(
            CatalogSpec(items=80, labeled_pairs=400, logs_pairs=10,
                        positive_rate=0.3, seed=3))
        triples = V.build_triples(labeled)
        assert triples
        for title, q, qm in triples[:50]:
            assert oracle.label(title, q) == 0
            assert oracle.label(title, qm) == 1


def enc_of(clf, tb):
    """The shared-encoder record of a triple batch's (title, matched query) rows."""
    return V.encode_pair_batch(clf, tb.item_ids, tb.item_lens, tb.query_ids,
                               tb.query_lens)


def enc_one(clf, item_ids, query_ids):
    """The shared-encoder record of one (item, query) pair."""
    return V.encode_pair_batch(
        clf, np.asarray([item_ids], dtype=np.int64), np.array([len(item_ids)]),
        np.asarray([query_ids], dtype=np.int64), np.array([len(query_ids)]))


def start_one(clf, ved, item_ids, query_ids):
    """The decoder's start for one (item, query) pair, from the latent mean."""
    return V.decoder_start(enc_one(clf, item_ids, query_ids), ved, np.zeros((1, ved.d_z)))


def enc_with_context(c):
    """A one-step record whose final states, side by side, are the rows of c."""
    k = c.shape[1] // 2
    step = np.zeros((len(c), 1, k))
    ones = np.ones(len(c), dtype=np.int64)
    return C.EncodedBatch(Tensor(step), Tensor(c[:, :k]), Tensor(step), Tensor(c[:, k:]),
                          ones, ones)


class TestEncodePair:
    def test_shapes(self, f64):
        clf, ved = models(k=2, d=3)
        start = start_one(clf, ved, [4, 5, 6, 7], [8, 4, 5])
        assert start.u_states.shape == (1, 7, 2)
        assert start.u_logmask.shape == (1, 7)
        assert start.z.shape == start.mu.shape == start.logvar.shape == (1, 3)
        assert start.h0.shape == (1, 2)

    def test_zero_encoder(self, f64):
        clf, ved = models(k=2, d=3)
        for t in clf.named().values():
            t.data[...] = 0.0
        start = start_one(clf, ved, [4, 5], [6])
        np.testing.assert_array_equal(start.u_states.data, np.zeros((1, 3, 2)))
        # a zero context c leaves only the latent biases
        np.testing.assert_array_equal(start.mu.data, ved.lat.b_mu.data[None])


class TestLatent:
    def test_zero_params_pass_noise_through(self, f64):
        _, ved = models()
        for t in ved.named().values():
            t.data[...] = 0.0
        eps = np.array([[0.3, -1.2, 0.7]])
        start = V.decoder_start(enc_with_context(np.ones((1, 8))), ved, eps)
        np.testing.assert_array_equal(start.mu.data, np.zeros((1, 3)))
        np.testing.assert_array_equal(start.logvar.data, np.zeros((1, 3)))
        np.testing.assert_allclose(start.z.data, eps, atol=1e-12)

    def test_deterministic_mode_returns_mean(self, f64):
        clf, ved = models()
        c = np.random.default_rng(0).normal(size=(2, 8))
        start = V.decoder_start(enc_with_context(c), ved, np.zeros((2, 3)))
        np.testing.assert_array_equal(start.z.data, start.mu.data)

    def test_logvar_clamped(self, f64):
        _, ved = models()
        ved.lat.b_logvar.data[...] = 50.0
        start = V.decoder_start(enc_with_context(np.zeros((1, 8))), ved, np.zeros((1, 3)))
        assert start.logvar.data.max() <= V.LOGVAR_MAX


class TestKl:
    def test_standard_normal_is_zero(self, f64):
        kl = V.kl_divergence(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
        assert kl.item() == 0.0

    def test_unit_mean_single_dim(self, f64):
        kl = V.kl_divergence(Tensor([[1.0]]), Tensor([[0.0]]))
        assert abs(kl.item() - 0.5) < 1e-12

    def test_nonnegative_on_random_inputs(self, f64):
        rng = np.random.default_rng(1)
        for _ in range(200):
            mu = Tensor(rng.normal(scale=3, size=(4, 6)))
            logvar = Tensor(rng.uniform(-6, 6, size=(4, 6)))
            assert V.kl_divergence(mu, logvar).item() >= 0.0


def decode_rows(prev_ids, h, c, pair, start, ved, clf):
    """``decode_step`` on rows of the pairs of ``start``, with their latent
    projection as beam search computes it."""
    zx = L.latent_projection(start, ved, clf.emb_q)
    return V.decode_step(prev_ids, h, c, pair, start, zx, ved, clf.emb_q)


class TestDecodeStep:
    def test_attention_weights_sum_to_one(self, f64):
        clf, ved = models()
        start = V.decoder_start(
            V.encode_pair_batch(clf, np.array([[4, 5, 0]]), np.array([2]),
                                np.array([[6, 7]]), np.array([2])), ved, np.zeros((1, 3)))
        h = start.h0.data
        pre = np.random.default_rng(0).normal(size=(1, 4 * h.shape[1]))
        w = V._decoder_step(pre, h, np.zeros_like(h), start.u_states.data, start.u_logmask,
                            ved.dec)[3]
        assert abs(w.sum() - 1.0) < 1e-12
        # padded memory column receives exactly zero weight
        assert w[0, 2] == 0.0

    def test_zero_params_uniform_logits(self, f64):
        clf, ved = models()
        for t in {**clf.named(), **ved.named()}.values():
            t.data[...] = 0.0
        start = start_one(clf, ved, [4, 5], [6])
        h = start.h0.data
        logits, _, _ = decode_rows(np.array([BOS]), h, np.zeros_like(h), np.array([0]), start,
                                   ved, clf)
        want = np.zeros((1, 9))
        want[0, [PAD, UNK, BOS, EOS]] = V._MASK_NEG   # EOS too, after BOS
        np.testing.assert_array_equal(logits, want)


class TestDecodeMasks:
    @pytest.mark.parametrize("beam", [1, 4])
    def test_decoding_never_emits_specials_or_nothing(self, f64, beam):
        # the output layer favours every special token by far, EOS most
        clf, ved = models(seed=9)
        ved.dec.b_v.data[[PAD, UNK, BOS]] = 40.0
        ved.dec.b_v.data[EOS] = 50.0
        out = V.beam_generate([4, 5, 6], [7, 8], clf, ved, beam=beam, max_len=5)
        assert len(out) == beam
        for tokens, score in out:
            assert tokens and not {PAD, UNK, BOS} & set(tokens)
            assert np.isfinite(score)
        # EOS ends every hypothesis as soon as it may: after one token
        assert all(len(tokens) == 1 for tokens, _ in out)


class TestVedLoss:
    def test_uniform_logits_give_log_vocab(self, f64):
        clf, ved = models(vocab=9)
        for t in {**clf.named(), **ved.named()}.values():
            t.data[...] = 0.0
        # the second target reads UNK after BOS, then EOS: teacher forcing
        # scores every id, without the decode-time masks
        tb = make_triple_batch([TripleExample([4, 5], [6], [7, 8]),
                                TripleExample([4, 5], [6], [UNK])])
        loss, nll, kl = V.ved_loss_batch(clf, ved, enc_of(clf, tb), tb, kl_weight=0.0,
                                         eps=np.zeros((2, 3)))   # z = mu
        assert abs(nll - np.log(9)) < 1e-12
        assert kl == 0.0

    def test_zero_weight_is_pure_reconstruction(self, f64):
        clf, ved = models(seed=2)
        tb = make_triple_batch([TripleExample([4, 5], [6], [7, 8]),
                                TripleExample([5, 6, 7], [8], [4])])
        loss, nll, kl = V.ved_loss_batch(clf, ved, enc_of(clf, tb), tb, kl_weight=0.0,
                                         eps=np.zeros((2, 3)))   # z = mu
        assert abs(loss.item() - nll) < 1e-12
        assert kl > 0.0 or kl == 0.0

    def test_loss_decreases_on_toy_set(self):
        # 50 triples, 5 epochs of decoder-only training
        from quarts.catalog import CatalogSpec, generate_corpus
        from quarts.data import build_vocab, tokenize
        labeled, _, _ = generate_corpus(
            CatalogSpec(items=60, labeled_pairs=300, logs_pairs=10,
                        positive_rate=0.4, seed=11))
        text_triples = V.build_triples(labeled)[:50]
        vt = build_vocab([tokenize(p.title) for p in labeled])
        vq = build_vocab([tokenize(p.query) for p in labeled])
        triples = V.encode_triples(text_triples, vt, vq, 16, 8)
        rng = np.random.default_rng(5)
        clf = init_classifier(rng, len(vq), len(vt), 16, 16, dropout=0.0)
        ved = V.init_ved(rng, 16, 16, 8, len(vq))
        run_rng = RunRng(0, "ved")
        records = fit(ved.named(), ved_loss(clf, ved, triples, 5, run_rng),
                      triples, desk_profile(batch_size=16), 3e-3, run_rng,
                      epochs=5, phase="ved", epoch_fields=lambda epoch: {})
        losses = [r.loss for r in records]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_pretraining_leaves_encoder_bitwise_unchanged(self):
        clf, ved = models(seed=4, k=8, d=8, vocab=12, d_z=4)
        before = {k: t.data.copy() for k, t in clf.named().items()}
        triples = [TripleExample([4, 5], [6], [7, 8]),
                   TripleExample([5, 6], [8, 9], [10])]
        run_rng = RunRng(1, "ved")
        fit(ved.named(), ved_loss(clf, ved, triples, 5, run_rng), triples,
            desk_profile(batch_size=2), 1e-3, run_rng, epochs=2, phase="ved",
            epoch_fields=lambda epoch: {})
        for k_, t in clf.named().items():
            np.testing.assert_array_equal(t.data, before[k_], err_msg=k_)


TRIPLES = [TripleExample([4, 5], [6], [7, 8]), TripleExample([5, 6, 7], [8, 4], [4]),
           TripleExample([4, 5], [8, 4], [6, 7, 5]), TripleExample([6], [6], [5, 8]),
           TripleExample([5, 6, 7], [6], [7]), TripleExample([4, 5], [5, 7, 8], [8, 4])]


class TestEncodingCache:
    """VED training encodes each distinct title and matched query once per
    phase (``pipeline.triple_memory``) and gathers each batch's rows."""

    def test_cached_rows_match_encoded_batch(self, f64):
        clf, ved = models(seed=10)
        memory = triple_memory(clf, TRIPLES)
        for batch in batches(TRIPLES, 4, np.random.default_rng(0)):
            eps = np.random.default_rng(1).standard_normal((len(batch.index), 3))
            runs = []
            for enc in (memory(batch), enc_of(clf, batch)):
                with Tape(ved.named().values()) as tape:
                    loss, _, _ = V.ved_loss_batch(clf, ved, enc, batch, 0.5, eps)
                    grads = tape.backward(loss)
                runs.append((enc, loss.item(), [grads[p] for p in ved.named().values()]))
            (cached, loss_c, grads_c), (fresh, loss_f, grads_f) = runs
            cached, fresh = (V.decoder_start(e, ved, eps) for e in (cached, fresh))
            for a, b in ((cached.u_states.data, fresh.u_states.data),
                         (cached.u_logmask, fresh.u_logmask),
                         (cached.z.data, fresh.z.data), (cached.h0.data, fresh.h0.data),
                         *zip(grads_c, grads_f)):
                np.testing.assert_array_equal(a, b)
            assert loss_c == loss_f

    def test_cache_refuses_a_tracked_encoder(self):
        clf, ved = models()
        memory = triple_memory(clf, TRIPLES)
        batch = make_triple_batch(TRIPLES)
        with Tape([*ved.named().values(), clf.head.b1]):   # no encoder tensor
            memory(batch)
        # the whole classifier, or one tensor of the query encoder
        for tracked in (clf.named().values(), [clf.lstm_q.wh]):
            with Tape(tracked), pytest.raises(AssertionError, match="shared encoder"):
                memory(batch)

    def test_ved_step_runs_no_encoder(self, monkeypatch):
        clf, ved = models(seed=11)
        calls = []

        def counted(*args):
            calls.append(Tape.current())
            return scan(*args)

        scan = C.lstm_scan
        monkeypatch.setattr(C, "lstm_scan", counted)
        loss_fn = ved_loss(clf, ved, TRIPLES, 5, RunRng(0, "ved"))
        assert len(calls) == 2   # one batch of titles, one of matched queries
        calls.clear()
        for batch in batches(TRIPLES, 4):
            with Tape(ved.named().values()) as tape:
                loss, _ = loss_fn(batch, 0)
                names = [rule.__qualname__ for _, _, rule in tape._records]
                tape.backward(loss)
            assert not any("lstm_scan" in n for n in names), names
        assert calls == []


class TestGeneration:
    def test_beam_one_equals_greedy(self, f64):
        clf, ved = models(seed=6)
        item, query = [4, 5, 6], [7, 8]
        out = V.beam_generate(item, query, clf, ved, beam=1, max_len=6)
        assert len(out) == 1
        tokens = out[0][0]

        # greedy reference: argmax step by step
        start = start_one(clf, ved, item, query)
        h = start.h0.data
        c = np.zeros_like(h)
        prev, greedy = BOS, []
        for _ in range(6):
            logits, h, c = decode_rows(np.array([prev]), h, c, np.array([0]), start, ved, clf)
            prev = int(np.argmax(logits[0]))
            if prev == EOS:
                break
            greedy.append(prev)
        assert tokens == greedy

    @pytest.mark.parametrize("beam, max_len", [(6, 1), (9, 1), (9, 3)])
    def test_no_masked_token_whatever_the_beam(self, f64, beam, max_len):
        """A beam wider than the tokens a step may emit (five at the first,
        with EOS masked after BOS) returns fewer hypotheses, never a masked
        token or an empty query, as the per-pair reference does."""
        clf, ved = models()
        out = V.beam_generate([4, 5, 6], [4, 5], clf, ved, beam=beam, max_len=max_len)
        if max_len == 1:
            assert sorted(tokens for tokens, _ in out) == [[4], [5], [6], [7], [8]]
        for tokens, score in out:
            assert tokens and not {PAD, UNK, BOS, EOS} & set(tokens) and score > -1e3
        want = L.beam_generate([4, 5, 6], [4, 5], clf, ved, beam=beam, max_len=max_len)
        assert [tokens for tokens, _ in out] == [tokens for tokens, _ in want]
        np.testing.assert_allclose([s for _, s in out], [s for _, s in want], rtol=1e-12)

    def test_max_len_respected(self, f64):
        clf, ved = models(seed=7)
        for tokens, _ in V.beam_generate([4, 5], [6], clf, ved, beam=3, max_len=5):
            assert len(tokens) <= 5

    def test_ranks_in_the_logits_dtype(self):
        """A float64 model decoded with the engine left at float32 is ranked
        on float64 log-probabilities, as it is with the engine at float64."""
        with T.using_dtype(np.float64):
            clf, ved = models(seed=8)
            want = V.beam_generate([4, 5, 6], [7], clf, ved, beam=3, max_len=5)
        assert T.get_default_dtype() is np.float32
        assert V.beam_generate([4, 5, 6], [7], clf, ved, beam=3, max_len=5) == want

    def test_scores_sorted(self, f64):
        clf, ved = models(seed=8)
        out = V.beam_generate([4, 5, 6], [7], clf, ved, beam=4, max_len=6)
        scores = [s for _, s in out]
        assert scores == sorted(scores, reverse=True)


# word ids above the four specials, for scripted decoder steps
A, B, X, Y, Z = 4, 5, 6, 7, 8


class TestBeamRules:
    """Beam search's selection rules, on a scripted decoder step that
    serves the rows of many pairs: a row's logits depend only on its pair
    and its previous token (every other logit -30)."""

    @staticmethod
    def search(monkeypatch, tables, beam, max_len):
        """(beam output per pair; per decoder call, the (pair, token prefix)
        each row extends; the log-probability rows per pair): ``tables[p]``
        maps pair p's previous token to its logits."""
        rows = [TestBeamRules.logit_rows(table) for table in tables]
        calls = []

        def step(prev_ids, h, c, pair, start, zx, ved, emb_q):
            # h carries each row's prefix in place of a decoder state
            prefixes = np.empty(len(prev_ids), dtype=object)
            for i, (state, prev) in enumerate(zip(h, prev_ids)):
                prefixes[i] = (state if isinstance(state, tuple) else ()) + (int(prev),)
            calls.append([(int(p), prefix) for p, prefix in zip(pair, prefixes)])
            logits = np.stack([rows[p][int(prev)] for p, prev in zip(pair, prev_ids)])
            return logits, prefixes, c

        monkeypatch.setattr(V, "decode_step", step)
        clf, ved = models()
        out = V.beam_search([[4, 5]] * len(tables), [[6]] * len(tables), clf, ved,
                            beam=beam, max_len=max_len)
        logp = [{prev: T.log_softmax_rows(Tensor(row[None])).data[0]
                 for prev, row in pair_rows.items()} for pair_rows in rows]
        return out, calls, logp

    @staticmethod
    def logit_rows(table):
        """A pair's logits by previous token, from ``table``: each previous
        token's logits by token, every other logit -30."""
        rows = {}
        for prev, logits in table.items():
            rows[prev] = np.full(9, -30.0, dtype=T.get_default_dtype())
            for tok, value in logits.items():
                rows[prev][tok] = value
        return rows

    @staticmethod
    def reference(monkeypatch, table, beam, max_len):
        """The per-pair loop of ``tests/loop_beam.py``, which has no stop, on
        the scripted step of one pair: (its output, the rows it decoded)."""
        rows, decoded = TestBeamRules.logit_rows(table), []

        def one(prev, h, c, start, ved, emb_q):
            decoded.append(int(prev[0]))
            return rows[int(prev[0])][None], h, c

        monkeypatch.setattr(L, "decode_one", one)
        clf, ved = models()
        return L.beam_generate([4, 5], [6], clf, ved, beam=beam, max_len=max_len), len(decoded)

    @staticmethod
    def score(logp, *path):
        """A path's summed log-probability, added as beam search adds it."""
        total = 0.0
        for prev, tok in zip(path, path[1:]):
            total += float(logp[prev][tok])
        return total

    # a second pair beside each case, with its own finished count: it
    # finishes X and Y at step 2, then only extends XZ and YZ with Z, and
    # stops after step 3 when max_len is 4
    ENDS = {BOS: {X: 0, Y: 0}, X: {EOS: 0, Z: -1}, Y: {EOS: 0, Z: -1}, Z: {Z: 0, EOS: -1}}

    def test_ties_keep_hypothesis_then_rank_order(self, monkeypatch):
        # A, B and X tie after BOS: a hypothesis keeps its best ``beam``
        # tokens, ties in id order, so X goes. A and B then continue
        # alike, and AX and BX tie: the earlier hypothesis ranks first,
        # and AY and BY are cut, since at most ``beam`` hypotheses live.
        table = {BOS: {A: 0, B: 0, X: 0}, A: {X: 0, Y: -1}, B: {X: 0, Y: -1}}
        out, calls, logp = self.search(monkeypatch, [table, self.ENDS], beam=2, max_len=2)
        # each call steps every live row, grouped by pair in hypothesis order
        assert calls == [[(0, (BOS,)), (1, (BOS,))],
                         [(0, (BOS, A)), (0, (BOS, B)), (1, (BOS, X)), (1, (BOS, Y))]]
        # the search stops at max_len, and the live hypotheses are scored logp / len
        s = self.score(logp[0], BOS, A, X) / 2
        assert out[0] == [([A, X], s), ([B, X], s)]
        # the second pair decodes as it does alone
        ends = self.score(logp[1], BOS, X, EOS) / 2
        assert out[1] == [([X], ends), ([Y], ends)]
        assert self.search(monkeypatch, [self.ENDS], beam=2, max_len=2)[0] == [out[1]]

    def test_finishing_stopping_and_final_sort(self, monkeypatch):
        table = {BOS: {A: 0, B: -0.2}, A: {X: 0, EOS: -2}, B: {X: 0, EOS: -2},
                 X: {Y: 0, EOS: -0.5}, Y: {EOS: 0, A: 0, B: 0, X: 0, Z: 0}}
        out, calls, logp = self.search(monkeypatch, [table, self.ENDS], beam=2, max_len=4)
        # step 2 finishes A and B and keeps AX and BX. At step 3, AXY and
        # BXY fill the live list while the finished list holds two, so the
        # search stops there: the AX + EOS candidate is never finished.
        assert [prefix for call in calls for p, prefix in call if p == 0] == [
            (BOS,), (BOS, A), (BOS, B), (BOS, A, X), (BOS, B, X),
            (BOS, A, X, Y), (BOS, B, X, Y)]
        assert calls[2:] == [[(0, (BOS, A, X)), (0, (BOS, B, X)),
                              (1, (BOS, X, Z)), (1, (BOS, Y, Z))],
                             [(0, (BOS, A, X, Y)), (0, (BOS, B, X, Y))]]
        logp = logp[0]
        skipped = self.score(logp, BOS, A, X, EOS) / 3
        # an EOS candidate is scored over its length with the EOS and
        # returned without it; AXYA, live at max_len, is scored logp / 4
        finished = self.score(logp, BOS, A, X, Y, EOS) / 4
        flushed = self.score(logp, BOS, A, X, Y, A) / 4
        assert finished == flushed > self.score(logp, BOS, A, EOS) / 2
        # the final sort is stable: AXY finished before AXYA was flushed
        assert out[0] == [([A, X, Y], finished), ([A, X, Y, A], flushed)]
        # scored over lengths, A + EOS ranks last; by summed log-probability
        # it would beat AXY + EOS
        assert self.score(logp, BOS, A, EOS) > self.score(logp, BOS, A, X, Y, EOS)
        # without the stop, the skipped candidate would rank first
        assert skipped > finished
        assert self.search(monkeypatch, [self.ENDS], beam=2, max_len=4)[0] == [out[1]]

    def test_a_pair_stops_once_its_kept_hypotheses_are_final(self, monkeypatch):
        # A and B finish at step 2, and the live AX and BX fell by -3: even
        # flushed at max_len, neither could reach the finished scores, so the
        # pair stops there while the second pair decodes on to max_len
        table = {BOS: {A: 0, B: 0}, A: {EOS: 0, X: -3}, B: {EOS: 0, X: -3},
                 X: {X: 0, EOS: -1}}
        out, calls, logp = self.search(monkeypatch, [table, self.ENDS], beam=2, max_len=6)
        assert [prefix for call in calls for p, prefix in call if p == 0] == [
            (BOS,), (BOS, A), (BOS, B)]
        assert [len(call) for call in calls] == [2, 4, 2, 2, 2, 2]
        s = self.score(logp[0], BOS, A, EOS) / 2
        assert out[0] == [([A], s), ([B], s)]
        # the loop without the stop returns the same, from more rows for the
        # first pair and as many for the second
        wants = [self.reference(monkeypatch, t, beam=2, max_len=6) for t in (table, self.ENDS)]
        assert out == [want for want, _ in wants]
        assert [sum(p == pair for call in calls for p, _ in call) for pair in (0, 1)] == [3, 11]
        assert [decoded for _, decoded in wants] == [11, 11]


class TestBatchedSearch:
    """``beam_search`` over many pairs against the per-pair reference
    (``tests/loop_beam.py``), on a tiny float64 model whose outputs end
    at every length from 1 to ``max_len``."""

    @staticmethod
    def model_and_pairs(n=300):
        clf, ved = models(seed=0, vocab=12)
        for t in {**clf.named(), **ved.named()}.values():
            t.data *= 2.0   # leave the near-uniform regime of the toy init
        rng = np.random.default_rng(0)
        items = [rng.integers(4, 12, rng.integers(1, 6)).tolist() for _ in range(n)]
        queries = [rng.integers(4, 12, rng.integers(1, 4)).tolist() for _ in range(n)]
        return clf, ved, items, queries

    @pytest.mark.parametrize("beam", [1, 4])
    def test_equals_the_per_pair_loop(self, f64, beam):
        clf, ved, items, queries = self.model_and_pairs()
        assert len(items) > EVAL_BATCH_SIZE   # two chunks
        got = V.beam_search(items, queries, clf, ved, beam=beam, max_len=8)
        want = [L.beam_generate(i, q, clf, ved, beam=beam, max_len=8)
                for i, q in zip(items, queries)]
        assert [[t for t, _ in g] for g in got] == [[t for t, _ in w] for w in want]
        for g, w in zip(got, want):
            np.testing.assert_allclose([s for _, s in g], [s for _, s in w], rtol=1e-12)
        # outputs end at many lengths: greedy ones at each of 1 to max_len
        lengths = {len(tokens) for g in got for tokens, _ in g}
        assert lengths == set(range(1, 9)) if beam == 1 else len(lengths) >= 6

    @pytest.mark.parametrize("beam", [1, 4])
    def test_outputs_are_well_formed(self, f64, beam):
        clf, ved, items, queries = self.model_and_pairs()
        out = V.beam_search(items, queries, clf, ved, beam=beam, max_len=8)
        assert len(out) == len(items)
        for hyps in out:
            assert 1 <= len(hyps) <= beam
            for tokens, score in hyps:
                assert 1 <= len(tokens) <= 8 and np.isfinite(score)
                assert all(type(t) is int and 0 <= t < 12 for t in tokens)
                assert not {PAD, UNK, BOS, EOS} & set(tokens)

    def test_chunks_of_eval_batch_size_in_input_order(self, f64, monkeypatch):
        clf, ved, items, queries = self.model_and_pairs()
        calls = []

        def counted(prev_ids, *args):
            calls.append(len(prev_ids))
            return step(prev_ids, *args)

        step = V.decode_step
        monkeypatch.setattr(V, "decode_step", counted)
        out = V.beam_search(items, queries, clf, ved, beam=1, max_len=8)
        # greedy: one row per pair still decoding, one call per step of a chunk
        assert calls[0] == EVAL_BATCH_SIZE and len(items) - EVAL_BATCH_SIZE in calls
        assert len(calls) <= 2 * 8
        assert out[EVAL_BATCH_SIZE:] == V.beam_search(items[EVAL_BATCH_SIZE:],
                                                      queries[EVAL_BATCH_SIZE:], clf, ved,
                                                      beam=1, max_len=8)

    def test_zero_pairs(self):
        clf, ved = models()
        assert V.beam_search([], [], clf, ved) == []


def hgen_one(clf, ved, item_ids, query_ids, rng=None):
    """Generated query states (1, n, k) for one pair; the latent noise is
    drawn from ``rng``, or zero without one."""
    eps = np.zeros((1, ved.d_z)) if rng is None else rng.standard_normal((1, ved.d_z))
    states, _ = V.hgen_forward_batch(clf, ved, enc_one(clf, item_ids, query_ids), eps)
    return states


class TestHgen:
    def test_shape_matches_query_length(self, f64):
        clf, ved = models(k=5, d=4)
        assert hgen_one(clf, ved, [4, 5, 6, 7], [8, 4, 5]).shape == (1, 3, 5)

    def test_deterministic_mode_repeatable(self, f64):
        clf, ved = models(seed=9)
        a = hgen_one(clf, ved, [4, 5], [6, 7])
        b = hgen_one(clf, ved, [4, 5], [6, 7])
        np.testing.assert_array_equal(a.data, b.data)

    def test_training_mode_uses_latent_stream(self, f64):
        clf, ved = models(seed=9)
        r1 = np.random.default_rng(0)
        r2 = np.random.default_rng(0)
        a = hgen_one(clf, ved, [4, 5], [6, 7], rng=r1)
        b = hgen_one(clf, ved, [4, 5], [6, 7], rng=r2)
        np.testing.assert_array_equal(a.data, b.data)
        c = hgen_one(clf, ved, [4, 5], [6, 7], rng=r1)
        assert not np.array_equal(a.data, c.data)

"""Classifier components: encoder masking, attention, loss, baseline."""
import numpy as np
import pytest

from gradcheck import MODEL_EPS, grad_check
from quarts import classifier as C
from quarts import tensor as T
from quarts import train as TR
from quarts.config import desk_profile
from quarts.data import PAD, Batch, Example, batches, make_batch, pad_matrix
from quarts.rng import RunRng
from quarts.tensor import Tape, Tensor
from quarts.train import evaluate_probs


def zero_classifier(vocab_q=9, vocab_t=9, d=4, k=4):
    p = C.init_classifier(np.random.default_rng(0), vocab_q, vocab_t, d, k)
    for t in p.named().values():
        t.data[...] = 0.0
    return p


def tiny_classifier(seed=0, vocab_q=9, vocab_t=9, d=4, k=4, dropout=0.0):
    return C.init_classifier(np.random.default_rng(seed), vocab_q, vocab_t, d, k,
                             dropout=dropout)


def one_row(ids):
    """A (1, len) id matrix and its length vector."""
    return np.asarray([ids], dtype=np.int64), np.array([len(ids)])


def states_of(ids, emb, lstm):
    return C.encode_batch(*one_row(ids), emb, lstm)[0].data[0]


class TestEncode:
    def test_zero_params_give_zero_states(self, f64):
        p = zero_classifier()
        np.testing.assert_array_equal(states_of([4, 5, 6], p.emb_q, p.lstm_q),
                                      np.zeros((3, 4)))

    def test_single_step_hand_computation(self, f64):
        # one token, k=1: gates = x*wx + b with known numbers
        lstm = C.LstmParams(Tensor(np.full((1, 4), 0.5)),
                            Tensor(np.zeros((1, 4))),
                            Tensor(np.zeros(4)))
        emb = Tensor(np.array([[0.0], [1.0]]))
        h = states_of([1], emb, lstm)
        # gates all 0.5: i=o=f=sigmoid(.5), g=tanh(.5); c=i*g; h=o*tanh(c)
        i = 1 / (1 + np.exp(-0.5))
        c = i * np.tanh(0.5)
        want = i * np.tanh(c)
        np.testing.assert_allclose(h, [[want]], atol=1e-12)

    def test_shape(self, f64):
        p = tiny_classifier()
        states, final = C.encode_batch(*one_row([4, 5, 6, 7, 4]), p.emb_t, p.lstm_t)
        assert states.shape == (1, 5, 4)
        assert final.shape == (1, 4)

    def test_padding_leaves_true_columns_unchanged(self, f64):
        p = tiny_classifier()
        base = states_of([4, 5, 6], p.emb_q, p.lstm_q)
        padded, _ = C.encode_batch(np.array([[4, 5, 6, PAD, PAD]]), np.array([3]),
                                   p.emb_q, p.lstm_q)
        np.testing.assert_array_equal(base, padded.data[0, :3])

    def test_final_state_is_true_length_state(self, f64):
        p = tiny_classifier()
        ids = np.array([[4, 5, 6, PAD, PAD]], dtype=np.int64)
        _, final = C.encode_batch(ids, np.array([3]), p.emb_q, p.lstm_q)
        base = states_of([4, 5, 6], p.emb_q, p.lstm_q)
        np.testing.assert_array_equal(final.data[0], base[2])

    def test_zero_length_rejected(self, f64):
        p = tiny_classifier()
        with pytest.raises(ValueError):
            C.encode_batch(np.array([[4, 5], [PAD, PAD]]), np.array([2, 0]),
                           p.emb_q, p.lstm_q)


def attend_one(k_cols, h_cols, attn):
    """Attention for one pair given (k, m) title and (k, n) query columns."""
    ks = Tensor(k_cols.data.T[None])
    hs = Tensor(h_cols.data.T[None])
    return C.wbw_attention_batch(ks, np.array([ks.shape[1]]), hs,
                                 np.array([hs.shape[1]]), attn)


class TestAttention:
    def test_zero_params_zero_everything(self, f64):
        p = zero_classifier()
        K = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        H = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        r, alpha = attend_one(K, H, p.attn)
        np.testing.assert_array_equal(r.data, np.zeros((1, 4)))
        np.testing.assert_array_equal(alpha.data, np.zeros((1, 3, 5)))

    def test_shapes(self, f64):
        p = tiny_classifier(k=2, d=3)
        K = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        H = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
        r, alpha = attend_one(K, H, p.attn)
        assert r.shape == (1, 2)
        assert alpha.shape == (1, 3, 4)

    def test_gradients_match_finite_differences(self, f64):
        rng = np.random.default_rng(7)
        k = 3
        attn = C.AttentionParams(
            Tensor(rng.normal(scale=0.3, size=(3 * k, k))),
            Tensor(rng.normal(scale=0.3, size=(k,))),
            Tensor(rng.normal(scale=0.3, size=(k, k))),
            Tensor(rng.normal(scale=0.3, size=(k, 3 * k))))
        K = Tensor(rng.normal(size=(k, 4)))
        H = Tensor(rng.normal(size=(k, 2)))

        def loss():
            r, _ = attend_one(K, H, attn)
            return T.sum_axis(r)

        err = grad_check(loss, [attn.w_h, attn.w, attn.w_r])
        assert err < 1e-4

    def test_first_step_ignores_initial_summary(self, f64):
        # r_0 = 0 makes the first score row depend only on K and h_1
        p = tiny_classifier(k=2, d=3)
        K = Tensor(np.random.default_rng(2).normal(size=(2, 3)))
        H1 = Tensor(np.random.default_rng(3).normal(size=(2, 2)))
        H2 = Tensor(np.hstack([H1.data[:, :1], np.ones((2, 1))]))
        _, a1 = attend_one(K, H1, p.attn)
        _, a2 = attend_one(K, H2, p.attn)
        np.testing.assert_allclose(a1.data[0, 0], a2.data[0, 0], atol=1e-12)


class TestCombine:
    def test_equal_inputs_zero_third_block(self, f64):
        k = 3
        w_x = Tensor(np.eye(k, 3 * k))
        r = Tensor(np.array([[0.3, -0.2, 0.5]]))
        h = C.combine(r, r, w_x)
        np.testing.assert_allclose(h.data, np.tanh(r.data), atol=1e-12)

    def test_zero_weight_zero_output(self, f64):
        w_x = Tensor(np.zeros((3, 9)))
        r = Tensor(np.ones((1, 3)))
        q = Tensor(np.zeros((1, 3)))
        np.testing.assert_array_equal(C.combine(r, q, w_x).data, np.zeros((1, 3)))

    def test_gradient_through_absolute_difference(self, f64):
        rng = np.random.default_rng(5)
        w_x = Tensor(rng.normal(scale=0.3, size=(3, 9)))
        r = Tensor(rng.normal(size=(1, 3)) + 2.0)  # away from ties
        q = Tensor(rng.normal(size=(1, 3)) - 2.0)
        err = grad_check(lambda: T.sum_axis(C.combine(r, q, w_x)), [w_x, r, q])
        assert err < 1e-4


def probs_of(p, item_ids, query_ids, item_lens=None, query_lens=None):
    """Eval-mode probabilities for one padded batch (lengths default to widths)."""
    items, queries = np.asarray(item_ids), np.asarray(query_ids)
    if item_lens is None:
        item_lens = np.full(len(items), items.shape[1])
    if query_lens is None:
        query_lens = np.full(len(queries), queries.shape[1])
    enc = C.encode_pair_batch(p, items, np.asarray(item_lens), queries,
                              np.asarray(query_lens))
    return C.batch_probs(p, enc)[0].data


class TestClassify:
    def test_zero_params_half(self, f64):
        p = zero_classifier()
        assert probs_of(p, [[4, 5]], [[4]])[0] == 0.5

    def test_output_in_unit_interval(self, f64):
        p = tiny_classifier(seed=3)
        rng = np.random.default_rng(0)
        items, item_lens = pad_matrix([list(rng.integers(4, 9, size=rng.integers(1, 6)))
                                       for _ in range(10)])
        queries, query_lens = pad_matrix([list(rng.integers(4, 9, size=rng.integers(1, 4)))
                                          for _ in range(10)])
        probs = probs_of(p, items, queries, item_lens, query_lens)
        assert probs.shape == (10,)
        assert np.all((0.0 < probs) & (probs < 1.0))

    def test_eval_deterministic(self):
        p = tiny_classifier(seed=1, dropout=0.1)
        a = probs_of(p, [[4, 5, 6]], [[7, 8]])
        b = probs_of(p, [[4, 5, 6]], [[7, 8]])
        assert a[0] == b[0]

    def test_padding_invariance_bitwise(self):
        p = tiny_classifier(seed=2, dropout=0.1)
        base = probs_of(p, [[4, 5, 6]], [[7, 8]])
        padded = probs_of(p, [[4, 5, 6, PAD, PAD]], [[7, 8, PAD]], [3], [2])
        assert padded[0] == base[0]

    def test_full_model_gradcheck(self, f64):
        p = tiny_classifier(seed=4, dropout=0.0)
        batch_items = np.array([[4, 5]], dtype=np.int64)
        batch_queries = np.array([[6, 7, 8]], dtype=np.int64)
        labels = np.array([1.0])
        params = list(p.named().values())

        def loss():
            probs, _ = C.batch_probs(p, C.encode_pair_batch(
                p, batch_items, np.array([2]), batch_queries, np.array([3])))
            return C.weighted_ce_loss(probs, labels, beta=5.0)

        err = grad_check(loss, params, eps=MODEL_EPS)
        assert err < 1e-4


class TestTape:
    def test_record_count_independent_of_padded_width(self):
        # fused recurrences record once per sequence, not once per step
        p = tiny_classifier(dropout=0.1)

        def records(width):
            items = np.full((2, width), PAD)
            items[:, :3] = [[4, 5, 6], [7, 8, PAD]]
            queries = np.full((2, width), PAD)
            queries[:, :2] = [[5, 6], [7, PAD]]
            batch = Batch(items, np.array([3, 2]), queries, np.array([2, 1]),
                          np.array([0.0, 1.0]))
            with Tape(p.named().values()) as tape:
                C.classifier_batch_loss(p, batch, 5.0, np.random.default_rng(0))
                return len(tape)

        assert records(3) == records(12)

    def test_every_parameter_in_the_map_trains(self):
        """A step trains the map ``fit`` is given: a parameter built as a
        plain tensor, with no mark of its own, trains like every other."""
        p = tiny_classifier(seed=13, dropout=0.1)
        p.head.b1 = Tensor(np.zeros(4))
        rng = np.random.default_rng(13)
        examples = [Example([int(t) for t in rng.integers(4, 9, size=3)],
                            [int(t) for t in rng.integers(4, 9, size=2)], i % 2)
                    for i in range(16)]
        before = {name: t.data.copy() for name, t in p.named().items()}
        run_rng = RunRng(0, "classifier")
        TR.fit(p.named(),
               lambda b, epoch: (C.classifier_batch_loss(p, b, 5.0, run_rng.dropout), {}),
               examples, desk_profile(batch_size=8), 1e-2, run_rng, 2, "classifier",
               lambda epoch: {})
        assert len(before) == 16
        assert [name for name, t in p.named().items()
                if np.array_equal(t.data, before[name])] == []


class TestWeightedCE:
    def test_hand_positive(self, f64):
        loss = C.weighted_ce_loss(Tensor([0.5]), np.array([1.0]), beta=5.0)
        assert abs(loss.item() - 5 * np.log(2)) < 1e-12

    def test_hand_negative(self, f64):
        loss = C.weighted_ce_loss(Tensor([0.5]), np.array([0.0]), beta=5.0)
        assert abs(loss.item() - np.log(2)) < 1e-12

    def test_beta_one_is_standard_bce(self, f64):
        rng = np.random.default_rng(8)
        f = rng.uniform(0.01, 0.99, size=32)
        y = rng.integers(0, 2, size=32).astype(float)
        got = C.weighted_ce_loss(Tensor(f), y, beta=1.0).item()
        want = -np.mean(y * np.log(f) + (1 - y) * np.log(1 - f))
        assert abs(got - want) < 1e-12

    def test_nonnegative(self, f64):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = rng.uniform(1e-9, 1 - 1e-9, size=16)
            y = rng.integers(0, 2, size=16).astype(float)
            assert C.weighted_ce_loss(Tensor(f), y, beta=5.0).item() >= 0.0

    def test_saturated_probs_stay_finite_in_f32(self):
        loss = C.weighted_ce_loss(Tensor([1.0, 0.0]), np.array([0.0, 1.0]), beta=5.0)
        assert np.isfinite(loss.item())


class TestDssm:
    def test_zero_params_half(self, f64):
        p = C.init_dssm(np.random.default_rng(0), 9, 9, 4, 4)
        for t in p.named().values():
            t.data[...] = 0.0
        probs = C.dssm_batch_probs(p, np.array([[4, 5]]), np.array([2]),
                                   np.array([[6]]), np.array([1]))
        assert probs.data[0] == 0.5

    def test_pooled_invariant_to_word_order(self, f64):
        p = C.init_dssm(np.random.default_rng(1), 9, 9, 4, 4)
        items, item_lens = np.array([[4, 5, 6]]), np.array([3])
        a = C.dssm_batch_probs(p, items, item_lens, np.array([[7, 8]]), np.array([2]))
        b = C.dssm_batch_probs(p, items, item_lens, np.array([[8, 7]]), np.array([2]))
        assert abs(a.data[0] - b.data[0]) < 1e-12

    def test_loss_trains(self, f64):
        # one step of full-batch training must not error and must be finite
        p = C.init_dssm(np.random.default_rng(2), 9, 9, 4, 4)
        batch = Batch(np.array([[4, 5], [6, PAD]]), np.array([2, 1]),
                      np.array([[7], [8]]), np.array([1, 1]),
                      np.array([0.0, 1.0]))
        with Tape(p.named().values()) as tape:
            loss = C.dssm_batch_loss(p, batch, beta=5.0)
            tape.backward(loss)
        assert np.isfinite(loss.item())


class TestHeatmap:
    def test_single_token_pair_normalizes_to_one(self, f64):
        p = tiny_classifier(seed=6)
        alpha = C.attention_heatmap([4], [5], p)
        norm = C.normalize_heatmap(alpha)
        assert norm.shape == (1, 1)
        assert norm[0, 0] == 1.0

    def test_dimensions(self, f64):
        p = tiny_classifier(seed=6)
        alpha = C.attention_heatmap([4, 5, 6, 7], [8, 4], p)
        assert alpha.shape == (2, 4)

    def test_rows_normalized_to_unit_range(self, f64):
        p = tiny_classifier(seed=7)
        norm = C.normalize_heatmap(C.attention_heatmap([4, 5, 6], [7, 8], p))
        assert norm.min() >= 0.0 and norm.max() <= 1.0
        for row in norm:
            assert row.max() == 1.0 and row.min() == 0.0

    def test_text_export(self, f64):
        p = tiny_classifier(seed=7)
        norm = C.normalize_heatmap(C.attention_heatmap([4, 5], [6], p))
        text = C.heatmap_text(norm, ["q1"], ["t1", "t2"])
        assert text.startswith("\tt1\tt2\n")
        assert "q1\t" in text


class TestBatchSingleConsistency:
    def test_batched_matches_single_probs(self, f64):
        p = tiny_classifier(seed=9)
        items = np.array([[4, 5, 6], [7, 8, PAD]], dtype=np.int64)
        queries = np.array([[5, 6], [7, PAD]], dtype=np.int64)
        probs = probs_of(p, items, queries, [3, 2], [2, 1])
        one = probs_of(p, [[4, 5, 6]], [[5, 6]])[0]
        two = probs_of(p, [[7, 8]], [[7]])[0]
        np.testing.assert_allclose(probs, [one, two], atol=1e-10)


def batch_probs_of(p, b):
    """Eval-mode probabilities of one ``Batch``, encoded as a whole."""
    enc = C.encode_pair_batch(p, b.item_ids, b.item_lens, b.query_ids, b.query_lens)
    return C.batch_probs(p, enc)[0].data


class TestEvaluateProbs:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_length_grouping_keeps_input_order(self, dtype, monkeypatch):
        monkeypatch.setattr(TR, "EVAL_BATCH_SIZE", 4)
        rng = np.random.default_rng(12)

        def ids(longest):
            return [int(t) for t in rng.integers(4, 9, size=rng.integers(1, longest + 1))]

        examples = [Example(ids(7), ids(5), int(rng.integers(0, 2)))
                    for _ in range(23)]
        with T.using_dtype(dtype):
            p = tiny_classifier(seed=11)
            scores, labels = evaluate_probs(p, examples)
            want = [batch_probs_of(p, b) for b in batches(examples, 4)]
        want = np.concatenate(want)
        assert scores.dtype == want.dtype == dtype
        assert scores.tobytes() == want.tobytes()
        np.testing.assert_array_equal(labels, [e.label for e in examples])

    @staticmethod
    def _repeated_titles(rng, n=40):
        """Examples whose few titles recur; a title of width 1, 2 or 3
        lands in batches of several title widths once length-sorted."""
        titles = [[int(t) for t in rng.integers(4, 9, size=w)] for w in (1, 2, 3, 5, 7, 7)]
        return [Example(titles[int(rng.integers(len(titles)))],
                        [int(t) for t in rng.integers(4, 9, size=rng.integers(1, 6))],
                        int(rng.integers(0, 2))) for _ in range(n)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_titles_match_batch_probs(self, dtype, monkeypatch):
        examples = self._repeated_titles(np.random.default_rng(4))
        bs = 6
        monkeypatch.setattr(TR, "EVAL_BATCH_SIZE", bs)
        ranked = sorted(range(len(examples)), key=lambda i: (
            len(examples[i].query_ids), len(examples[i].item_ids)))
        chunks = [[examples[i] for i in ranked[s:s + bs]]
                  for s in range(0, len(ranked), bs)]
        widths = {}
        for chunk in chunks:
            for e in chunk:
                widths.setdefault(tuple(e.item_ids), set()).add(
                    max(len(x.item_ids) for x in chunk))
        assert any(len(w) > 1 for w in widths.values())
        with T.using_dtype(dtype):
            p = tiny_classifier(seed=5)
            scores, _ = evaluate_probs(p, examples)
            want = np.empty(len(examples), dtype)
            want[ranked] = np.concatenate([
                batch_probs_of(p, b) for b in map(make_batch, chunks)])
        assert scores.dtype == dtype
        assert scores.tobytes() == want.tobytes()

    def test_each_distinct_title_encoded_once(self, monkeypatch):
        examples = self._repeated_titles(np.random.default_rng(6), n=60)
        seen = []

        def counting(ids, lens, emb, lstm):
            if emb is p.emb_t:   # the title encoder; queries are encoded per batch
                seen.extend(tuple(int(t) for t in row[:n]) for row, n in zip(ids, lens))
            return C.encode_batch(ids, lens, emb, lstm)

        monkeypatch.setattr(TR, "encode_batch", counting)
        monkeypatch.setattr(TR, "EVAL_BATCH_SIZE", 4)
        p = tiny_classifier(seed=5)
        for _ in range(2):
            seen.clear()
            evaluate_probs(p, examples)
            assert sorted(seen) == sorted({tuple(e.item_ids) for e in examples})

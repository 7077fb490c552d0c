"""Tokenization, vocabularies, corpus synthesis, splits, batching."""
import numpy as np
import pytest

from quarts import data as D
from quarts import pipeline as P
from quarts.catalog import CatalogSpec, MatchOracle, generate_corpus
from quarts.config import desk_profile


def small_spec(**kw):
    base = dict(items=120, labeled_pairs=600, logs_pairs=300, positive_rate=0.2, seed=7)
    base.update(kw)
    return CatalogSpec(**base)


def is_hard_positive(oracle: MatchOracle, item_title: str, query: str) -> bool:
    """Mismatch whose query type is an accessory neighbor of the item's."""
    item_type, query_type = oracle.resolve(item_title), oracle.resolve(query)
    if item_type is None or query_type is None:
        return False
    return query_type in oracle.spec.accessory_map.get(item_type, [])


class TestTokenize:
    def test_basic(self):
        assert D.tokenize("iPhone 8 plus cases") == ["iphone", "8", "plus", "cases"]

    def test_empty(self):
        assert D.tokenize("") == []

    def test_multiword_query(self):
        assert D.tokenize("kate spade yoga mat") == ["kate", "spade", "yoga", "mat"]

    def test_punctuation_dropped(self):
        assert D.tokenize("100% cotton, king-size!") == ["100", "cotton", "king", "size"]


class TestVocabulary:
    def test_single_token_corpus(self):
        v = D.build_vocab([["a"]])
        assert len(v) == 5
        assert v.encode(["a"]) == [4]

    def test_specials_fixed(self):
        v = D.build_vocab([["x", "y"]])
        assert v.token_to_id["<pad>"] == D.PAD
        assert v.token_to_id["<unk>"] == D.UNK
        assert v.token_to_id["<bos>"] == D.BOS
        assert v.token_to_id["<eos>"] == D.EOS

    def test_independent_sides_get_independent_ids(self):
        vq = D.build_vocab([["shoe", "red"], ["shoe"]])
        vt = D.build_vocab([["red", "shoe", "box"]])
        assert vq.token_to_id["shoe"] != vt.token_to_id["shoe"]

    def test_frequency_then_lexicographic(self):
        v = D.build_vocab([["b", "a", "a", "c", "b"]])
        assert v.decode(v.encode(["a", "b", "c"])) == ["a", "b", "c"]
        # a and b tie at 2, a first; c has 1
        assert v.token_to_id["a"] < v.token_to_id["b"] < v.token_to_id["c"]

    def test_min_count_maps_to_unk(self):
        v = D.build_vocab([["hi", "hi", "rare"]], min_count=2)
        assert v.encode(["rare"]) == [D.UNK]

    def test_empty_corpus_rejected(self):
        with pytest.raises(D.DataError):
            D.build_vocab([])

    def test_roundtrip(self):
        v = D.build_vocab([["alpha", "beta", "beta"]])
        toks = ["beta", "alpha"]
        assert v.decode(v.encode(toks)) == toks


class TestCorpus:
    def test_reproducible(self):
        a = generate_corpus(small_spec())
        b = generate_corpus(small_spec())
        assert [(p.title, p.query, p.label) for p in a[0]] == \
               [(p.title, p.query, p.label) for p in b[0]]
        assert [(p.title, p.query) for p in a[1]] == [(p.title, p.query) for p in b[1]]

    def test_logs_all_carry_label_zero(self):
        _, logs, _ = generate_corpus(small_spec())
        assert logs and all(p.label == 0 and p.source == "logs" for p in logs)

    def test_positive_rate_respected(self):
        labeled, _, _ = generate_corpus(small_spec())
        pos = sum(p.label for p in labeled)
        assert pos == round(600 * 0.2)

    def test_oracle_agrees_with_annotated_labels(self):
        labeled, _, oracle = generate_corpus(small_spec())
        for p in labeled:
            assert oracle.label(p.title, p.query) == p.label

    def test_logs_noise_fraction_is_behaviorally_mislabeled(self):
        _, logs, oracle = generate_corpus(small_spec(logs_noise=0.3))
        truly_mismatched = sum(oracle.label(p.title, p.query) == 1 for p in logs)
        assert truly_mismatched == round(len(logs) * 0.3)

    def test_logs_noise_zero_means_clean(self):
        _, logs, oracle = generate_corpus(small_spec(logs_noise=0.0))
        assert all(oracle.label(p.title, p.query) == 0 for p in logs)

    def test_oracle_same_type_is_match(self):
        _, _, oracle = generate_corpus(small_spec())
        assert oracle.label("alvora running shoes navy", "running shoes") == 0

    def test_oracle_never_matches_across_types(self):
        # exhaustive over a 3-type toy catalog
        spec = CatalogSpec(
            product_types=["running shoes", "insoles", "blender"],
            accessory_map={"running shoes": ["insoles"],
                           "insoles": ["running shoes"],
                           "blender": ["running shoes", "insoles"]},
            items=10, labeled_pairs=30, logs_pairs=10, positive_rate=0.3, seed=1)
        oracle = MatchOracle(spec)
        for t_item in spec.product_types:
            for t_query in spec.product_types:
                want = 0 if t_item == t_query else 1
                assert oracle.label(f"brandx {t_item}", t_query) == want

    def test_hard_positive_detection(self):
        _, _, oracle = generate_corpus(small_spec())
        assert is_hard_positive(oracle, "alvora running shoes", "insoles for running shoes")
        assert not is_hard_positive(oracle, "alvora running shoes", "blender")
        assert not is_hard_positive(oracle, "alvora running shoes", "running shoes")

    def test_hard_positive_example_shape(self):
        # accessory substitution with connective words appears in the corpus
        labeled, _, oracle = generate_corpus(small_spec())
        hard = [p for p in labeled if p.label == 1
                and is_hard_positive(oracle, p.title, p.query)]
        assert len(hard) > 0
        assert any(" for " in p.query for p in hard)

    def test_logs_deduplicated_against_labeled(self):
        labeled, logs, _ = generate_corpus(small_spec())
        labeled_keys = {(p.title, p.query) for p in labeled}
        assert all((p.title, p.query) not in labeled_keys for p in logs)

    def test_capacity_error(self):
        spec = small_spec(items=2, labeled_pairs=5000)
        with pytest.raises(D.DataError, match="capacity"):
            generate_corpus(spec)

    def test_irreflexive_map_enforced(self):
        with pytest.raises(D.DataError, match="irreflexive"):
            CatalogSpec(product_types=["a b", "c"],
                        accessory_map={"a b": ["a b"], "c": ["a b"]},
                        items=1, labeled_pairs=1, logs_pairs=1)

    def test_spec_roundtrip(self, tmp_path):
        spec = small_spec()
        spec.save(tmp_path / "catalog.json")
        again = CatalogSpec.load(tmp_path / "catalog.json")
        assert again == spec


class TestSplit:
    def test_all_train(self):
        labeled, _, _ = generate_corpus(small_spec())
        tr, va, te = D.split_pairs(labeled, (1.0, 0.0, 0.0), seed=0)
        assert len(tr) == len(labeled) and not va and not te

    def test_item_disjoint(self):
        labeled, _, _ = generate_corpus(small_spec())
        tr, va, te = D.split_pairs(labeled, (0.7, 0.15, 0.15), seed=0)
        t1 = {p.title for p in tr}
        t2 = {p.title for p in va}
        t3 = {p.title for p in te}
        assert not (t1 & t2) and not (t1 & t3) and not (t2 & t3)
        assert len(tr) + len(va) + len(te) == len(labeled)

    def test_same_seed_same_split(self):
        labeled, _, _ = generate_corpus(small_spec())
        a = D.split_pairs(labeled, (0.8, 0.1, 0.1), seed=5)
        b = D.split_pairs(labeled, (0.8, 0.1, 0.1), seed=5)
        assert [(p.title, p.query) for p in a[0]] == [(p.title, p.query) for p in b[0]]

    def test_bad_ratios(self):
        with pytest.raises(D.DataError):
            D.split_pairs([], (0.5, 0.2, 0.2), seed=0)

    def test_impossible_split(self):
        pairs = [RawPair := D.RawPair("one title", "q", 0, "annotated")]
        with pytest.raises(D.DataError, match="disjoint"):
            D.split_pairs(pairs, (0.4, 0.3, 0.3), seed=0)


class TestBatching:
    def _examples(self, n):
        return [D.Example([4, 5, 6], [4, 5, 6], i % 2) for i in range(n)]

    def test_batch_sizes(self):
        got = [len(b) for b in D.batches(self._examples(5), 2)]
        assert got == [2, 2, 1]

    def test_no_padding_when_uniform(self):
        for b in D.batches(self._examples(4), 2):
            assert b.query_ids.shape == (2, 3)
            assert (b.query_ids != D.PAD).all()

    def test_true_lengths(self):
        exs = [D.Example([4], [4, 5], 0), D.Example([4, 5, 6, 7], [4], 1)]
        b = next(D.batches(exs, 2))
        np.testing.assert_array_equal(b.item_lens, [1, 4])
        np.testing.assert_array_equal(b.query_lens, [2, 1])
        assert b.item_ids[0, 1] == D.PAD

    def test_pad_matrix_matches_row_loop(self):
        rng = np.random.default_rng(5)
        seqs = [[1]] + [[int(t) for t in rng.integers(4, 40, size=rng.integers(1, 9))]
                        for _ in range(40)] + [[7], [8, 9]]
        mat, lens = D.pad_matrix(seqs)
        want = np.full((len(seqs), max(map(len, seqs))), D.PAD, dtype=np.int64)
        for i, s in enumerate(seqs):
            want[i, :len(s)] = s
        assert (mat.dtype, lens.dtype) == (np.int64, np.int64)
        assert mat.shape == want.shape and mat.tobytes() == want.tobytes()
        np.testing.assert_array_equal(lens, [len(s) for s in seqs])

    def test_shuffle_stream(self):
        exs = self._examples(64)
        r1 = np.random.default_rng(3)
        r2 = np.random.default_rng(3)
        b1 = [b.labels.tolist() for b in D.batches(exs, 8, r1)]
        b2 = [b.labels.tolist() for b in D.batches(exs, 8, r2)]
        assert b1 == b2

    def test_logs_label_enforced(self):
        with pytest.raises(D.DataError):
            D.RawPair("t", "q", 1, "logs")

    def test_invalid_label(self):
        with pytest.raises(D.DataError, match="label must be 0 or 1"):
            D.RawPair("t", "q", 2, "annotated")

    def test_tsv_roundtrip(self, tmp_path):
        pairs = [D.RawPair("alvora running shoes", "running shoes", 0, "annotated"),
                 D.RawPair("alvora running shoes", "insoles", 1, "annotated")]
        D.write_pairs(tmp_path / "x.tsv", pairs)
        again = D.read_pairs(tmp_path / "x.tsv")
        assert [(p.title, p.query, p.label, p.source) for p in again] == \
               [(p.title, p.query, p.label, p.source) for p in pairs]

    def test_unknown_token_maps_to_unk(self):
        vq = D.build_vocab([["known"]])
        vt = D.build_vocab([["title"]])
        exs = D.encode_pairs([D.RawPair("title", "mystery known", 0, "annotated")],
                             vt, vq, 16, 8)
        assert exs[0].query_ids == (D.UNK, vq.token_to_id["known"])

    def test_truncation_from_the_right(self):
        vq = D.build_vocab([[str(i) for i in range(20)]])
        vt = D.build_vocab([[str(i) for i in range(20)]])
        long_text = " ".join(str(i) for i in range(20))
        ex = D.encode_pairs([D.RawPair(long_text, long_text, 0, "annotated")],
                            vt, vq, 16, 8)[0]
        assert len(ex.item_ids) == 16
        assert len(ex.query_ids) == 8
        assert vt.decode(ex.item_ids)[0] == "0"


class TestSharedDataPath:
    """``load_data`` handles each distinct string once, with the results of
    handling every pair on its own."""

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shared")
        P.generate_data(small_spec(), root)
        # short max lengths, so truncation decides some ids
        cfg = desk_profile(max_title_len=3, max_query_len=2)
        return P.load_data(root, cfg), cfg

    def test_examples_equal_per_pair_encoding(self, loaded):
        data, cfg = loaded
        assert data.vocab_q.id_to_token == D.build_vocab(
            D.tokenize(p.query) for p in data.train).id_to_token
        assert data.vocab_t.id_to_token == D.build_vocab(
            D.tokenize(p.title) for p in data.train).id_to_token
        for pairs, examples in ((data.train, data.train_ex), (data.val, data.val_ex),
                                (data.test, data.test_ex),
                                (data.train + data.logs, data.merged_ex)):
            want = [(data.vocab_t.encode(D.tokenize(p.title)[:cfg.max_title_len]),
                     data.vocab_q.encode(D.tokenize(p.query)[:cfg.max_query_len]), p.label)
                    for p in pairs]
            assert [(list(e.item_ids), list(e.query_ids), e.label) for e in examples] == want

    def test_one_ids_tuple_per_distinct_text(self, loaded):
        data, _ = loaded
        first_title, first_query = {}, {}
        for p, e in zip(data.train + data.logs, data.merged_ex):
            assert type(e.item_ids) is tuple and type(e.query_ids) is tuple
            assert first_title.setdefault(p.title, e.item_ids) is e.item_ids
            assert first_query.setdefault(p.query, e.query_ids) is e.query_ids
        assert len(first_title) < len(data.merged_ex)

    def test_records_are_slotted(self, loaded):
        data, _ = loaded
        for record in (data.train[0], data.logs[0], data.train_ex[0], data.merged_ex[-1]):
            assert not hasattr(record, "__dict__")

    def test_read_pairs_shares_equal_strings(self, loaded, tmp_path):
        data, _ = loaded
        D.write_pairs(tmp_path / "x.tsv", data.train)
        pairs = D.read_pairs(tmp_path / "x.tsv")
        by_text = {}
        for p in pairs:
            for text in (p.title, p.query, p.source):
                assert by_text.setdefault(text, text) is text

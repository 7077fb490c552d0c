"""Metric correctness against brute-force oracles and hand-computed cases."""
import itertools

import numpy as np
import pytest

import loop_metrics as L
from quarts import metrics as M
from quarts.catalog import CatalogSpec, MatchOracle


# --- independent oracles -------------------------------------------------

def ap_bruteforce(scores, labels):
    """Recount precision/recall from scratch at every unique score."""
    thresholds = sorted(set(scores), reverse=True)
    total_pos = sum(labels)
    ap, prev_recall = 0.0, 0.0
    for thr in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= thr and y == 1)
        predicted = sum(1 for s in scores if s >= thr)
        precision = tp / predicted
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def f1_bruteforce(scores, labels):
    """Best F1 over an exhaustive threshold grid, direct counting."""
    cands = sorted(set(scores))
    grid = [cands[0] - 1.0]
    for a, b in zip(cands[:-1], cands[1:]):
        grid.append((a + b) / 2)
    grid.append(cands[-1] + 1.0)
    best = 0.0
    for thr in grid:
        tp = sum(1 for s, y in zip(scores, labels) if s > thr and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s > thr and y == 0)
        fn = sum(1 for s, y in zip(scores, labels) if s <= thr and y == 1)
        if tp:
            best = max(best, 2 * tp / (2 * tp + fp + fn))
    return best


def bleu_bruteforce(cand, ref, max_order=4):
    """BLEU-1..4 via explicit n-gram scanning, no Counter machinery."""
    if not cand:
        return [0.0] * max_order
    precisions = []
    for n in range(1, max_order + 1):
        cgrams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
        rgrams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
        match = 0
        for g in set(cgrams):
            match += min(cgrams.count(g), rgrams.count(g))
        precisions.append(match / len(cgrams) if cgrams else 0.0)
    bp = 1.0 if len(cand) >= len(ref) else np.exp(1 - len(ref) / len(cand))
    out = []
    for n in range(1, max_order + 1):
        ps = precisions[:n]
        if any(p == 0 for p in ps):
            out.append(0.0)
        else:
            prod = 1.0
            for p in ps:
                prod *= p
            out.append(bp * prod ** (1.0 / n))
    return out


def random_instance(rng, n_max=50):
    n = rng.integers(2, n_max + 1)
    scores = rng.choice(np.round(rng.uniform(0, 1, size=n), 2), size=n)
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[rng.integers(n)] = 1
    return scores.astype(float), labels.astype(int)


# --- average precision ---------------------------------------------------

class TestAveragePrecision:
    def test_perfect_separation(self):
        assert M.average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_hand_case(self):
        got = M.average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert abs(got - (0.5 * 1.0 + 0.5 * (2 / 3))) < 1e-12
        assert abs(got - 0.833333333) < 1e-6

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            s, y = random_instance(rng)
            base = M.average_precision(s, y)
            assert abs(M.average_precision(3 * s + 2, y) - base) < 1e-12
            assert abs(M.average_precision(np.exp(s), y) - base) < 1e-12

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s, y = random_instance(rng)
            assert abs(M.average_precision(s, y) - ap_bruteforce(list(s), list(y))) < 1e-9

    def test_no_positives_rejected(self):
        with pytest.raises(M.MetricError):
            M.average_precision([0.5], [0])

    def test_ties_share_a_rank(self):
        # both tied items enter together: one positive, one negative at 0.5
        got = M.average_precision([0.5, 0.5], [1, 0])
        assert got == 0.5


class TestF1Best:
    def test_perfect(self):
        f1, thr = M.f1_best([0.9, 0.1], [1, 0])
        assert f1 == 1.0 and 0.1 < thr < 0.9

    def test_all_positive(self):
        f1, thr = M.f1_best([0.3, 0.6], [1, 1])
        assert f1 == 1.0
        assert thr < 0.3

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s, y = random_instance(rng)
            got, _ = M.f1_best(s, y)
            assert abs(got - f1_bruteforce(list(s), list(y))) < 1e-9

    def test_f1_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s, y = random_instance(rng)
            f1a, _ = M.f1_best(s, y)
            f1b, _ = M.f1_best(10 * s - 4, y)
            assert abs(f1a - f1b) < 1e-12

    def test_tie_breaks_to_higher_threshold(self):
        # predict-everything and predict-top-only both reach F1 = 2/3;
        # the sweep must report the higher threshold (midpoint 0.7)
        f1, thr = M.f1_best([0.9, 0.5, 0.4, 0.2], [1, 0, 0, 1])
        assert abs(f1 - 2 / 3) < 1e-12
        assert abs(thr - 0.7) < 1e-12


RANKING = [M.average_precision, M.pr_curve, M.f1_best]


def assert_same_as_loop(s, y):
    """AP, PR points and best F1 equal the per-rank loop bit for bit."""
    assert M.average_precision(s, y) == L.average_precision(s, y)
    assert M.pr_curve(s, y).points == L.pr_curve(s, y).points
    f1, thr = M.f1_best(s, y)
    assert (f1, thr) == L.f1_best(s, y)
    assert M.f1_at_threshold(s, y, thr) == f1


class TestMalformedInput:
    @pytest.mark.parametrize("fn", RANKING)
    def test_length_mismatch_rejected(self, fn):
        with pytest.raises(M.MetricError):
            fn([0.9, 0.5, 0.1], [0, 0, 1, 1, 1])

    @pytest.mark.parametrize("fn", RANKING)
    def test_no_scores_rejected(self, fn):
        with pytest.raises(M.MetricError):
            fn([], [])

    @pytest.mark.parametrize("fn", RANKING)
    def test_non_binary_label_rejected(self, fn):
        with pytest.raises(M.MetricError):
            fn([0.9, 0.5], [2, 0])


class TestLoopAgreement:
    def test_random_tied_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            assert_same_as_loop(*random_instance(rng))

    def test_all_positive_and_single_score(self):
        assert_same_as_loop(np.array([0.3, 0.6, 0.6]), np.array([1, 1, 1]))
        assert_same_as_loop(np.array([0.4]), np.array([1]))
        assert_same_as_loop(np.array([0.4, 0.4, 0.4]), np.array([0, 1, 0]))

    def test_midpoint_rounding_onto_a_neighbour(self):
        # (a + b) / 2 rounds down onto a and (b + c) / 2 up onto c, so the
        # count of scores above a threshold must not be read off its rank
        a = 1.0
        b = np.nextafter(a, 2.0)
        c = np.nextafter(b, 2.0)
        assert (a + b) / 2.0 == a and (b + c) / 2.0 == c
        s = np.array([a, b, c, b])
        for y in itertools.product((0, 1), repeat=4):
            if any(y):
                assert_same_as_loop(s, np.array(y))

    def test_thirty_thousand_scores(self):
        rng = np.random.default_rng(8)
        s = np.round(rng.uniform(size=30_000), 4)
        y = (rng.uniform(size=30_000) < s).astype(int)
        assert_same_as_loop(s, y)


class TestPrCurve:
    def test_matches_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s, y = random_instance(rng)
            assert M.pr_curve(s, y).points == L.pr_curve(s, y).points

    def test_recall_rises_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            s, y = random_instance(rng)
            pts = M.pr_curve(s, y).points
            recall = [r for _, _, r in pts]
            assert all(a <= b for a, b in zip(recall, recall[1:]))
            assert recall[-1] == 1.0
            assert [t for t, _, _ in pts] == sorted(set(s.tolist()), reverse=True)


class TestBleu:
    def test_identity(self):
        rep = M.corpus_bleu([("the cat sat".split(), "the cat sat".split())])
        assert rep.bleu == [1.0, 1.0, 1.0] or all(abs(b - 1) < 1e-12 for b in rep.bleu[:3])
        assert rep.brevity_penalty == 1.0

    def test_hand_case_brevity(self):
        rep = M.corpus_bleu([(list("abcd"), list("abcde"))])
        assert abs(rep.brevity_penalty - np.exp(-0.25)) < 1e-12
        assert abs(rep.bleu[0] - np.exp(-0.25)) < 1e-12

    def test_empty_candidate_all_zero(self):
        rep = M.corpus_bleu([([], ["a"])])
        assert rep.bleu == [0.0, 0.0, 0.0, 0.0]

    def test_empty_reference_rejected(self):
        with pytest.raises(M.MetricError):
            M.corpus_bleu([(["a"], [])])

    def test_zero_precision_zeroes_higher_orders(self):
        rep = M.corpus_bleu([(["a", "c"], ["a", "b"])])
        assert rep.bleu[0] > 0
        assert rep.bleu[1] == 0.0 and rep.bleu[3] == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        alphabet = list("abcde")
        for _ in range(300):
            cand = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
            ref = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
            got = M.corpus_bleu([(cand, ref)]).bleu
            want = bleu_bruteforce(cand, ref)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_corpus_matches_bruteforce_aggregation(self):
        rng = np.random.default_rng(5)
        alphabet = list("abc")
        pairs = []
        for _ in range(20):
            cand = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 7))]
            ref = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 7))]
            pairs.append((cand, ref))
        rep = M.corpus_bleu(pairs)
        # aggregate counts by hand with the brute-force counter
        match = np.zeros(4)
        total = np.zeros(4)
        clen = rlen = 0
        for cand, ref in pairs:
            for n in range(1, 5):
                cg = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
                rg = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
                match[n - 1] += sum(min(cg.count(g), rg.count(g)) for g in set(cg))
                total[n - 1] += len(cg)
            clen += len(cand)
            rlen += len(ref)
        bp = 1.0 if clen >= rlen else np.exp(1 - rlen / clen)
        for n in range(1, 5):
            ps = [match[i] / total[i] if total[i] else 0.0 for i in range(n)]
            want = 0.0 if any(p == 0 for p in ps) else bp * np.exp(np.mean(np.log(ps)))
            assert abs(rep.bleu[n - 1] - want) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cand = [str(i) for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            ref = [str(i) for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            assert all(0.0 <= b <= 1.0 for b in M.corpus_bleu([(cand, ref)]).bleu)


class TestGenerationAccuracy:
    @pytest.fixture
    def oracle(self):
        return MatchOracle(CatalogSpec(items=1, labeled_pairs=1, logs_pairs=1))

    def test_copies_score_zero(self, oracle):
        pairs = [("alvora running shoes navy", "running shoes navy")] * 3
        rep = M.generation_accuracy(pairs, oracle)
        assert rep.accuracy == 0.0 and rep.matched == 3

    def test_accessory_substitution_scores_one(self, oracle):
        pairs = [("alvora running shoes navy", "insoles for running shoes"),
                 ("welkin wrist watch", "watch band")]
        rep = M.generation_accuracy(pairs, oracle)
        assert rep.accuracy == 1.0 and rep.mismatched == 2

    def test_unresolvable_excluded_unless_accessory_token(self, oracle):
        pairs = [("alvora running shoes navy", "zzz qqq"),       # unresolvable
                 ("alvora running shoes navy", "laces zzz")]     # token of "shoe laces"
        rep = M.generation_accuracy(pairs, oracle)
        assert rep.unresolvable == 1
        assert rep.mismatched == 1
        assert rep.accuracy == 1.0


class TestKnn:
    def test_cosine_self(self):
        v = np.array([1.0, 2.0, -3.0])
        [(i, sim)] = M.knn(v, v[None, :], top_k=1)
        assert i == 0 and abs(sim - 1.0) < 1e-12

    def test_zero_vector_scores_zero(self):
        assert M.knn(np.zeros(3), np.ones((1, 3)), top_k=1) == [(0, 0.0)]
        got = M.knn(np.ones(3), np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        assert got[0] == (0, 0.0) and got[1][1] < 0.0

    def test_excludes_self_and_orders(self):
        corpus = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        got = M.knn(corpus[0], corpus, top_k=2, exclude=0)
        assert [i for i, _ in got] == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        corpus = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        got = M.knn(np.array([1.0, 0.0]), corpus, top_k=3)
        assert [i for i, _ in got] == [0, 1, 2]

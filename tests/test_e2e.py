"""Switch semantics and the mixed objective."""
import gc
import weakref

import numpy as np

from quarts import tensor as T
from quarts.classifier import classifier_batch_loss, init_classifier
from quarts.data import Batch, TripleExample, make_triple_batch
from quarts.e2e import e2e_batch_loss, sample_switches
from quarts.pipeline import ved_loss
from quarts.rng import RunRng
from quarts.tensor import Tape
from quarts.ved import encode_pair_batch, init_ved, ved_loss_batch


def models(seed=0, k=4, d=4, vocab=9, d_z=3, dropout=0.1):
    rng = np.random.default_rng(seed)
    clf = init_classifier(rng, vocab, vocab, d, k, dropout=dropout)
    ved = init_ved(rng, k, d, d_z, vocab)
    return clf, ved


def toy_batch(labels):
    n = len(labels)
    rng = np.random.default_rng(42)
    items = rng.integers(4, 9, size=(n, 3)).astype(np.int64)
    queries = rng.integers(4, 9, size=(n, 2)).astype(np.int64)
    return Batch(items, np.full(n, 3), queries, np.full(n, 2),
                 np.asarray(labels, dtype=np.float64))


class TestSwitch:
    def test_real_positive_never_switches(self):
        s = sample_switches(np.ones(100), 0.99, np.random.default_rng(0))
        assert s.sum() == 0

    def test_matched_with_z_one(self):
        s = sample_switches(np.zeros(200), 0.5, np.random.default_rng(1))
        z = (np.random.default_rng(1).random(200) < 0.5).astype(np.int64)
        assert (s == 1).any()
        np.testing.assert_array_equal(s, z)

    def test_matched_with_z_zero(self):
        assert sample_switches(np.zeros(1), 0.0, np.random.default_rng(2)).sum() == 0

    def test_vectorized_identity(self):
        labels = np.array([0, 1, 0, 1, 0])
        s = sample_switches(labels, 0.8, np.random.default_rng(3))
        assert s[labels == 1].sum() == 0
        assert set(s) <= {0, 1}

    def test_fraction_converges(self):
        # 10k draws at p=0.3 with q = y=0 fraction: within 3 standard errors
        rng = np.random.default_rng(4)
        labels = (rng.random(10000) < 0.4).astype(np.int64)  # 60% matched
        s = sample_switches(labels, 0.3, np.random.default_rng(5))
        q = (labels == 0).mean()
        expect = 0.3 * q
        se = np.sqrt(expect * (1 - expect) / len(labels))
        assert abs(s.mean() - expect) <= 3 * se

    def test_stream_alignment_independent_of_labels(self):
        # same stream position regardless of label composition
        a = sample_switches(np.zeros(8, dtype=int), 0.5, np.random.default_rng(9))
        b = sample_switches(np.array([0, 1] * 4), 0.5, np.random.default_rng(9))
        # z draws identical; s differs only where y=1
        assert all(x == y for x, y in zip(a[::2], b[::2]))


class TestE2ELoss:
    def test_p_zero_is_classifier_loss_bitwise(self):
        clf, ved = models()
        batch = toy_batch([0, 1, 0, 0])
        rng_a = RunRng(7, "finetune")
        loss_a, s = e2e_batch_loss(clf, ved, batch, p=0.0, beta=5.0, rng=rng_a)
        assert s.sum() == 0
        rng_b = RunRng(7, "finetune")
        loss_b = classifier_batch_loss(clf, batch, 5.0, rng_b.dropout)
        assert loss_a.item() == loss_b.item()

    def test_all_positive_batch_never_generates(self):
        clf, ved = models()
        batch = toy_batch([1, 1, 1])
        rng = RunRng(8, "finetune")
        loss, s = e2e_batch_loss(clf, ved, batch, p=0.999, beta=5.0, rng=rng)
        assert s.sum() == 0
        assert np.isfinite(loss.item())

    def test_forced_switch_gives_generator_gradients(self):
        with T.using_dtype(np.float64):
            clf, ved = models(dropout=0.0)
            batch = toy_batch([0, 0])
            rng = RunRng(9, "finetune")
            with Tape([*clf.named().values(), *ved.named().values()]) as tape:
                loss, s = e2e_batch_loss(clf, ved, batch, p=1.0, beta=5.0, rng=rng)
                grads = tape.backward(loss)
            assert s.sum() == 2
            total = sum(np.abs(grads[t]).sum() for t in ved.named().values()
                        if t in grads)
            assert total > 0.0

    def test_mixed_batch_uses_proxy_positive_weight(self):
        # a generated example is a positive: beta scales its term
        with T.using_dtype(np.float64):
            clf, ved = models(dropout=0.0)
            batch = toy_batch([0])
            rng1 = RunRng(10, "finetune")
            loss_b5, _ = e2e_batch_loss(clf, ved, batch, 1.0, 5.0, rng1)
            rng2 = RunRng(10, "finetune")
            loss_b1, _ = e2e_batch_loss(clf, ved, batch, 1.0, 1.0, rng2)
            assert abs(loss_b5.item() - 5 * loss_b1.item()) < 1e-12

    def test_switch_stream_isolated_from_dropout(self):
        # loss at p=0 must not depend on how many switch draws happen
        clf, ved = models()
        batch = toy_batch([0, 0, 0])
        rng_a = RunRng(11, "finetune")
        _ = rng_a.switch.random(999)  # burn the switch stream only
        loss_a, _ = e2e_batch_loss(clf, ved, batch, 0.0, 5.0, rng_a)
        rng_b = RunRng(11, "finetune")
        loss_b, _ = e2e_batch_loss(clf, ved, batch, 0.0, 5.0, rng_b)
        assert loss_a.item() == loss_b.item()


def test_latent_draws_match_a_plain_generator():
    """A VED batch draws (B, d_z) and a switched batch (s.sum(), d_z)
    standard normals from the latent stream, and nothing else: the stream
    alignment that keeps checkpoints bitwise equal."""
    clf, ved = models()
    rng = RunRng(5, "finetune")
    triples = [TripleExample([4, 5], [6], [7, 8]), TripleExample([5, 6, 7], [8], [4]),
               TripleExample([6], [7, 8], [5])]
    ved_loss(clf, ved, triples, 5, rng)(make_triple_batch(triples), 0)
    _, s = e2e_batch_loss(clf, ved, toy_batch([0, 1, 0, 0, 1]), 1.0, 5.0, rng)
    assert s.sum() == 3
    plain = RunRng(5, "finetune").latent
    plain.standard_normal((3, ved.d_z))
    plain.standard_normal((3, ved.d_z))
    assert rng.latent.bit_generator.state == plain.bit_generator.state


def test_tape_freed_when_block_ends():
    """A step's tape, with every activation it cached, dies with its block,
    even with the cycle collector off: nothing the parameters or a backward
    rule hold keeps it alive."""
    clf, ved = models()
    batch = toy_batch([0, 1, 0])
    triples = make_triple_batch([TripleExample([4, 5], [6], [7, 8])])

    def ved_step(rng):
        enc = encode_pair_batch(clf, triples.item_ids, triples.item_lens,
                                triples.query_ids, triples.query_lens)
        return ved_loss_batch(clf, ved, enc, triples, 0.5,
                              rng.latent.standard_normal((1, ved.d_z)))[0]

    steps = [
        lambda rng: classifier_batch_loss(clf, batch, 5.0, rng.dropout),
        ved_step,
        lambda rng: e2e_batch_loss(clf, ved, batch, 1.0, 5.0, rng)[0],
    ]
    gc.disable()
    try:
        for step in steps:
            with Tape([*clf.named().values(), *ved.named().values()]) as tape:
                loss = step(RunRng(0, "finetune"))
                tape.backward(loss)
            ref = weakref.ref(tape)
            del tape, loss
            assert ref() is None
    finally:
        gc.enable()

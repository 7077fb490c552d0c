"""Finite-difference verification of tape gradients: the float64
gradcheck suite that ``test_tensor.py`` runs over every op and model loss.

The whole suite runs in float64; checking in float32 is meaningless at
eps=1e-5 and is rejected. Functions under check must be pure and
deterministic: anything stochastic (dropout masks, latent noise) has to
be pinned by the caller before checking.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from quarts import tensor as T
from quarts.classifier import (AttentionParams, EncodedBatch, Ragged, batch_probs,
                               dssm_batch_probs, encode_pair_batch, init_classifier,
                               init_dssm, lstm_scan, wbw_attention_batch, weighted_ce_loss)
from quarts.data import Batch, TripleExample, make_triple_batch
from quarts.e2e import e2e_batch_loss
from quarts.rng import RunRng
from quarts.tensor import Tape, Tensor
from quarts.ved import decoder_start, hgen_forward_batch, init_ved, ved_loss_batch


# Step ladder for deep compositions. No single step serves every
# coordinate: cancellation noise ~1e-16/(2*eps) dominates near-zero
# gradients at small steps, while truncation ~f'''*eps^2/6 dominates
# high-curvature coordinates at large ones. A coordinate passes if any
# step in the ladder agrees, which is how the two regimes are told apart
# from genuine gradient bugs (those agree at no step). Steps are tried in
# order, the one most coordinates agree at first.
MODEL_EPS = (1e-4, 1e-3, 1e-5)

# A coordinate that agrees this closely at one step skips the rest of the
# ladder: later steps could only lower its error, and every tolerance in
# use is orders of magnitude looser.
AGREED = 1e-8

TOLERANCE = 1e-4   # the suite's bound on each check's max relative error


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float | Sequence[float] = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8) per
    coordinate; with several step sizes each coordinate keeps its best
    agreement. ``f`` rebuilds the scalar loss from the current parameter
    values on every call and must be pure.
    """
    if T.get_default_dtype() is not np.float64:
        raise RuntimeError("grad_check requires the engine in float64 mode")
    steps = (eps,) if isinstance(eps, float) else tuple(eps)
    with Tape(params) as tape:
        grads = tape.backward(f())

    worst = 0.0
    for p in params:
        analytic = grads.get(p, np.zeros_like(p.data))
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            best = np.inf
            for h in steps:
                flat[i] = orig + h
                fp = float(f().data)
                flat[i] = orig - h
                fm = float(f().data)
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * h)
                denom = max(abs(numeric), abs(aflat[i]), 1e-8)
                best = min(best, abs(numeric - aflat[i]) / denom)
                if best <= AGREED:
                    break
            worst = max(worst, best)
    return worst


def _p(rng, *shape) -> Tensor:
    return Tensor(rng.uniform(-0.9, 0.9, size=shape))


def op_checks(seed: int = 0) -> list[tuple[str, float]]:
    """Run every registered op through grad_check on small random shapes."""
    rng = np.random.default_rng(seed)
    results = []

    def run(name, params, build):
        results.append((name, grad_check(lambda: build(), params)))

    a = _p(rng, 3, 4)
    b = _p(rng, 4, 2)
    run("matmul_2d", [a, b], lambda: T.mean_all(T.matmul(a, b)))

    ba = _p(rng, 2, 3, 4)
    bb = _p(rng, 2, 4, 3)
    run("matmul_batched_pair", [ba, bb], lambda: T.mean_all(T.matmul(ba, bb)))

    x = _p(rng, 3, 4)
    y = _p(rng, 3, 4)
    row = _p(rng, 4)
    run("add", [x, y], lambda: T.mean_all(T.add(x, y)))
    run("add_row_broadcast", [x, row], lambda: T.mean_all(T.add(x, row)))
    run("sub", [x, y], lambda: T.mean_all(T.sub(x, y)))
    run("mul", [x, y], lambda: T.mean_all(T.mul(x, y)))
    run("mul_row_broadcast", [x, row], lambda: T.mean_all(T.mul(x, row)))
    run("scale", [x], lambda: T.mean_all(T.scale(x, -2.5)))
    run("tanh", [x], lambda: T.mean_all(T.tanh(x)))
    run("sigmoid", [x], lambda: T.mean_all(T.sigmoid(x)))
    run("log_sigmoid_chain", [x], lambda: T.mean_all(T.log(T.sigmoid(x))))
    run("exp", [x], lambda: T.mean_all(T.exp(x)))

    # keep abs and clamp away from their kinks
    xa = Tensor(rng.uniform(0.2, 0.9, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4)))
    run("abs", [xa], lambda: T.mean_all(T.absval(xa)))
    run("clamp_interior", [x], lambda: T.mean_all(T.clamp(x, -5.0, 5.0)))

    run("log_softmax_rows", [x], lambda: T.mean_all(T.mul(T.log_softmax_rows(x), row)))

    def fixed_dropout():
        r = np.random.default_rng(7)
        return T.mean_all(T.dropout(x, 0.4, r))

    run("dropout_fixed_mask", [x], fixed_dropout)

    c1 = _p(rng, 2, 3)
    c2 = _p(rng, 2, 5)
    crow = _const_row(rng, 8)
    run("concat_axis1", [c1, c2],
        lambda: T.mean_all(T.mul(T.concat([c1, c2], axis=1), crow)))

    table = _p(rng, 6, 3)
    ids = np.array([0, 2, 2, 5])
    run("lookup", [table], lambda: T.mean_all(T.lookup(table, ids)))

    pc = _p(rng, 4, 5)
    cols = np.array([1, 0, 4, 2])
    run("pick_columns", [pc], lambda: T.mean_all(T.pick_columns(pc, cols)))

    run("mean_all", [x], lambda: T.mean_all(x))
    run("sum_all", [x], lambda: T.sum_axis(x))
    run("sum_axis0", [x], lambda: T.mean_all(T.sum_axis(x, axis=0)))
    run("sum_axis1", [x], lambda: T.mean_all(T.sum_axis(x, axis=1)))
    ct = _const(rng, 4, 3)
    run("transpose", [x], lambda: T.mean_all(T.mul(T.transpose_last2(x), ct)))
    cr = _const(rng, 2, 6)
    run("reshape", [x], lambda: T.mean_all(T.mul(T.reshape(x, (2, 6)), cr)))

    # fused recurrences on mixed-length batches with padded rows
    k = 3
    lens = np.array([3, 1, 2])
    xw = _p(rng, int(lens.sum()), 4 * k)
    wh, bias = _p(rng, k, 4 * k), _p(rng, 4 * k)
    cs, ch = _const(rng, 3, 3, k), _const(rng, 3, k)

    def scan():
        states, h = lstm_scan(xw, wh, bias, Ragged(lens, 3))
        return T.sum_axis(states * cs) + T.sum_axis(h * ch)

    run("lstm_scan", [xw, wh, bias], scan)

    ks, hs = _p(rng, 3, 4, k), _p(rng, 3, 3, k)
    attn = AttentionParams(_p(rng, 3 * k, k), _p(rng, k), _p(rng, k, k), _p(rng, k, 3 * k))
    item_lens = np.array([4, 2, 1])
    cr2 = _const(rng, 3, k)
    run("wbw_attention", [ks, hs, attn.w_h, attn.w, attn.w_r],
        lambda: T.sum_axis(wbw_attention_batch(ks, item_lens, hs, lens, attn)[0] * cr2))
    return results


def _const(rng, *shape):
    return Tensor(rng.uniform(-1, 1, size=shape))


def _const_row(rng, n):
    return Tensor(rng.uniform(-1, 1, size=(n,)))


def model_checks(seed: int = 0) -> list[tuple[str, float]]:
    """Gradient-check full model losses on toy shapes.

    Everything runs at k=4 with 2-3 token sequences and a 9-token
    vocabulary, with all stochastic inputs pinned: dropout off, latent
    noise passed in explicitly, and the switch forced by p=1 with a fresh
    ``RunRng`` per call, so every call draws the same noise.
    """
    rng = np.random.default_rng(seed)
    vocab = 9
    d = k = 4
    clf = init_classifier(rng, vocab, vocab, d, k, dropout=0.0)
    ved = init_ved(rng, k, d, d_z=3, vocab_q=vocab)
    # widen the toy init so |r - q| ties and argmax logit gaps sit far
    # outside the finite-difference steps
    for t in {**clf.named(), **ved.named()}.values():
        t.data *= 4.0
    results = []

    items = np.array([[4, 5], [6, 7]], dtype=np.int64)
    item_lens = np.array([2, 2])
    queries = np.array([[6, 7, 8], [8, 4, 0]], dtype=np.int64)
    query_lens = np.array([3, 2])
    labels = np.array([1.0, 0.0])

    def clf_loss():
        probs, _ = batch_probs(clf, encode_pair_batch(clf, items, item_lens, queries,
                                                      query_lens))
        return weighted_ce_loss(probs, labels, beta=5.0)

    results.append(("classifier_loss",
                    grad_check(clf_loss, list(clf.named().values()), eps=MODEL_EPS)))

    dssm = init_dssm(rng, vocab, vocab, d, k)

    def dssm_loss():
        probs = dssm_batch_probs(dssm, items, item_lens, queries, query_lens)
        return weighted_ce_loss(probs, labels, beta=5.0)

    results.append(("dssm_loss",
                    grad_check(dssm_loss, list(dssm.named().values()), eps=MODEL_EPS)))

    # ragged targets: the last triple's mismatched query is one token short
    triples = [TripleExample([4, 5], [6, 7], [8, 6]),
               TripleExample([6, 7, 8], [5], [4, 7]),
               TripleExample([5], [7, 8], [6])]
    tb = make_triple_batch(triples)
    eps_lat = rng.standard_normal((3, 3))

    def ved_loss():
        enc = encode_pair_batch(clf, tb.item_ids, tb.item_lens, tb.query_ids,
                                tb.query_lens)
        loss, _, _ = ved_loss_batch(clf, ved, enc, tb, 0.7, eps_lat)
        return loss

    ved_params = list(clf.named().values()) + list(ved.named().values())
    results.append(("ved_loss", grad_check(ved_loss, ved_params, eps=MODEL_EPS)))

    def latent_reparam():
        row = T.reshape(T.tanh(clf.attn.w), (1, k))
        enc = EncodedBatch(T.reshape(row, (1, 1, k)), row, T.reshape(row, (1, 1, k)), row,
                           np.array([1]), np.array([1]))
        return T.sum_axis(decoder_start(enc, ved, eps_lat[:1]).z)

    results.append(("latent_reparameterization",
                    grad_check(latent_reparam,
                               [ved.lat.w_mu, ved.lat.w_logvar, clf.attn.w],
                               eps=MODEL_EPS)))

    def hgen_scalar():
        enc = encode_pair_batch(clf, items, item_lens, queries, query_lens)
        states, _ = hgen_forward_batch(clf, ved, enc, np.zeros((2, 3)))
        return T.sum_axis(T.tanh(states))

    err = grad_check(hgen_scalar, list(ved.named().values()), eps=MODEL_EPS)
    results.append(("hgen_states", err))

    ones_labels = np.array([0.0, 0.0])  # matched pairs: the switch can flip them
    batch = Batch(items, item_lens, queries, query_lens, ones_labels)

    def e2e_forced():
        loss, s = e2e_batch_loss(clf, ved, batch, 1.0, 5.0, RunRng(seed, "finetune"))
        assert s.sum() == 2
        return loss

    all_params = list(clf.named().values()) + list(ved.named().values())
    results.append(("e2e_loss_forced_switch",
                    grad_check(e2e_forced, all_params, eps=MODEL_EPS)))
    return results


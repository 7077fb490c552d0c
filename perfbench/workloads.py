"""The three benchmark workloads, each a closed loop with one client.

Every workload synthesizes its corpus from the seed (800 items, 4000
labeled pairs), sets up three times (``setup_s`` is the median), then
repeats a round of work until the run's time is used, at least twice.
A training throughput divides the examples of a phase by its wall time,
val pass included. The eval stage repeats the same work within a round
and uses the median repeat. Every throughput reported is the median over
rounds.

* ``train-desk``: the pipeline phases at the desk profile, one full epoch
  each (classifier, triples, VED, e2e with p=0.3), then a test-split
  evaluation of the e2e model and a small generation pass.
* ``train-paper``: the same at the paper profile (k=300, B=128), each
  training phase capped at 512 examples (four batches).
* ``infer``: set-up trains the model (classifier and VED one desk epoch
  each, then e2e capped at 640 examples); the round scores about 28k
  distinct pairs, runs beam-4 generation on held-out matched pairs and the
  beam-1 ``evaluate_generation`` path. No tape, no backward pass.

All workloads report every end-to-end metric; on ``infer`` the training
throughputs come from the set-up's phases.
"""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quarts import metrics as M
from quarts import pipeline as P
from quarts import train as TR
from quarts import ved as V
from quarts.catalog import CatalogSpec
from quarts.config import desk_profile, paper_profile
from quarts.data import tokenize

import spans

ITEMS = 800
LABELED_PAIRS = 4000
SETUPS = 3
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str                  # "desk" or "paper"
    logs_pairs: int
    caps: dict                    # phase -> examples per epoch (absent: full)
    gen_pairs: int                # held-out matched pairs for beam-4
    train_in_setup: bool
    schedule: tuple               # inference stages of a round, in order


WORKLOADS = {
    "train-desk": Workload("train-desk", "desk", 3000, {}, 16, False,
                           ("eval",) * 4 + ("beam4",) + ("eval",) * 4 + ("beam1",)),
    "train-paper": Workload("train-paper", "paper", 3000,
                            {"clf": 512, "ved": 512, "e2e": 512}, 8, False,
                            ("eval", "beam4", "eval", "beam1")),
    "infer": Workload("infer", "desk", 27000, {"e2e": 640}, 20, True,
                      ("beam4", "beam1", "eval", "beam4", "beam1")),
}

TRAIN_RATES = ("clf_ex_per_s", "ved_triples_per_s", "e2e_ex_per_s")
TRAIN_OUTPUTS = TRAIN_RATES + ("val_aupr",)
# Generation throughputs are reported, not gated: single-row decoding is
# interpreter-bound and swings with the host more than the gate allows.
GEN_RATES = ("gen_beam4_pairs_per_s", "gen_beam1_pairs_per_s")


class Clock:
    """Wall time of each run of a named stage; tags recorder spans.

    Garbage left by earlier stages is collected before the clock starts,
    so a stage is not charged for another stage's cyclic garbage.
    """

    def __init__(self, rec=None):
        self.rec = rec
        self.laps: dict[str, list[float]] = {}

    @contextmanager
    def stage(self, name: str):
        if self.rec is not None:
            self.rec.stage = name
        gc.collect()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.laps.setdefault(name, []).append(time.perf_counter() - t0)

    def median(self, name: str) -> float:
        return statistics.median(self.laps[name])

    @property
    def total(self) -> float:
        return sum(sum(laps) for laps in self.laps.values())


@dataclass
class State:
    """What set-up hands to the rounds."""
    cfg: object
    data: object
    eval_examples: list
    eval_labels: np.ndarray
    beam_pairs: list              # (item ids, query ids)
    gen_split: list               # raw pairs for evaluate_generation
    gen_expected: int             # triples evaluate_generation must score
    train: dict = field(default_factory=dict)   # infer: phase rates
    model: tuple | None = None    # infer: (clf, ved)
    digests: dict = field(default_factory=dict)


def _config(wl: Workload, seed: int):
    make = desk_profile if wl.profile == "desk" else paper_profile
    return make(seed=seed, clf_epochs=1, ved_epochs=1, e2e_epochs=1)


def _subset(items: list, cap: int | None, seed: int, salt: int) -> list:
    if not cap or cap >= len(items):
        return items
    rng = np.random.default_rng([seed, salt])
    return [items[i] for i in np.sort(rng.choice(len(items), cap, replace=False))]


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def train_phases(wl: Workload, cfg, data, run_dir: Path, clock: Clock) -> dict:
    """Pipeline phases 1-5, one epoch each, through the public phase API."""
    seed = cfg.seed
    clf_data = dataclasses.replace(
        data, train_ex=_subset(data.train_ex, wl.caps.get("clf"), seed, 1))
    with clock.stage("clf"):
        clf, _ = P.phase_pretrain_classifier(cfg, clf_data, run_dir)
    with clock.stage("triples"):
        P.phase_build_triples(cfg, data, run_dir)
    triples = P.read_triples(run_dir)
    capped = _subset(triples, wl.caps.get("ved"), seed, 2)
    if len(capped) < len(triples):
        with open(run_dir / P.CKPT_TRIPLES, "w", encoding="utf-8") as fh:
            fh.writelines(f"{t}\t{q}\t{qm}\n" for t, q, qm in capped)
    with clock.stage("ved"):
        P.phase_pretrain_ved(cfg, data, run_dir, clf=clf)
    e2e_data = dataclasses.replace(
        data, merged_ex=_subset(data.merged_ex, wl.caps.get("e2e"), seed, 3))
    with clock.stage("e2e"):
        clf, ved, records = P.phase_train_e2e(cfg, e2e_data, run_dir)
    return {
        "clf_ex_per_s": len(clf_data.train_ex) / clock.median("clf"),
        "ved_triples_per_s": len(capped) / clock.median("ved"),
        "e2e_ex_per_s": len(e2e_data.merged_ex) / clock.median("e2e"),
        "val_aupr": float(records[-1].aupr),
        "model": (clf, ved),
        "digests": {name: _sha(run_dir / ckpt) for name, ckpt in (
            ("clf", P.CKPT_CLASSIFIER), ("ved", P.CKPT_VED), ("e2e", P.CKPT_E2E))},
    }


def setup(wl: Workload, seed: int, root: Path, clock: Clock, checks) -> State:
    cfg = _config(wl, seed)
    data_dir = root / "data"
    with clock.stage("generate_data"):
        P.generate_data(CatalogSpec(items=ITEMS, labeled_pairs=LABELED_PAIRS,
                                    logs_pairs=wl.logs_pairs, seed=seed), data_dir)
    with clock.stage("load_data"):
        data = P.load_data(data_dir, cfg)
    if wl.train_in_setup:
        pairs = data.val + data.test + data.logs
        with clock.stage("oracle_label"):
            found = [data.oracle.label(p.title, p.query) for p in pairs]
        checks.require(None not in found, "oracle could not label a scored pair")
        labels = np.array([1.0 if y else 0.0 for y in found])
        examples = data.val_ex + data.test_ex + data.merged_ex[len(data.train_ex):]
    else:
        examples = data.test_ex
        labels = np.array([float(e.label) for e in examples])
    matched = [p for p in data.test if p.label == 0][:wl.gen_pairs]
    checks.require(len(matched) == wl.gen_pairs, "too few held-out matched pairs")
    beam_pairs = [(data.vocab_t.encode(tokenize(p.title)[:cfg.max_title_len]),
                   data.vocab_q.encode(tokenize(p.query)[:cfg.max_query_len]))
                  for p in matched]
    gen_split = data.val + data.test
    state = State(cfg, data, examples, labels, beam_pairs, gen_split,
                  len(V.build_triples(gen_split, cap=1)),
                  digests={"train_tsv": _sha(data_dir / "train.tsv")})
    if wl.train_in_setup:
        run_dir = root / "run"
        out = train_phases(wl, cfg, data, run_dir, clock)
        with clock.stage("load_model"):
            state.model = P.load_bundle(cfg, data, run_dir, P.CKPT_E2E,
                                        need="train-e2e")
        state.train = {k: out[k] for k in TRAIN_OUTPUTS}
        state.digests.update(out["digests"])
    return state


def run_round(wl: Workload, state: State, root: Path, clock: Clock, checks) -> dict:
    cfg, data = state.cfg, state.data
    result: dict = {}
    if wl.train_in_setup:
        clf, ved = state.model
        result.update(state.train)
    else:
        out = train_phases(wl, cfg, data, root, clock)
        clf, ved = out["model"]
        result.update({k: out[k] for k in TRAIN_OUTPUTS})
        result["digests"] = dict(out["digests"])

    def evaluate():
        scores, _ = TR.evaluate_probs(clf, state.eval_examples)
        M.average_precision(scores, state.eval_labels)
        M.pr_curve(scores, state.eval_labels)
        M.f1_best(scores, state.eval_labels)
        return scores

    def beam4():
        return [V.beam_generate(item, query, clf, ved, beam=cfg.beam_size,
                                max_len=cfg.gen_max_len)
                for item, query in state.beam_pairs]

    def beam1():
        return P.evaluate_generation(cfg, data, clf, ved, state.gen_split)

    # Inference stages repeat the same work, interleaved as the schedule
    # says so that each samples the whole block; rates use the median repeat.
    stages = {"eval": evaluate, "beam4": beam4, "beam1": beam1}
    out = {}
    for name in wl.schedule:
        with clock.stage(name):
            out[name] = stages[name]()
    scores, gens, (bleu, acc, n) = out["eval"], out["beam4"], out["beam1"]
    checks.require(len(scores) == len(state.eval_examples), "missing scores")
    checks.require(len(gens) == len(state.beam_pairs), "missing beam-4 generations")
    checks.require(n == state.gen_expected and acc.total == n,
                   f"evaluate_generation scored {n} of {state.gen_expected} pairs")
    checks.require(all(np.isfinite(b) and 0.0 <= b <= 1.0 for b in bleu.bleu),
                   f"BLEU out of range: {bleu.bleu}")

    result.update({
        "eval_pairs_per_s": len(scores) / clock.median("eval"),
        "gen_beam4_pairs_per_s": len(gens) / clock.median("beam4"),
        "gen_beam1_pairs_per_s": n / clock.median("beam1"),
        "beam4_empty_share": float(np.mean([len(g[0][0]) == 0 for g in gens])),
        "gen_mismatch_acc": acc.accuracy,
        "bleu": bleu.bleu,
    })
    result.setdefault("digests", {}).update({
        "scores": _digest(scores),
        "generations": _digest(np.array([tok for g in gens for toks, _ in g for tok in toks]
                                        + [len(toks) for g in gens for toks, _ in g])),
    })
    return result


def _same(checks, what: str, a: dict, b: dict) -> None:
    checks.require(a == b, f"{what} differ between repeats: {a} vs {b}")


def measure(wl: Workload, seed: int, seconds: float, root: Path, checks) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics and the information record."""
    inst = spans.Instrumentation(checks)
    try:
        return _measure(wl, seed, seconds, root, checks)
    finally:
        inst.remove()


def _measure(wl: Workload, seed: int, seconds: float, root: Path, checks) -> tuple[dict, dict]:
    setups, states = [], []
    for i in range(SETUPS):
        clock = Clock()
        states.append(setup(wl, seed, root / f"setup{i}", clock, checks))
        setups.append(clock.total)
        _same(checks, "set-up digests", states[0].digests, states[-1].digests)
    state = states[-1]

    rounds = []
    stage_laps: dict = {}
    start = time.perf_counter()
    while True:
        clock = Clock()
        rounds.append(run_round(wl, state, root / f"round{len(rounds)}", clock, checks))
        for stage, laps in clock.laps.items():
            stage_laps.setdefault(stage, []).extend(round(t, 5) for t in laps)
        _same(checks, "round digests", rounds[0]["digests"], rounds[-1]["digests"])
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > seconds:
            break

    metrics = {"setup_s": statistics.median(setups)}
    for name in TRAIN_RATES:
        source = [s.train for s in states] if wl.train_in_setup else rounds
        metrics[name] = statistics.median(r[name] for r in source)
    metrics["eval_pairs_per_s"] = statistics.median(r["eval_pairs_per_s"] for r in rounds)
    last = rounds[-1]
    info = {"rounds": len(rounds), "measured_s": round(elapsed, 3),
            "per_round": {k: [round(r[k], 4) for r in rounds] for k in
                          (() if wl.train_in_setup else TRAIN_RATES)
                          + ("eval_pairs_per_s",) + GEN_RATES},
            "setup_runs_s": [round(s, 4) for s in setups],
            "laps_s": stage_laps,
            "eval_pairs": len(state.eval_examples),
            "beam4_pairs": len(state.beam_pairs), "beam1_pairs": state.gen_expected,
            "val_aupr": last["val_aupr"], "gen_empty_rate": last["beam4_empty_share"],
            "gen_mismatch_acc": last["gen_mismatch_acc"], "beam1_bleu": last["bleu"],
            "ckpt_sha": {**state.digests, **last["digests"]}}
    return metrics, info


def traced(wl: Workload, seed: int, root: Path, checks) -> tuple[dict, list, object]:
    """One untraced then one traced set-up and round; per-layer metrics."""
    inst = spans.Instrumentation(checks)
    try:
        t0 = time.perf_counter()
        state = setup(wl, seed, root / "plain-setup", Clock(), checks)
        plain = run_round(wl, state, root / "plain-round", Clock(), checks)
        untraced_s = time.perf_counter() - t0
    finally:
        inst.remove()

    rec = spans.Recorder()
    inst = spans.Instrumentation(checks, rec)
    try:
        t0 = time.perf_counter()
        state = setup(wl, seed, root / "traced-setup", Clock(rec), checks)
        rec.scope = "round"
        clock = Clock(rec)
        result = run_round(wl, state, root / "traced-round", clock, checks)
        traced_s = time.perf_counter() - t0
    finally:
        inst.remove()
    _same(checks, "traced and untraced digests", plain["digests"], result["digests"])

    metrics = spans.layer_metrics(rec, inst.absent)
    metrics["train.val_aupr"] = result["val_aupr"]
    metrics.update({k: result[k] for k in GEN_RATES})
    metrics["ved.beam4_empty_share"] = result["beam4_empty_share"]
    metrics["metrics.gen_mismatch_acc"] = result["gen_mismatch_acc"]
    metrics["trace.coverage"] = rec.covered("round") / clock.total
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    return metrics, inst.absent, rec

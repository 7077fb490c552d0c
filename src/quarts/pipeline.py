"""Phase orchestration: data synthesis through end-to-end training and eval.

The training schedule is: (1) pretrain the classifier on annotated data,
(2) build (item, matched, mismatched) triples, (3) pretrain the generator
decoder with the shared encoder held fixed, (4) concatenate annotated and
logs data, (5) switched end-to-end training.

Each ``phase_*`` holds only its model, its data, the batch loss, the
parameter map it hands to ``train.fit`` (what the phase trains) and its
``epoch_fields`` (``train.val_pass``, or the KL weight for generator
pretraining): its loss's stats and those fields are what its epoch
records hold. ``_phase`` does the rest for all of them, from the run dir
to the checkpoint and the phase's entry in ``manifest.json``, the run
dir's one record, which holds the phase's config and epoch records too.
Classifier pretraining and the augment baseline run one body,
``_classifier_phase``, on different data. ``load_bundle`` reads every
checkpoint back. It refuses one whose manifest entry records other token
ids than the data dir and config give (``DataBundle.ids``), and one that
lacks a part its caller names (classifier or generator). Phases,
evaluation and the CLI tools run inside ``run_dtype``, so none leaves the
engine dtype set.

Each phase derives fresh random substreams from (seed, phase), so a
later phase's draws never depend on how much randomness an earlier phase
consumed. The baseline trainer reuses the end-to-end phase streams when
resuming, which makes ``train-e2e --p 0`` and a resumed baseline run
bitwise comparable.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import metrics as M
from . import tensor as T
from .catalog import CatalogSpec, MatchOracle, generate_corpus
from .checkpoint import load_arrays, assign_params, save_params
from .classifier import (ClassifierParams, DssmParams, EncodedBatch, classifier_batch_loss,
                         dssm_batch_loss, init_classifier, init_dssm)
from .config import RunConfig, RunManifest, atomic_write, file_sha256
from .data import (DataError, Example, RawPair, TripleBatch, TripleExample, Vocabulary,
                   build_vocab, encode_pairs, read_pairs, split_pairs, tokenize,
                   write_pairs)
from .e2e import e2e_batch_loss
from .rng import RunRng
from .train import (EVAL_BATCH_SIZE, EVAL_GROUPING, EpochRecord, encode_distinct,
                    evaluate_probs, fit, val_pass)
from .ved import (VedParams, beam_search, build_triples, encode_triples, init_ved,
                  kl_weight_at, ved_loss_batch)

log = logging.getLogger(__name__)

LABELED_TSV = "labeled.tsv"
LOGS_TSV = "logs.tsv"
CATALOG_JSON = "catalog.json"
SPLITS = ("train", "val", "test")

CKPT_CLASSIFIER = "phase1_classifier.qrts"
CKPT_TRIPLES = "triples.tsv"
CKPT_VED = "phase3_ved.qrts"
CKPT_E2E = "phase5_e2e.qrts"
CKPT_DSSM = "baseline_dssm.qrts"
CKPT_AUGMENT = "baseline_augment.qrts"

# The command that writes each checkpoint, named when one is missing.
WRITTEN_BY = {CKPT_CLASSIFIER: "pretrain-classifier", CKPT_VED: "pretrain-ved",
              CKPT_E2E: "train-e2e", CKPT_DSSM: "train-baseline --kind dssm",
              CKPT_AUGMENT: "train-baseline --kind augment"}

class PipelineError(RuntimeError):
    """A phase is missing its prerequisites; the message names the fix."""


def run_dtype(cfg: RunConfig):
    """The run's precision as a scope: ``with run_dtype(cfg): ...``."""
    return T.using_dtype(np.float64 if cfg.precision == "f64" else np.float32)


# --- data ------------------------------------------------------------------

def generate_data(spec: CatalogSpec, out_dir, ratios=(0.7, 0.15, 0.15)) -> dict:
    """Write labeled.tsv, logs.tsv, catalog.json, split files, and a manifest."""
    # split before the first write, so rejected ratios leave no partial data dir
    labeled, logs, _ = generate_corpus(spec)
    splits = split_pairs(labeled, tuple(ratios), spec.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_pairs(out / LABELED_TSV, labeled)
    write_pairs(out / LOGS_TSV, logs)
    spec.save(out / CATALOG_JSON)
    for name, pairs in zip(SPLITS, splits):
        write_pairs(out / f"{name}.tsv", pairs)
    manifest = {
        "seed": spec.seed,
        "counts": {"labeled": len(labeled), "logs": len(logs),
                   **{name: len(p) for name, p in zip(SPLITS, splits)}},
        "positive_rate": spec.positive_rate,
        "files": {name: file_sha256(out / name)
                  for name in [LABELED_TSV, LOGS_TSV, CATALOG_JSON]
                  + [f"{s}.tsv" for s in SPLITS]},
    }
    with atomic_write(out / "data_manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


@dataclass
class DataBundle:
    """A data dir read for one run config: the raw pairs of each split and of
    the logs, the vocabularies built on the train split, and the encoded
    examples. Records are slotted; each distinct title and query is
    tokenized and encoded once, so its examples share one immutable tuple
    of ids.

    ``ids`` records what those ids mean: a digest of each vocabulary's
    token list (``vocab_q``, ``vocab_t``) and the truncation lengths
    (``max_title_len``, ``max_query_len``). Each phase writes it into its
    manifest entry, and ``load_bundle`` compares the entry with it."""
    train: list[RawPair]
    val: list[RawPair]
    test: list[RawPair]
    logs: list[RawPair]
    oracle: MatchOracle
    vocab_q: Vocabulary
    vocab_t: Vocabulary
    train_ex: list[Example]
    val_ex: list[Example]
    test_ex: list[Example]
    merged_ex: list[Example]  # annotated train + logs, phase-4 data
    files: dict[str, str]     # content hash of each file read, by name
    ids: dict                 # what the token ids mean, as above


def load_data(data_dir, cfg: RunConfig) -> DataBundle:
    d = Path(data_dir)
    names = [CATALOG_JSON, LOGS_TSV] + [f"{s}.tsv" for s in SPLITS]
    for required in names:
        if not (d / required).exists():
            raise PipelineError(
                f"missing {required} under {d}; run `quarts gen-data` first")
    spec = CatalogSpec.load(d / CATALOG_JSON)
    oracle = MatchOracle(spec)
    parts = [read_pairs(d / f"{s}.tsv") for s in SPLITS] + [read_pairs(d / LOGS_TSV)]
    train, val, test, logs = parts
    vocab_q = build_vocab((tokenize(p.query) for p in train), cfg.min_count)
    vocab_t = build_vocab((tokenize(p.title) for p in train), cfg.min_count)
    examples = iter(encode_pairs(list(chain.from_iterable(parts)), vocab_t, vocab_q,
                                 cfg.max_title_len, cfg.max_query_len))
    train_ex, val_ex, test_ex, logs_ex = (list(islice(examples, len(p))) for p in parts)
    ids = {"vocab_q": _digest(vocab_q), "vocab_t": _digest(vocab_t),
           "max_title_len": cfg.max_title_len, "max_query_len": cfg.max_query_len}
    return DataBundle(train, val, test, logs, oracle, vocab_q, vocab_t, train_ex, val_ex,
                      test_ex, train_ex + logs_ex, {n: file_sha256(d / n) for n in names},
                      ids)


def _digest(vocab: Vocabulary) -> str:
    """The sha256 of the token list in id order (no token holds a newline)."""
    return hashlib.sha256("\n".join(vocab.id_to_token).encode()).hexdigest()[:16]


# --- shared helpers ----------------------------------------------------------

@dataclass
class PhaseRun:
    """What a phase body hands ``_phase`` (``params`` None: no arrays to save)."""
    dir: Path
    manifest: RunManifest     # as the phase began; ``_phase`` adds the phase's entry
    params: dict[str, T.Tensor] | None = None
    records: list[EpochRecord] = field(default_factory=list)


@contextmanager
def _phase(cfg: RunConfig, data: DataBundle, run_dir, name: str,
           ckpt: str) -> Iterator[PhaseRun]:
    """Set-up and tear-down shared by every phase.

    Reads the manifest first, so a bad one stops the phase before it trains.
    Creates the run dir and runs the body timed, at the run's precision.
    After the body, writes ``run.params`` to ``ckpt`` and replaces the
    phase's entry ``name`` in ``manifest.json``, in one atomic save: its
    config, the hashes of the data files it read, its ``data.ids``, which
    ``load_bundle`` checks before it reads ``ckpt`` back, and
    ``run.records``. A body that raises writes none of these.
    """
    path = Path(run_dir) / "manifest.json"
    run = PhaseRun(path.parent, RunManifest.load(path) if path.exists() else RunManifest())
    run.dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with run_dtype(cfg):
        yield run
    if run.params is not None:
        save_params(run.dir / ckpt, run.params)
    run.manifest.record_phase(name, ckpt, time.perf_counter() - t0, cfg, data.files, data.ids,
                              [r.to_json() for r in run.records])
    run.manifest.save(path)


def new_classifier(cfg: RunConfig, data: DataBundle, rng: RunRng) -> ClassifierParams:
    return init_classifier(rng.init, len(data.vocab_q), len(data.vocab_t),
                           cfg.embed_dim, cfg.hidden_size, dropout=cfg.dropout)


def new_ved(cfg: RunConfig, data: DataBundle, rng: RunRng) -> VedParams:
    return init_ved(rng.init, cfg.hidden_size, cfg.embed_dim, cfg.latent_dim,
                    len(data.vocab_q))


def new_dssm(cfg: RunConfig, data: DataBundle, rng: RunRng) -> DssmParams:
    return init_dssm(rng.init, len(data.vocab_q), len(data.vocab_t),
                     cfg.embed_dim, cfg.hidden_size)


_HOLDERS = {"classifier": "any checkpoint but the pooled baseline's",
            "generator": "a pretrain-ved or train-e2e checkpoint"}


def load_bundle(cfg: RunConfig, data: DataBundle, run_dir, ckpt: str, need: str,
                parts: tuple[str, ...] = (),
                ) -> tuple[ClassifierParams | DssmParams, VedParams | None]:
    """Rebuild the models a checkpoint holds, at the run's precision.

    Returns the pooled baseline for ``dssm.`` arrays and the classifier
    otherwise, plus the generator when ``ved.`` arrays are present.
    A missing checkpoint names the command that writes it, ``need`` for a
    name ``WRITTEN_BY`` lacks. The ``ids`` that the manifest entry of the
    checkpoint's own phase records must equal ``data.ids``, or its token
    ids would silently mean other tokens or be cut at other lengths; a
    checkpoint no entry names is read unchecked. The models' parameter
    names must match the checkpoint's array names exactly. ``parts``
    names what the caller reads, ``"classifier"`` and/or ``"generator"``:
    a checkpoint without one exits 2 before the caller does any work.
    """
    path = Path(run_dir) / ckpt
    if not path.exists():
        raise PipelineError(f"missing checkpoint {path}; run "
                            f"`quarts {WRITTEN_BY.get(path.name, need)}` first")
    man = path.parent / "manifest.json"
    for entry in RunManifest.load(man).phases.values() if man.exists() else ():
        for key, value in data.ids.items():
            if entry["checkpoint"] == path.name and entry["ids"].get(key) != value:
                raise PipelineError(f"{man}: {path.name} was trained on ids with {key} = "
                                    f"{entry['ids'].get(key)}, the data dir and config give "
                                    f"{key} = {value}; use the --data-dir and config the run "
                                    "was trained with")
    arrays = load_arrays(path)
    with run_dtype(cfg):
        if any(k.startswith("dssm.") for k in arrays):
            model, ved = new_dssm(cfg, data, RunRng(cfg.seed, "dssm")), None
        else:
            model = new_classifier(cfg, data, RunRng(cfg.seed, "classifier"))
            ved = (new_ved(cfg, data, RunRng(cfg.seed, "ved"))
                   if any(k.startswith("ved.") for k in arrays) else None)
        assign_params({**model.named(), **(ved.named() if ved else {})}, arrays)
    held = {"classifier": isinstance(model, ClassifierParams), "generator": ved is not None}
    for part in parts:
        if not held[part]:
            raise PipelineError(f"{ckpt} holds no {part} parameters; use {_HOLDERS[part]}")
    return model, ved


# --- phases ------------------------------------------------------------------

def triple_memory(clf: ClassifierParams, triples: list[TripleExample],
                  ) -> Callable[[TripleBatch], EncodedBatch]:
    """Encode each distinct title and matched query of ``triples`` once;
    returns the gather of a batch's ``EncodedBatch`` from that cache.

    Cached rows carry no gradient to the shared encoder, so the gather
    raises on a step that would train any encoder tensor.
    """
    encoder = [t for name, t in clf.named().items()
               if name.startswith(("clf.emb_", "clf.lstm_"))]
    titles = encode_distinct([t.item_ids for t in triples], clf.emb_t, clf.lstm_t)
    queries = encode_distinct([t.matched_query_ids for t in triples], clf.emb_q, clf.lstm_q)

    def gather(batch: TripleBatch) -> EncodedBatch:
        if T.needs_grad(*encoder):
            raise AssertionError("the VED cache cannot train the shared encoder")
        return EncodedBatch(*titles(batch.index, batch.item_ids.shape[1]),
                            *queries(batch.index, batch.query_ids.shape[1]),
                            batch.item_lens, batch.query_lens)
    return gather


def ved_loss(clf: ClassifierParams, ved: VedParams, triples: list[TripleExample],
             anneal_epochs: int, rng: RunRng):
    """The VED loss on batches of ``triples`` at the epoch's KL weight, from
    the encode-once cache (``triple_memory``); latent noise from ``rng``.
    It reports the batch's ``nll`` and ``kl``; the weight is the phase's
    epoch field."""
    memory = triple_memory(clf, triples)

    def loss(batch, epoch):
        w = kl_weight_at(epoch, anneal_epochs)
        eps = rng.latent.standard_normal((len(batch.target_lens), ved.d_z))
        value, nll, kl = ved_loss_batch(clf, ved, memory(batch), batch, w, eps)
        return value, {"nll": nll, "kl": kl}
    return loss


def _classifier_phase(cfg: RunConfig, data: DataBundle, run_dir, name: str, ckpt: str,
                      examples: list[Example], resume: str | None = None,
                      ) -> tuple[ClassifierParams, list[EpochRecord]]:
    """Weighted cross-entropy on ``examples``, the body of every classifier
    phase: a new classifier on the classifier streams for ``clf_epochs``,
    or ``resume`` on the end-to-end streams for ``e2e_epochs``."""
    with _phase(cfg, data, run_dir, name, ckpt) as run:
        if resume is None:
            rng = RunRng(cfg.seed, "classifier")
            clf, epochs = new_classifier(cfg, data, rng), cfg.clf_epochs
        else:
            clf, _ = load_bundle(cfg, data, run.dir, resume, need="pretrain-classifier",
                                 parts=("classifier",))
            rng, epochs = RunRng(cfg.seed, "finetune"), cfg.e2e_epochs
        run.records = fit(clf.named(),
                          lambda batch, epoch: (classifier_batch_loss(clf, batch, cfg.beta,
                                                                      rng.dropout), {}),
                          examples, cfg, cfg.lr, rng, epochs, name, val_pass(clf, data.val_ex))
        run.params = clf.named()
    return clf, run.records


def phase_pretrain_classifier(cfg: RunConfig, data: DataBundle, run_dir,
                              ) -> tuple[ClassifierParams, list[EpochRecord]]:
    return _classifier_phase(cfg, data, run_dir, "classifier", CKPT_CLASSIFIER,
                             data.train_ex)


def phase_build_triples(cfg: RunConfig, data: DataBundle, run_dir) -> list:
    with _phase(cfg, data, run_dir, "triples", CKPT_TRIPLES) as run:
        text_triples = build_triples(data.train, cap=cfg.triple_cap)
        with atomic_write(run.dir / CKPT_TRIPLES) as fh:
            for title, q, qm in text_triples:
                fh.write(f"{title}\t{q}\t{qm}\n")
    return text_triples


def read_triples(run_dir) -> list[tuple[str, str, str]]:
    path = Path(run_dir) / CKPT_TRIPLES
    if not path.exists():
        raise PipelineError(f"missing {path}; run `quarts build-triples` first")
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line:
                fields = line.split("\t")
                if len(fields) != 3:
                    raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
                for what, text in zip(("title", "matched query", "mismatched query"),
                                      fields):
                    if not tokenize(text):
                        raise DataError(f"{path}:{lineno}: the {what} {text!r} has no tokens")
                out.append(tuple(fields))
    return out


def phase_pretrain_ved(cfg: RunConfig, data: DataBundle, run_dir,
                       clf: ClassifierParams | None = None):
    """Generator pretraining on the triples: ``fit`` trains the generator
    only, so the classifier arrays leave the phase bitwise unchanged, and
    each distinct title and matched query is encoded once for the phase.
    Triples whose manifest entry records no ``train.tsv`` hash, or another
    than the data dir's, exit 2 (a run dir without that entry is unchecked)."""
    with _phase(cfg, data, run_dir, "ved", CKPT_VED) as run:
        entry = run.manifest.phases.get("triples")
        built_on = entry["data"].get("train.tsv") if entry else data.files["train.tsv"]
        if built_on != data.files["train.tsv"]:
            raise PipelineError(f"{run.dir / CKPT_TRIPLES} was built from a train.tsv hashed "
                                f"{built_on}, this data dir's is hashed "
                                f"{data.files['train.tsv']}; rerun `quarts build-triples`")
        if clf is None:
            clf, _ = load_bundle(cfg, data, run.dir, CKPT_CLASSIFIER,
                                 need="pretrain-classifier", parts=("classifier",))
        triples = encode_triples(read_triples(run.dir), data.vocab_t, data.vocab_q,
                                 cfg.max_title_len, cfg.max_query_len)
        if not triples:
            raise PipelineError(f"{run.dir / CKPT_TRIPLES} holds no triples: no train item "
                                "has both a matched and a mismatched query; rerun "
                                "`quarts build-triples` on data that has some")
        rng = RunRng(cfg.seed, "ved")
        ved = new_ved(cfg, data, rng)
        anneal = cfg.kl_anneal_epochs
        run.records = fit(ved.named(), ved_loss(clf, ved, triples, anneal, rng), triples, cfg,
                          cfg.ved_lr, rng, cfg.ved_epochs, "ved",
                          lambda epoch: {"kl_weight": kl_weight_at(epoch, anneal)})
        run.params = {**clf.named(), **ved.named()}
    return ved, run.records


def phase_train_e2e(cfg: RunConfig, data: DataBundle, run_dir,
                    freeze_generator: bool = False, resume: str | None = None,
                    ) -> tuple[ClassifierParams, VedParams, list[EpochRecord]]:
    """Switched training over the concatenated annotated + logs data.

    Updates classifier and generator parameters together; with
    ``freeze_generator`` (an ablation) ``fit`` trains the classifier's
    only, and the checkpoint holds the generator as loaded.
    """
    with _phase(cfg, data, run_dir, "e2e", CKPT_E2E) as run:
        clf, ved = load_bundle(cfg, data, run.dir, resume or CKPT_VED, need="pretrain-ved",
                               parts=("generator",))
        rng = RunRng(cfg.seed, "finetune")

        def loss(batch, epoch):
            value, s = e2e_batch_loss(clf, ved, batch, cfg.p, cfg.beta, rng)
            return value, {"s1_fraction": s}

        run.params = {**clf.named(), **ved.named()}
        run.records = fit(clf.named() if freeze_generator else run.params, loss,
                          data.merged_ex, cfg, cfg.lr, rng, cfg.e2e_epochs, "e2e",
                          val_pass(clf, data.val_ex))
    return clf, ved, run.records


def phase_train_dssm(cfg: RunConfig, data: DataBundle, run_dir,
                     ) -> tuple[DssmParams, list[EpochRecord]]:
    with _phase(cfg, data, run_dir, "dssm", CKPT_DSSM) as run:
        rng = RunRng(cfg.seed, "dssm")
        params = new_dssm(cfg, data, rng)
        run.records = fit(params.named(),
                          lambda batch, epoch: (dssm_batch_loss(params, batch, cfg.beta), {}),
                          data.train_ex, cfg, cfg.lr, rng, cfg.clf_epochs, "dssm",
                          val_pass(params, data.val_ex))
        run.params = params.named()
    return params, run.records


def phase_naive_augment(cfg: RunConfig, data: DataBundle, run_dir,
                        resume: str | None = None,
                        ) -> tuple[ClassifierParams, list[EpochRecord]]:
    """Classifier on annotated + logs data; no generator, no switch.

    It runs classifier pretraining's body on the merged data, so from
    scratch with an empty logs set it reproduces that phase exactly. With
    ``resume`` it continues from a checkpoint using the end-to-end phase
    streams, making it the exact reference for switched training at p=0.
    """
    return _classifier_phase(cfg, data, run_dir, "augment", CKPT_AUGMENT, data.merged_ex,
                             resume)


# --- evaluation --------------------------------------------------------------

@dataclass
class MetricsReport:
    aupr: float
    f1: float
    threshold: float
    eval_batch_size: int
    grouping: str
    pr_points: list = field(default_factory=list)
    bleu: list = field(default_factory=list)
    generation_accuracy: float | None = None
    unresolvable_rate: float | None = None
    counts: dict = field(default_factory=dict)
    seed: int = 0
    config_hash: str = ""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    def to_text(self) -> str:
        lines = [f"aupr: {self.aupr:.6f}", f"f1: {self.f1:.6f}",
                 f"threshold: {self.threshold:.6f}"]
        for i, b in enumerate(self.bleu, 1):
            lines.append(f"bleu{i}: {b:.6f}")
        if self.generation_accuracy is not None:
            lines.append(f"generation_accuracy: {self.generation_accuracy:.6f}")
            lines.append(f"unresolvable_rate: {self.unresolvable_rate:.6f}")
        for k, v in self.counts.items():
            lines.append(f"count_{k}: {v}")
        lines.append(f"seed: {self.seed}")
        lines.append(f"config_hash: {self.config_hash}")
        lines.append(f"eval_batch_size: {self.eval_batch_size}")
        lines.append(f"grouping: {self.grouping}")
        return "\n".join(lines) + "\n"


def evaluate_generation(cfg: RunConfig, data: DataBundle,
                        clf: ClassifierParams, ved: VedParams,
                        pairs: list[RawPair],
                        ) -> tuple[M.BleuReport, M.GenerationAccuracy, int]:
    """Beam-1 generations from held-out matched pairs, scored by BLEU
    against the held-out mismatched reference and by the oracle; a float32
    generation score can move in its last bits with the pairs in its chunk."""
    triples = build_triples(pairs, cap=1)
    encoded = encode_triples(triples, data.vocab_t, data.vocab_q, cfg.max_title_len,
                             cfg.max_query_len)
    gens = [data.vocab_q.decode(out[0][0]) for out in beam_search(
        [t.item_ids for t in encoded], [t.matched_query_ids for t in encoded], clf, ved,
        beam=1, max_len=cfg.gen_max_len)]
    bleu_pairs = [(gen, tokenize(qm)) for gen, (_, _, qm) in zip(gens, triples)]
    bleu = M.corpus_bleu(bleu_pairs) if bleu_pairs else M.BleuReport([0] * 4, [0] * 4, 0)
    acc = M.generation_accuracy([(title, " ".join(gen)) for gen, (title, _, _)
                                 in zip(gens, triples)], data.oracle)
    return bleu, acc, len(triples)


def evaluate_checkpoint(cfg: RunConfig, data: DataBundle, run_dir, ckpt: str,
                        split: str = "test", with_generation: bool = False,
                        scores_out=None) -> MetricsReport:
    with run_dtype(cfg):
        examples = getattr(data, f"{split}_ex")
        if not examples:
            raise DataError(f"the {split} split is empty: nothing to evaluate")
        model, ved = load_bundle(cfg, data, run_dir, ckpt, need="train-e2e",
                                 parts=("generator",) if with_generation else ())
        scores, labels = evaluate_probs(model, examples)

        aupr = M.average_precision(scores, labels)
        f1, thr = M.f1_best(scores, labels)
        curve = M.pr_curve(scores, labels)
        report = MetricsReport(
            aupr=aupr, f1=f1, threshold=thr,
            pr_points=[list(pt) for pt in curve.points],
            counts={"examples": len(examples),
                    "positives": int(labels.sum())},
            seed=cfg.seed, config_hash=cfg.hash(),
            eval_batch_size=EVAL_BATCH_SIZE, grouping=EVAL_GROUPING)

        if with_generation:
            bleu, acc, n = evaluate_generation(cfg, data, model, ved, getattr(data, split))
            report.bleu = bleu.bleu
            report.generation_accuracy = acc.accuracy
            report.unresolvable_rate = acc.unresolvable_rate
            report.counts["generation_pairs"] = n
            report.counts["unresolvable"] = acc.unresolvable

        if scores_out is not None:
            with open(scores_out, "w", encoding="utf-8") as fh:
                for s, y in zip(scores, labels):
                    fh.write(f"{s:.8f}\t{int(y)}\n")
    return report

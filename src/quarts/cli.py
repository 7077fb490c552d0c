"""Command-line entry point wiring every phase of the workflow.

Exit codes: 0 success, 2 validation error (bad config, missing inputs,
malformed data).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import pipeline as P
from .catalog import CatalogSpec
from .checkpoint import CheckpointError
from .classifier import attention_heatmap, normalize_heatmap, heatmap_text, encode_batch
from .config import (ConfigError, RunConfig, atomic_write, desk_profile, load_config,
                     paper_profile)
from .data import DataError, encode_pairs, pad_matrix, read_pairs, tokenize
from .metrics import MetricError, knn as knn_search
from .ved import beam_search

log = logging.getLogger("quarts")

EXIT_OK = 0
EXIT_VALIDATION = 2


def _run_dir(args) -> Path:
    return Path(args.run_dir or os.environ.get("QUARTS_RUN_DIR") or "runs/default")


def _config(args, epochs: str | None = None) -> RunConfig:
    cfg = paper_profile() if getattr(args, "profile", None) == "paper" else desk_profile()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    for flag, key in (("seed", "seed"), ("p", "p"), ("beam", "beam_size"),
                      ("max_len", "gen_max_len"), ("epochs", epochs)):
        val = getattr(args, flag, None)
        if val is not None:
            cfg = cfg.replace(**{key: val})
    return cfg


def _writable(flag: str, *paths: str | None) -> None:
    """Fail before any work when an output file the user names (None: not
    given) is a directory or read-only, or its directory is missing or
    read-only. Its writer stays a plain ``open`` call: it may be a pipe."""
    for p in map(Path, filter(None, paths)):
        if p.is_dir() or not os.access(p if p.exists() else p.parent, os.W_OK):
            raise DataError(f"{flag} {p}: cannot open the file for writing")


def _count(value: int | None, flag: str) -> int | None:
    """A count flag's value, None when not given; below 1 is an error."""
    if value is not None and value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")
    return value


def _add_common(sub):
    sub.add_argument("--run-dir", help="run directory (or $QUARTS_RUN_DIR)")
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--profile", choices=["desk", "paper"], default="desk")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--data-dir", required=True)


def cmd_gen_data(args) -> int:
    spec = CatalogSpec(items=args.items, labeled_pairs=args.labeled_pairs,
                       logs_pairs=args.logs_pairs,
                       positive_rate=args.positive_rate,
                       hard_fraction=args.hard_fraction,
                       seed=args.seed)
    try:
        ratios = tuple(float(x) for x in args.split.split(","))
    except ValueError:
        raise DataError(f"--split {args.split!r}: ratios must be numbers") from None
    if len(ratios) != 3:
        raise DataError("--split needs three comma-separated ratios")
    manifest = P.generate_data(spec, args.out, ratios)
    log.info("wrote corpus to %s: %s", args.out, json.dumps(manifest["counts"]))
    return EXIT_OK


def _final_val(records) -> str:
    """The done message's val AUPR, or nothing when no val pass ran."""
    aupr = getattr(records[-1], "aupr", None)
    return "" if aupr is None else f": final val aupr={aupr:.4f}"


def cmd_pretrain_classifier(args) -> int:
    cfg = _config(args, "clf_epochs")
    data = P.load_data(args.data_dir, cfg)
    _, records = P.phase_pretrain_classifier(cfg, data, _run_dir(args))
    log.info("classifier pretraining done%s", _final_val(records))
    return EXIT_OK


def cmd_build_triples(args) -> int:
    cfg = _config(args)
    data = P.load_data(args.data_dir, cfg)
    triples = P.phase_build_triples(cfg, data, _run_dir(args))
    log.info("built %d triples", len(triples))
    return EXIT_OK


def cmd_pretrain_ved(args) -> int:
    cfg = _config(args, "ved_epochs")
    data = P.load_data(args.data_dir, cfg)
    _, records = P.phase_pretrain_ved(cfg, data, _run_dir(args))
    log.info("generator pretraining done: final loss=%.4f", records[-1].loss)
    return EXIT_OK


def cmd_train_e2e(args) -> int:
    cfg = _config(args, "e2e_epochs")
    data = P.load_data(args.data_dir, cfg)
    _, _, records = P.phase_train_e2e(cfg, data, _run_dir(args),
                                      freeze_generator=args.freeze_generator,
                                      resume=args.resume)
    log.info("end-to-end training done%s s1=%.3f", _final_val(records),
             records[-1].s1_fraction)
    return EXIT_OK


def cmd_train_baseline(args) -> int:
    if args.kind == "dssm" and args.resume:
        raise ConfigError("--resume applies to --kind augment only; dssm has no checkpoint "
                          "to continue from")
    cfg = _config(args, "e2e_epochs" if args.resume else "clf_epochs")
    data = P.load_data(args.data_dir, cfg)
    run_dir = _run_dir(args)
    if args.kind == "dssm":
        _, records = P.phase_train_dssm(cfg, data, run_dir)
    else:
        _, records = P.phase_naive_augment(cfg, data, run_dir, resume=args.resume)
    log.info("baseline %s done%s", args.kind, _final_val(records))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _config(args)
    _writable("--scores-out", args.scores_out)
    data = P.load_data(args.data_dir, cfg)
    report = P.evaluate_checkpoint(cfg, data, _run_dir(args), args.checkpoint,
                                   split=args.split,
                                   with_generation=args.generation,
                                   scores_out=args.scores_out)
    sys.stdout.write(report.to_text())
    out = _run_dir(args) / f"report_{Path(args.checkpoint).stem}_{args.split}.json"
    with atomic_write(out) as fh:
        json.dump(report.to_json(), fh, indent=2)
    return EXIT_OK


def _tokens(text: str, flag: str, max_len: int) -> list[str]:
    """The tokens of a text given on the command line; none is an error."""
    tokens = tokenize(text)[:max_len]
    if not tokens:
        raise DataError(f"{flag} {text!r} has no tokens")
    return tokens


def _load_tool_model(args, cfg, data, *parts: str):
    """The classifier, and the other ``parts``, that a tool reads from its
    ``--checkpoint``, by default the end-to-end one."""
    return P.load_bundle(cfg, data, _run_dir(args), args.checkpoint or P.CKPT_E2E,
                         need="train-e2e", parts=("classifier", *parts))


def cmd_generate(args) -> int:
    cfg = _config(args)
    _writable("--out", args.out)
    data = P.load_data(args.data_dir, cfg)
    split = {"train": data.train, "val": data.val, "test": data.test}[args.split]
    pairs = [p for p in (read_pairs(args.pairs) if args.pairs else split) if p.label == 0]
    pairs = pairs[:_count(args.limit, "--limit")]
    examples = encode_pairs(pairs, data.vocab_t, data.vocab_q,
                            cfg.max_title_len, cfg.max_query_len)
    for pair in pairs:   # a title without a product type fails before any decoding
        data.oracle.label(pair.title, pair.query)
    with P.run_dtype(cfg):
        clf, ved = _load_tool_model(args, cfg, data, "generator")
        outs = beam_search([ex.item_ids for ex in examples], [ex.query_ids for ex in examples],
                           clf, ved, beam=cfg.beam_size, max_len=cfg.gen_max_len)
    with open(args.out, "w", encoding="utf-8") as fh:
        for pair, ((tokens, score), *_) in zip(pairs, outs):
            gen = " ".join(data.vocab_q.decode(tokens))
            label = data.oracle.label(pair.title, gen)
            fh.write(f"{pair.title}\t{pair.query}\t{gen}\t{score:.4f}\t"
                     f"{'?' if label is None else label}\n")
    log.info("wrote generations for %d pairs to %s", len(pairs), args.out)
    return EXIT_OK


def cmd_heatmap(args) -> int:
    cfg = _config(args)
    _writable("--out", *[args.out + ext for ext in (".txt", ".json") if args.out])
    data = P.load_data(args.data_dir, cfg)
    title_tokens = _tokens(args.title, "--title", cfg.max_title_len)
    query_tokens = _tokens(args.query, "--query", cfg.max_query_len)
    with P.run_dtype(cfg):
        clf, _ = _load_tool_model(args, cfg, data)
        alpha = attention_heatmap(data.vocab_t.encode(title_tokens),
                                  data.vocab_q.encode(query_tokens), clf)
    norm = normalize_heatmap(alpha)
    text = heatmap_text(norm, query_tokens, title_tokens)
    sys.stdout.write(text)
    if args.out:
        Path(args.out + ".txt").write_text(text, encoding="utf-8")
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump({"query_tokens": query_tokens,
                       "title_tokens": title_tokens,
                       "normalized": norm.tolist(),
                       "raw": alpha.tolist()}, fh, indent=2)
    return EXIT_OK


def cmd_knn(args) -> int:
    cfg = _config(args)
    data = P.load_data(args.data_dir, cfg)
    side = args.side
    max_len = cfg.max_query_len if side == "query" else cfg.max_title_len
    source = _tokens(args.text, "--text", max_len)
    vocab = data.vocab_q if side == "query" else data.vocab_t
    texts = sorted({(p.query if side == "query" else p.title)
                    for p in data.test + data.val})
    texts = texts[:_count(args.limit, "--limit")]
    mat, lens = pad_matrix([vocab.encode(tokenize(t)[:max_len]) for t in texts]
                           + [vocab.encode(source)])
    with P.run_dtype(cfg):
        clf, _ = _load_tool_model(args, cfg, data)
        emb = clf.emb_q if side == "query" else clf.emb_t
        lstm = clf.lstm_q if side == "query" else clf.lstm_t
        states, _ = encode_batch(mat, lens, emb, lstm)
    pooled = np.stack([row[:n].mean(axis=0) for row, n in zip(states.data, lens)])
    exclude = texts.index(args.text) if args.text in texts else None
    hits = knn_search(pooled[-1], pooled[:-1], top_k=_count(args.top, "--top"),
                      exclude=exclude)
    print(f"source: {args.text}")
    for idx, sim in hits:
        print(f"  {sim:.4f}  {texts[idx]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quarts",
        description="Query-item mismatch classification with adversarial "
                    "query generation")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize the product-search corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--items", type=int, default=5000)
    g.add_argument("--labeled-pairs", type=int, default=50000)
    g.add_argument("--logs-pairs", type=int, default=50000)
    g.add_argument("--positive-rate", type=float, default=0.15)
    g.add_argument("--hard-fraction", type=float, default=0.6)
    g.add_argument("--split", default="0.7,0.15,0.15")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gen_data)

    s = sub.add_parser("pretrain-classifier", help="phase 1: classifier")
    _add_common(s)
    s.add_argument("--epochs", type=int)
    s.set_defaults(fn=cmd_pretrain_classifier)

    s = sub.add_parser("build-triples", help="phase 2: generator training tuples")
    _add_common(s)
    s.set_defaults(fn=cmd_build_triples)

    s = sub.add_parser("pretrain-ved", help="phase 3: generator decoder")
    _add_common(s)
    s.add_argument("--epochs", type=int)
    s.set_defaults(fn=cmd_pretrain_ved)

    s = sub.add_parser("train-e2e", help="phases 4-5: switched training")
    _add_common(s)
    s.add_argument("--p", type=float, help="switch probability")
    s.add_argument("--epochs", type=int)
    s.add_argument("--freeze-generator", action="store_true")
    s.add_argument("--resume", help="checkpoint to continue from")
    s.set_defaults(fn=cmd_train_e2e)

    s = sub.add_parser("train-baseline", help="dssm or naive-augment baseline")
    _add_common(s)
    s.add_argument("--kind", choices=["dssm", "augment"], required=True)
    s.add_argument("--resume", help="(augment) continue from a checkpoint "
                                    "using the end-to-end phase streams")
    s.add_argument("--epochs", type=int)
    s.set_defaults(fn=cmd_train_baseline)

    s = sub.add_parser("eval", help="metrics report for a checkpoint")
    _add_common(s)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--split", choices=["train", "val", "test"], default="test")
    s.add_argument("--generation", action="store_true",
                   help="also score beam-1 generations (BLEU, oracle accuracy)")
    s.add_argument("--scores-out", help="per-example score TSV")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("generate", help="beam-search queries for matched pairs")
    _add_common(s)
    s.add_argument("--checkpoint")
    s.add_argument("--pairs", help="TSV of pairs to rewrite (default: a split)")
    s.add_argument("--split", choices=["train", "val", "test"], default="test")
    s.add_argument("--beam", type=int)
    s.add_argument("--max-len", type=int)
    s.add_argument("--limit", type=int)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_generate)

    s = sub.add_parser("heatmap", help="attention grid for one pair")
    _add_common(s)
    s.add_argument("--checkpoint")
    s.add_argument("--title", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("--out", help="path prefix for .txt/.json export")
    s.set_defaults(fn=cmd_heatmap)

    s = sub.add_parser("knn", help="nearest neighbors by pooled encoding")
    _add_common(s)
    s.add_argument("--checkpoint")
    s.add_argument("--text", required=True)
    s.add_argument("--side", choices=["query", "title"], default="query")
    s.add_argument("--top", type=int, default=3)
    s.add_argument("--limit", type=int)
    s.set_defaults(fn=cmd_knn)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError, CheckpointError, MetricError,
            P.PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

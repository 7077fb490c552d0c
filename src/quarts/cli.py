"""Command-line entry point wiring every phase of the workflow.

``main`` sets up every command that reads a data dir, in this order:
``train-baseline``'s ``--kind``/``--resume`` check, the run config (the
profile, ``--config``, then the flags given), the check that the output
files the command names can be written, ``pipeline.load_data``, and one
``run_dtype`` scope around the command's ``fn(args, cfg, data)``.
``gen-data`` reads no data dir and runs alone. A flag's argparse ``dest``
names the setting it overrides: a given flag whose dest is a ``RunConfig``
field (``--beam`` is ``beam_size``, ``--epochs`` the command's epochs
key), or for ``gen-data`` a ``CatalogSpec`` field, replaces that field.

BLAS runs one thread unless the environment sets a count: the variables
are set here, before numpy loads, so a program that imports numpy first
is not pinned. Exit codes: 0 success, 2 validation error (bad config,
missing inputs, malformed data).
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from . import pipeline as P  # noqa: E402
from .catalog import CatalogSpec  # noqa: E402
from .checkpoint import CheckpointError  # noqa: E402
from .classifier import (attention_heatmap, encode_batch, heatmap_text,  # noqa: E402
                         normalize_heatmap)
from .config import (ConfigError, RunConfig, atomic_write, desk_profile,  # noqa: E402
                     load_config, paper_profile)
from .data import DataError, encode_pairs, pad_matrix, read_pairs, tokenize  # noqa: E402
from .metrics import MetricError, knn as knn_search  # noqa: E402
from .ved import beam_search  # noqa: E402

log = logging.getLogger("quarts")

EXIT_OK = 0
EXIT_VALIDATION = 2


def _given(args, cls) -> dict:
    """The flags given on the command line whose dest names a field of ``cls``."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if getattr(args, f.name, None) is not None}


def _baseline_flags(args) -> None:
    """A resumed augment run continues on the end-to-end phase's streams, so
    its ``--epochs`` sets ``e2e_epochs``; dssm has no checkpoint to resume."""
    if args.kind == "dssm" and args.resume:
        raise ConfigError("--resume applies to --kind augment only; dssm has no checkpoint "
                          "to continue from")
    if args.resume:
        args.e2e_epochs, args.clf_epochs = args.clf_epochs, None


def _writable(args) -> None:
    """Fail before any work when an output file the command names is a
    directory or read-only, or its directory is missing or read-only. The
    command's ``writes`` is the dest of its output flag, then the suffixes
    it adds to the flag's value, if any. The writer stays a plain ``open``
    call: the output may be a pipe."""
    if not args.writes:
        return
    dest, *suffixes = args.writes
    value, flag = getattr(args, dest), "--" + dest.replace("_", "-")
    for p in [Path(value + s) for s in suffixes or [""]] if value else []:
        if p.is_dir() or not os.access(p if p.exists() else p.parent, os.W_OK):
            raise DataError(f"{flag} {p}: cannot open the file for writing")


def _count(value: int | None, flag: str) -> int | None:
    """A count flag's value, None when not given; below 1 is an error."""
    if value is not None and value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")
    return value


def cmd_gen_data(args) -> None:
    spec = CatalogSpec(**_given(args, CatalogSpec))
    try:
        ratios = tuple(float(x) for x in args.split.split(","))
    except ValueError:
        raise DataError(f"--split {args.split!r}: ratios must be numbers") from None
    if len(ratios) != 3:
        raise DataError("--split needs three comma-separated ratios")
    manifest = P.generate_data(spec, args.out, ratios)
    log.info("wrote corpus to %s: %s", args.out, json.dumps(manifest["counts"]))


def _final_val(records) -> str:
    """The done message's val AUPR, or nothing when no val pass ran."""
    aupr = getattr(records[-1], "aupr", None)
    return "" if aupr is None else f": final val aupr={aupr:.4f}"


def cmd_pretrain_classifier(args, cfg, data) -> None:
    _, records = P.phase_pretrain_classifier(cfg, data, args.run_dir)
    log.info("classifier pretraining done%s", _final_val(records))


def cmd_build_triples(args, cfg, data) -> None:
    triples = P.phase_build_triples(cfg, data, args.run_dir)
    log.info("built %d triples", len(triples))


def cmd_pretrain_ved(args, cfg, data) -> None:
    _, records = P.phase_pretrain_ved(cfg, data, args.run_dir)
    log.info("generator pretraining done: final loss=%.4f", records[-1].loss)


def cmd_train_e2e(args, cfg, data) -> None:
    _, _, records = P.phase_train_e2e(cfg, data, args.run_dir, resume=args.resume,
                                      freeze_generator=args.freeze_generator)
    log.info("end-to-end training done%s s1=%.3f", _final_val(records),
             records[-1].s1_fraction)


def cmd_train_baseline(args, cfg, data) -> None:
    if args.kind == "dssm":
        _, records = P.phase_train_dssm(cfg, data, args.run_dir)
    else:
        _, records = P.phase_naive_augment(cfg, data, args.run_dir, resume=args.resume)
    log.info("baseline %s done%s", args.kind, _final_val(records))


def cmd_eval(args, cfg, data) -> None:
    report = P.evaluate_checkpoint(cfg, data, args.run_dir, args.checkpoint, split=args.split,
                                   with_generation=args.generation, scores_out=args.scores_out)
    sys.stdout.write(report.to_text())
    out = args.run_dir / f"report_{Path(args.checkpoint).stem}_{args.split}.json"
    with atomic_write(out) as fh:
        json.dump(report.to_json(), fh, indent=2)


def _tokens(text: str, flag: str, max_len: int) -> list[str]:
    """The tokens of a text given on the command line; none is an error."""
    tokens = tokenize(text)[:max_len]
    if not tokens:
        raise DataError(f"{flag} {text!r} has no tokens")
    return tokens


def _load_tool_model(args, cfg, data, *parts: str):
    """The classifier, and the other ``parts``, that a tool reads from its
    ``--checkpoint``, by default the end-to-end one."""
    return P.load_bundle(cfg, data, args.run_dir, args.checkpoint or P.CKPT_E2E,
                         need="train-e2e", parts=("classifier", *parts))


def cmd_generate(args, cfg, data) -> None:
    source = read_pairs(args.pairs) if args.pairs else getattr(data, args.split)
    pairs = [p for p in source if p.label == 0][:_count(args.limit, "--limit")]
    examples = encode_pairs(pairs, data.vocab_t, data.vocab_q,
                            cfg.max_title_len, cfg.max_query_len)
    for pair in pairs:   # a title without a product type fails before any decoding
        data.oracle.label(pair.title, pair.query)
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


def cmd_heatmap(args, cfg, data) -> None:
    title_tokens = _tokens(args.title, "--title", cfg.max_title_len)
    query_tokens = _tokens(args.query, "--query", cfg.max_query_len)
    clf, _ = _load_tool_model(args, cfg, data)
    alpha = attention_heatmap(data.vocab_t.encode(title_tokens),
                              data.vocab_q.encode(query_tokens), clf)
    norm = normalize_heatmap(alpha)
    text = heatmap_text(norm, query_tokens, title_tokens)
    sys.stdout.write(text)
    if args.out:
        Path(args.out + ".txt").write_text(text, encoding="utf-8")
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump({"query_tokens": query_tokens, "title_tokens": title_tokens,
                       "normalized": norm.tolist(), "raw": alpha.tolist()}, fh, indent=2)


def cmd_knn(args, cfg, data) -> None:
    query = args.side == "query"
    max_len = cfg.max_query_len if query else cfg.max_title_len
    source = _tokens(args.text, "--text", max_len)
    vocab = data.vocab_q if query else data.vocab_t
    texts = sorted({p.query if query else p.title
                    for p in data.test + data.val})[:_count(args.limit, "--limit")]
    mat, lens = pad_matrix([vocab.encode(tokenize(t)[:max_len]) for t in texts]
                           + [vocab.encode(source)])
    clf, _ = _load_tool_model(args, cfg, data)
    emb, lstm = (clf.emb_q, clf.lstm_q) if query else (clf.emb_t, clf.lstm_t)
    states, _ = encode_batch(mat, lens, emb, lstm)
    pooled = np.stack([row[:n].mean(axis=0) for row, n in zip(states.data, lens)])
    exclude = texts.index(args.text) if args.text in texts else None
    hits = knn_search(pooled[-1], pooled[:-1], top_k=_count(args.top, "--top"),
                      exclude=exclude)
    print(f"source: {args.text}")
    for idx, sim in hits:
        print(f"  {sim:.4f}  {texts[idx]}")


def _data_command(sub, name: str, fn, help: str, epochs: str | None = None,
                  checkpoint: bool | None = None, writes: tuple[str, ...] = ()):
    """A command that reads a data dir, with the flags every such command
    shares. ``epochs`` is the config key that ``--epochs`` sets (None: no
    such flag); ``checkpoint`` adds ``--checkpoint``, required when True;
    ``writes`` is what ``_writable`` checks."""
    s = sub.add_parser(name, help=help)
    s.add_argument("--run-dir", help="run directory (or $QUARTS_RUN_DIR)")
    s.add_argument("--config", help="key = value config file")
    s.add_argument("--profile", choices=["desk", "paper"], default="desk")
    s.add_argument("--seed", type=int)
    s.add_argument("--data-dir", required=True)
    if epochs:
        s.add_argument("--epochs", type=int, dest=epochs, metavar="N")
    if checkpoint is not None:
        s.add_argument("--checkpoint", required=checkpoint)
    s.set_defaults(fn=fn, writes=writes)
    return s


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quarts", description="Query-item mismatch "
                                 "classification with adversarial query generation")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize the product-search corpus")
    g.add_argument("--out", required=True)
    for flag, kind in (("--items", int), ("--labeled-pairs", int), ("--logs-pairs", int),
                       ("--positive-rate", float), ("--hard-fraction", float), ("--seed", int)):
        g.add_argument(flag, type=kind)
    g.add_argument("--split", default="0.7,0.15,0.15")
    g.set_defaults(fn=cmd_gen_data)

    _data_command(sub, "pretrain-classifier", cmd_pretrain_classifier,
                  "phase 1: classifier", epochs="clf_epochs")
    _data_command(sub, "build-triples", cmd_build_triples,
                  "phase 2: generator training tuples")
    _data_command(sub, "pretrain-ved", cmd_pretrain_ved, "phase 3: generator decoder",
                  epochs="ved_epochs")

    s = _data_command(sub, "train-e2e", cmd_train_e2e, "phases 4-5: switched training",
                      epochs="e2e_epochs")
    s.add_argument("--p", type=float, help="switch probability")
    s.add_argument("--freeze-generator", action="store_true")
    s.add_argument("--resume", help="checkpoint to continue from")

    # with --resume, main moves --epochs to e2e_epochs (_baseline_flags)
    s = _data_command(sub, "train-baseline", cmd_train_baseline,
                      "dssm or naive-augment baseline", epochs="clf_epochs")
    s.add_argument("--kind", choices=["dssm", "augment"], required=True)
    s.add_argument("--resume", help="(augment) continue from a checkpoint "
                                    "using the end-to-end phase streams")

    s = _data_command(sub, "eval", cmd_eval, "metrics report for a checkpoint",
                      checkpoint=True, writes=("scores_out",))
    s.add_argument("--split", choices=["train", "val", "test"], default="test")
    s.add_argument("--generation", action="store_true",
                   help="also score beam-1 generations (BLEU, oracle accuracy)")
    s.add_argument("--scores-out", help="per-example score TSV")

    s = _data_command(sub, "generate", cmd_generate,
                      "beam-search queries for matched pairs", checkpoint=False,
                      writes=("out",))
    s.add_argument("--pairs", help="TSV of pairs to rewrite (default: a split)")
    s.add_argument("--split", choices=["train", "val", "test"], default="test")
    s.add_argument("--beam", type=int, dest="beam_size")
    s.add_argument("--max-len", type=int, dest="gen_max_len")
    s.add_argument("--limit", type=int)
    s.add_argument("--out", required=True)

    s = _data_command(sub, "heatmap", cmd_heatmap, "attention grid for one pair",
                      checkpoint=False, writes=("out", ".txt", ".json"))
    s.add_argument("--title", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("--out", help="path prefix for .txt/.json export")

    s = _data_command(sub, "knn", cmd_knn, "nearest neighbors by pooled encoding",
                      checkpoint=False)
    s.add_argument("--text", required=True)
    s.add_argument("--side", choices=["query", "title"], default="query")
    s.add_argument("--top", type=int, default=3)
    s.add_argument("--limit", type=int)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    args = build_parser().parse_args(argv)
    try:
        if "data_dir" not in args:
            args.fn(args)
            return EXIT_OK
        if args.command == "train-baseline":
            _baseline_flags(args)
        cfg = paper_profile() if args.profile == "paper" else desk_profile()
        if args.config:
            cfg = load_config(args.config, base=cfg)
        cfg = cfg.replace(**_given(args, RunConfig))
        _writable(args)
        data = P.load_data(args.data_dir, cfg)
        args.run_dir = Path(args.run_dir or os.environ.get("QUARTS_RUN_DIR") or "runs/default")
        with P.run_dtype(cfg):
            args.fn(args, cfg, data)
    except (ConfigError, DataError, CheckpointError, MetricError,
            P.PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

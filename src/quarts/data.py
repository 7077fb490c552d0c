"""Tokenization, vocabularies, dataset records, splits, and batching.

Dataset files are one example per line, tab-separated UTF-8:
``title<TAB>query<TAB>label<TAB>source``. Query-side and title-side
vocabularies are built independently, so the same surface word can carry
different ids on the two sides. A vocabulary is rebuilt from the train
split on each load and never saved; a run dir keeps only its digest
(``pipeline.DataBundle.ids``). ``write_pairs`` writes a file atomically.

The records are slotted dataclasses, and the data path handles each
distinct string once: ``read_pairs`` shares one string object per
distinct title, query and source, and ``encode_pairs`` tokenizes and
encodes each distinct title and query once, so every ``Example`` of that
text holds the same immutable tuple of ids.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import atomic_write

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIALS = ("<pad>", "<unk>", "<bos>", "<eos>")

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


class DataError(ValueError):
    """Raised for malformed or impossible dataset requests."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace/punctuation, drop empties."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


class Vocabulary:
    """Token <-> id map with fixed special ids PAD=0, UNK=1, BOS=2, EOS=3."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(SPECIALS) + tokens
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def build_vocab(corpus: Iterable[list[str]], min_count: int = 1) -> Vocabulary:
    """Deterministic vocabulary: frequency desc, then lexicographic."""
    corpus = list(corpus)
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts = Counter(chain.from_iterable(corpus))
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


@dataclass(slots=True)
class RawPair:
    """One dataset line before encoding."""
    title: str
    query: str
    label: int
    source: str  # "annotated" | "logs"

    def __post_init__(self):
        if self.source not in ("annotated", "logs"):
            raise DataError(f"unknown source {self.source!r}")
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label}")
        if self.source == "logs" and self.label != 0:
            raise DataError("logs pairs are matched by construction (label 0)")


@dataclass(slots=True)
class Example:
    """Encoded (item title, query, label) pair; the id tuples may be shared
    with every other example of the same title or query."""
    item_ids: tuple[int, ...]
    query_ids: tuple[int, ...]
    label: int


@dataclass
class TripleExample:
    """Item with one matched and one mismatched query, for generator training."""
    item_ids: list[int]
    matched_query_ids: list[int]
    mismatched_query_ids: list[int]


def write_pairs(path, pairs: Iterable[RawPair]) -> None:
    with atomic_write(path) as fh:
        for p in pairs:
            fh.write(f"{p.title}\t{p.query}\t{p.label}\t{p.source}\n")


def read_pairs(path) -> list[RawPair]:
    """The pairs of a dataset file; equal strings are one shared object."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read pairs {path}: {exc.strerror}") from None
    out = []
    share = {}
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields")
            title, query, label, source = fields
            if label not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
            out.append(RawPair(share.setdefault(title, title),
                               share.setdefault(query, query), int(label),
                               share.setdefault(source, source)))
    return out


def encode_pairs(pairs: Sequence[RawPair], vocab_t: Vocabulary, vocab_q: Vocabulary,
                 max_title_len: int, max_query_len: int) -> list[Example]:
    """Encode pairs, truncated to the max lengths, each distinct title and
    query once: every ``Example`` of a text holds the same tuple of ids."""
    def encode(texts, vocab, max_len):
        return {s: tuple(vocab.encode(tokenize(s)[:max_len])) for s in dict.fromkeys(texts)}

    titles = encode((p.title for p in pairs), vocab_t, max_title_len)
    queries = encode((p.query for p in pairs), vocab_q, max_query_len)
    out = []
    for p in pairs:
        t, q = titles[p.title], queries[p.query]
        if not t or not q:
            raise DataError(f"empty sequence after tokenization: {p.title!r} / {p.query!r}")
        out.append(Example(t, q, p.label))
    return out


def split_pairs(pairs: list[RawPair], ratios: tuple[float, float, float],
                seed: int) -> tuple[list[RawPair], list[RawPair], list[RawPair]]:
    """Item-disjoint split: no item title appears in two splits."""
    if abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0 or ratios[0] == 0:
        raise DataError(f"split ratios must be >= 0, with a train ratio > 0, and sum to 1, "
                        f"got {ratios}")
    by_title: dict[str, list[RawPair]] = {}
    for p in pairs:
        by_title.setdefault(p.title, []).append(p)
    titles = list(by_title)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    rng.shuffle(titles)

    total = len(pairs)
    splits: list[list[RawPair]] = [[], [], []]
    targets = [r * total for r in ratios]
    counts = [0, 0, 0]
    for title in titles:
        # largest remaining deficit, ties to the earlier split
        deficits = [targets[i] - counts[i] for i in range(3)]
        i = int(np.argmax(deficits))
        splits[i].extend(by_title[title])
        counts[i] += len(by_title[title])
    for i, r in enumerate(ratios):
        if r > 0 and not splits[i]:
            raise DataError(
                f"cannot produce an item-disjoint split for ratios {ratios}: "
                f"split {i} is empty")
    return splits[0], splits[1], splits[2]


@dataclass
class Batch:
    item_ids: np.ndarray     # (B, Tt) int64, PAD-filled
    item_lens: np.ndarray    # (B,) true lengths
    query_ids: np.ndarray    # (B, Tq)
    query_lens: np.ndarray
    labels: np.ndarray       # (B,) float

    def __len__(self):
        return self.item_ids.shape[0]


def pad_matrix(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """PAD-filled (B, longest) id matrix and the (B,) true lengths."""
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    mat = np.full((len(seqs), int(lens.max())), PAD, dtype=np.int64)
    mat[pad_mask(lens, mat.shape[1])] = np.fromiter(
        chain.from_iterable(seqs), dtype=np.int64, count=int(lens.sum()))
    return mat, lens


def pad_mask(lens: np.ndarray, width: int) -> np.ndarray:
    """(B, width) bool mask, True at each row's first ``lens[i]`` (real)
    positions; it indexes the real steps (``x[mask]``) directly."""
    return np.arange(width)[None, :] < lens[:, None]


@dataclass
class TripleBatch:
    item_ids: np.ndarray
    item_lens: np.ndarray
    query_ids: np.ndarray
    query_lens: np.ndarray
    prev_ids: np.ndarray     # (B, L): BOS then the mismatched query
    target_ids: np.ndarray   # (B, L): mismatched query then EOS
    target_lens: np.ndarray  # (B,)
    index: np.ndarray        # (B,) each triple's position in the batched list


def make_batch(examples: list[Example]) -> Batch:
    items, item_lens = pad_matrix([e.item_ids for e in examples])
    queries, query_lens = pad_matrix([e.query_ids for e in examples])
    labels = np.array([e.label for e in examples], dtype=np.float64)
    return Batch(items, item_lens, queries, query_lens, labels)


def make_triple_batch(triples: list[TripleExample],
                      index: np.ndarray | None = None) -> TripleBatch:
    """Collate triples; ``index`` gives their positions in the list they
    were drawn from (default: the list is ``triples`` itself)."""
    items, item_lens = pad_matrix([t.item_ids for t in triples])
    queries, query_lens = pad_matrix([t.matched_query_ids for t in triples])
    prev, _ = pad_matrix([[BOS] + t.mismatched_query_ids for t in triples])
    target, target_lens = pad_matrix([t.mismatched_query_ids + [EOS] for t in triples])
    if index is None:
        index = np.arange(len(triples))
    return TripleBatch(items, item_lens, queries, query_lens, prev, target, target_lens,
                       index)


def batches(examples: list[Example] | list[TripleExample], batch_size: int,
            rng: np.random.Generator | None = None) -> Iterator[Batch | TripleBatch]:
    """Yield padded batches; shuffles when given the shuffle substream.

    Labeled pairs collate into a ``Batch``, triples into a ``TripleBatch``
    that carries their positions in ``examples``.
    """
    order = np.arange(len(examples))
    if rng is not None:
        order = rng.permutation(len(examples))
    for start in range(0, len(examples), batch_size):
        index = order[start:start + batch_size]
        chunk = [examples[i] for i in index]
        if isinstance(chunk[0], TripleExample):
            yield make_triple_batch(chunk, index)
        else:
            yield make_batch(chunk)

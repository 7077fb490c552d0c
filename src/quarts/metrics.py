"""Evaluation: precision-recall machinery, BLEU, and embedding neighbors.

Average precision is the step-wise interpolated sum over descending-score
ranks (tied scores enter together), not the trapezoidal area. BLEU is
computed without smoothing against a single reference and reported on a
0..1 scale; multiply by 100 for display.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np


class MetricError(ValueError):
    """Raised when a metric's preconditions are not met."""


@dataclass
class PRCurve:
    points: list[tuple[float, float, float]]  # (threshold, precision, recall)


@dataclass
class BleuReport:
    bleu: list[float]          # cumulative BLEU-1..max_order
    precisions: list[float]    # modified n-gram precisions p_1..p_max
    brevity_penalty: float


def _rank_groups(scores: np.ndarray, labels: np.ndarray):
    """Yield (score, tp_in_group, group_size) in descending score order."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        yield float(s[i]), float(y[i:j].sum()), j - i
        i = j


def average_precision(scores, labels) -> float:
    """AP = sum over descending ranks of (R_i - R_{i-1}) * P_i."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    total_pos = labels.sum()
    if total_pos == 0:
        raise MetricError("average precision needs at least one positive label")
    ap = 0.0
    tp = 0.0
    seen = 0
    for _, group_tp, size in _rank_groups(scores, labels):
        prev_recall = tp / total_pos
        tp += group_tp
        seen += size
        recall = tp / total_pos
        precision = tp / seen
        ap += (recall - prev_recall) * precision
    return ap


def pr_curve(scores, labels) -> PRCurve:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    total_pos = labels.sum()
    if total_pos == 0:
        raise MetricError("PR curve needs at least one positive label")
    pts = []
    tp = 0.0
    seen = 0
    for score, group_tp, size in _rank_groups(scores, labels):
        tp += group_tp
        seen += size
        pts.append((score, tp / seen, tp / total_pos))
    return PRCurve(pts)


def f1_at_threshold(scores, labels, threshold: float) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    pred = scores > threshold
    tp = float((pred & (labels == 1)).sum())
    fp = float((pred & (labels == 0)).sum())
    fn = float((~pred & (labels == 1)).sum())
    if tp == 0.0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def f1_best(scores, labels) -> tuple[float, float]:
    """Max F1 over thresholds at midpoints of sorted unique scores.

    Prediction is score > threshold; ties on F1 break toward the higher
    threshold. Returns (F1, threshold).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.sum() == 0:
        raise MetricError("F1 sweep needs at least one positive label")
    uniq = np.unique(scores)
    cands = [uniq[0] - 1.0] + [(a + b) / 2.0 for a, b in zip(uniq[:-1], uniq[1:])]
    best_f1, best_thr = -1.0, cands[0]
    for thr in cands:
        f1 = f1_at_threshold(scores, labels, thr)
        if f1 > best_f1 or (f1 == best_f1 and thr > best_thr):
            best_f1, best_thr = f1, thr
    return best_f1, best_thr


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_counts(candidate: list, reference: list, max_order: int = 4):
    """Clipped n-gram matches and totals for one candidate/reference pair."""
    matches = np.zeros(max_order, dtype=np.int64)
    totals = np.zeros(max_order, dtype=np.int64)
    for n in range(1, max_order + 1):
        cand = _ngrams(candidate, n)
        ref = _ngrams(reference, n)
        totals[n - 1] = max(len(candidate) - n + 1, 0)
        matches[n - 1] = sum(min(c, ref[g]) for g, c in cand.items())
    return matches, totals


def _bleu_from_counts(matches, totals, cand_len: int, ref_len: int,
                      max_order: int) -> BleuReport:
    precisions = [float(m) / t if t > 0 else 0.0 for m, t in zip(matches, totals)]
    if cand_len == 0:
        return BleuReport([0.0] * max_order, precisions, 0.0)
    bp = 1.0 if cand_len >= ref_len else float(np.exp(1.0 - ref_len / cand_len))
    bleu = []
    for n in range(1, max_order + 1):
        ps = precisions[:n]
        if any(p == 0.0 for p in ps):
            bleu.append(0.0)
        else:
            bleu.append(bp * float(np.exp(np.mean(np.log(ps)))))
    return BleuReport(bleu, precisions, bp)


def bleu(candidate: list, reference: list, max_order: int = 4) -> BleuReport:
    """Single-reference BLEU-1..max_order, no smoothing."""
    if not reference:
        raise MetricError("BLEU needs a nonempty reference")
    matches, totals = bleu_counts(candidate, reference, max_order)
    return _bleu_from_counts(matches, totals, len(candidate), len(reference), max_order)


def corpus_bleu(pairs: list[tuple[list, list]], max_order: int = 4) -> BleuReport:
    """Corpus-level BLEU: counts and lengths aggregated before the ratio."""
    if not pairs:
        raise MetricError("corpus BLEU needs at least one pair")
    matches = np.zeros(max_order, dtype=np.int64)
    totals = np.zeros(max_order, dtype=np.int64)
    cand_len = ref_len = 0
    for cand, ref in pairs:
        if not ref:
            raise MetricError("BLEU needs a nonempty reference")
        m, t = bleu_counts(cand, ref, max_order)
        matches += m
        totals += t
        cand_len += len(cand)
        ref_len += len(ref)
    return _bleu_from_counts(matches, totals, cand_len, ref_len, max_order)


@dataclass
class GenerationAccuracy:
    accuracy: float          # fraction of resolvable generations that mismatch
    mismatched: int
    matched: int
    unresolvable: int        # excluded from the denominator

    @property
    def total(self):
        return self.mismatched + self.matched + self.unresolvable

    @property
    def unresolvable_rate(self):
        return self.unresolvable / self.total if self.total else 0.0


def generation_accuracy(pairs: list[tuple[str, str]], oracle) -> GenerationAccuracy:
    """Fraction of (item title, generated query) pairs the oracle calls mismatched.

    A generation with no resolvable product type still counts as a
    mismatch when it shares a token with the item's accessory phrases;
    otherwise it is excluded and reported as unresolvable.
    """
    mismatched = matched = unresolvable = 0
    for title, query in pairs:
        label = oracle.label(title, query)
        if label == 1:
            mismatched += 1
        elif label == 0:
            matched += 1
        elif oracle.accessory_token_overlap(title, query):
            mismatched += 1
        else:
            unresolvable += 1
    denom = mismatched + matched
    acc = mismatched / denom if denom else 0.0
    return GenerationAccuracy(acc, mismatched, matched, unresolvable)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with a 1e-12 norm floor; zero vectors score 0."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b) / (na * nb)


def knn(query_vec: np.ndarray, corpus: np.ndarray, top_k: int = 3,
        exclude: int | None = None) -> list[tuple[int, float]]:
    """Top-k corpus rows by cosine similarity; ties break to the lower index."""
    sims = np.array([cosine(query_vec, row) for row in corpus])
    if exclude is not None:
        sims[exclude] = -np.inf
    order = np.argsort(-sims, kind="stable")[:top_k]
    return [(int(i), float(sims[i])) for i in order]

"""Evaluation: precision-recall machinery, BLEU, and embedding neighbors.

Average precision is the step-wise interpolated sum over descending-score
ranks (tied scores enter together), not the trapezoidal area. AP, the PR
curve and the best-F1 sweep all come from one stable descending sort:
the places where adjacent sorted scores differ give the distinct scores,
and cumulative sums of the sorted labels give the true positives and the
number of scores at or above each one, as scikit-learn's
``precision_recall_curve`` does. Everything after the sort is linear, and
the sums run in rank order, so the results equal a per-rank loop exactly.
BLEU is computed without smoothing against a single reference and
reported on a 0..1 scale; multiply by 100 for display.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 4   # BLEU-1 to BLEU-4, the cumulative scores every report gives


class MetricError(ValueError):
    """Raised when a metric's preconditions are not met."""


@dataclass
class PRCurve:
    points: list[tuple[float, float, float]]  # (threshold, precision, recall)


@dataclass
class BleuReport:
    bleu: list[float]          # cumulative BLEU-1..MAX_ORDER
    precisions: list[float]    # modified n-gram precisions p_1..p_max
    brevity_penalty: float


def _ranked(scores, labels, what: str):
    """Check one score per 0/1 label, then rank them by one stable sort.

    Returns (distinct, tp, seen, total_pos): the distinct scores in
    descending order and, at each, the cumulative count of true positives
    and of scores at or above it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise MetricError(f"{what} needs one label per score, got "
                          f"{scores.shape} scores and {labels.shape} labels")
    if scores.size == 0:
        raise MetricError(f"{what} needs at least one score")
    if not np.all((labels == 0) | (labels == 1)):
        raise MetricError(f"{what} needs labels of 0 or 1")
    total_pos = labels.sum()
    if total_pos == 0:
        raise MetricError(f"{what} needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    seen = np.append(starts[1:], s.size)
    tp = np.cumsum(labels[order])[seen - 1]
    return s[starts], tp, seen, total_pos


def average_precision(scores, labels) -> float:
    """AP = sum over descending ranks of (R_i - R_{i-1}) * P_i."""
    _, tp, seen, total_pos = _ranked(scores, labels, "average precision")
    recall = tp / total_pos
    gain = recall - np.concatenate(([0.0], recall[:-1]))
    # cumsum adds in rank order, unlike the pairwise np.sum
    return float(np.cumsum(gain * (tp / seen))[-1])


def pr_curve(scores, labels) -> PRCurve:
    """One (threshold, precision, recall) point per distinct score, descending."""
    distinct, tp, seen, total_pos = _ranked(scores, labels, "PR curve")
    return PRCurve(list(zip(distinct.tolist(), (tp / seen).tolist(),
                            (tp / total_pos).tolist())))


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
    distinct, tp, seen, total_pos = _ranked(scores, labels, "F1 sweep")
    uniq = distinct[::-1]
    cands = np.concatenate(([uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0))
    # distinct scores strictly above each candidate; exact even where a
    # midpoint rounds onto one of its neighbours
    above = uniq.size - np.searchsorted(uniq, cands, side="right")
    tp = np.concatenate(([0.0], tp))[above]
    fp = np.concatenate(([0], seen))[above] - tp
    # the denominator is at least total_pos > 0, so tp = 0 gives F1 = 0.0
    f1 = 2 * tp / (2 * tp + fp + (total_pos - tp))
    best = cands.size - 1 - int(np.argmax(f1[::-1]))   # last max: higher threshold
    return float(f1[best]), float(cands[best])


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_counts(candidate: list, reference: list):
    """Clipped n-gram matches and totals for one candidate/reference pair."""
    matches = np.zeros(MAX_ORDER, dtype=np.int64)
    totals = np.zeros(MAX_ORDER, dtype=np.int64)
    for n in range(1, MAX_ORDER + 1):
        cand = _ngrams(candidate, n)
        ref = _ngrams(reference, n)
        totals[n - 1] = max(len(candidate) - n + 1, 0)
        matches[n - 1] = sum(min(c, ref[g]) for g, c in cand.items())
    return matches, totals


def corpus_bleu(pairs: list[tuple[list, list]]) -> BleuReport:
    """Corpus-level BLEU: counts and lengths aggregated before the ratio."""
    if not pairs:
        raise MetricError("corpus BLEU needs at least one pair")
    matches = np.zeros(MAX_ORDER, dtype=np.int64)
    totals = np.zeros(MAX_ORDER, dtype=np.int64)
    cand_len = ref_len = 0
    for cand, ref in pairs:
        if not ref:
            raise MetricError("BLEU needs a nonempty reference")
        m, t = bleu_counts(cand, ref)
        matches += m
        totals += t
        cand_len += len(cand)
        ref_len += len(ref)
    precisions = [float(m) / t if t > 0 else 0.0 for m, t in zip(matches, totals)]
    if cand_len == 0:
        return BleuReport([0.0] * MAX_ORDER, precisions, 0.0)
    bp = 1.0 if cand_len >= ref_len else float(np.exp(1.0 - ref_len / cand_len))
    bleu = []
    for n in range(1, MAX_ORDER + 1):
        ps = precisions[:n]
        if any(p == 0.0 for p in ps):
            bleu.append(0.0)
        else:
            bleu.append(bp * float(np.exp(np.mean(np.log(ps)))))
    return BleuReport(bleu, precisions, bp)


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


def knn(query_vec: np.ndarray, corpus: np.ndarray, top_k: int = 3,
        exclude: int | None = None) -> list[tuple[int, float]]:
    """Top-k corpus rows by cosine similarity; ties break to the lower index.

    Norms below 1e-12 count as zero, and a zero vector scores 0.
    """
    def unit(x):
        norm = np.linalg.norm(x, axis=-1, keepdims=True)
        return np.where(norm < 1e-12, 0.0, x / np.maximum(norm, 1e-12))

    sims = unit(np.asarray(corpus, dtype=np.float64)) @ unit(
        np.asarray(query_vec, dtype=np.float64))
    if exclude is not None:
        sims[exclude] = -np.inf
    order = np.argsort(-sims, kind="stable")[:top_k]
    return [(int(i), float(sims[i])) for i in order]

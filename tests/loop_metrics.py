"""Per-rank loop versions of the ranking metrics, kept as the reference.

These are the implementations ``quarts.metrics`` used before it ranked
once and switched to cumulative sums: a Python loop over tied-score
groups for AP and the PR curve, and a full rescan of every score for each
best-F1 threshold. ``tests/test_metrics.py`` requires the library to
return exactly (``==``) what these return.
"""
import numpy as np

from quarts import metrics as M
from quarts.metrics import f1_at_threshold


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
        raise M.MetricError("average precision needs at least one positive label")
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


def pr_curve(scores, labels) -> M.PRCurve:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    total_pos = labels.sum()
    if total_pos == 0:
        raise M.MetricError("PR curve needs at least one positive label")
    pts = []
    tp = 0.0
    seen = 0
    for score, group_tp, size in _rank_groups(scores, labels):
        tp += group_tp
        seen += size
        pts.append((score, tp / seen, tp / total_pos))
    return M.PRCurve(pts)


def f1_best(scores, labels) -> tuple[float, float]:
    """Max F1 over thresholds at midpoints of sorted unique scores.

    Prediction is score > threshold; ties on F1 break toward the higher
    threshold. Returns (F1, threshold).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.sum() == 0:
        raise M.MetricError("F1 sweep needs at least one positive label")
    uniq = np.unique(scores)
    cands = [uniq[0] - 1.0] + [(a + b) / 2.0 for a, b in zip(uniq[:-1], uniq[1:])]
    best_f1, best_thr = -1.0, cands[0]
    for thr in cands:
        f1 = f1_at_threshold(scores, labels, thr)
        if f1 > best_f1 or (f1 == best_f1 and thr > best_thr):
            best_f1, best_thr = f1, thr
    return best_f1, best_thr

"""Ranking and classification metrics: ROC AUC, precision/recall/F1, accuracy."""

from __future__ import annotations

import numpy as np


class UndefinedMetricError(ValueError):
    """The metric is undefined for the given inputs (e.g. single-class AUC)."""


def roc_auc_binary(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, ties 1/2.

    Computed from mid-ranks, which is exactly equivalent to trapezoidal ROC
    integration and to brute-force pair counting. NaN scores have no rank
    and raise ValueError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores and labels must be flat and equal-length, got {scores.shape}, {labels.shape}")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    if np.isnan(scores).any():
        raise ValueError("roc_auc scores contain NaN")
    _, block, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # 1-based mid-rank of each block of tied scores
    mid = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = mid[block][pos].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc(scores, labels) -> float:
    """Binary AUC for 1-d scores; macro one-vs-rest AUC for a score matrix.

    For the multiclass form ``scores`` is [n, c] of per-class scores (e.g.
    softmax outputs) and each class present in ``labels`` is scored against
    the rest, then averaged unweighted.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim == 1:
        return roc_auc_binary(scores, labels)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 1-d or 2-d, got shape {scores.shape}")
    present = np.unique(labels)
    if present.size < 2:
        raise UndefinedMetricError("roc_auc needs at least two classes present")
    aucs = []
    for k in range(scores.shape[1]):
        if (labels == k).any() and (labels != k).any():
            aucs.append(roc_auc_binary(scores[:, k], (labels == k).astype(int)))
    return float(np.mean(aucs))


def confusion_matrix(preds, labels, n_classes: int) -> np.ndarray:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def prf1(preds, labels, n_classes: int) -> dict:
    """Support-weighted precision/recall/F1 plus accuracy.

    Weighted recall reduces algebraically to sum(TP)/N, which is accuracy;
    it is computed that way so the identity holds exactly.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0:
        raise ValueError("prf1 needs at least one sample")
    cm = confusion_matrix(preds, labels, n_classes)
    tp = np.diag(cm).astype(np.float64)
    support = cm.sum(axis=1).astype(np.float64)
    predicted = cm.sum(axis=0).astype(np.float64)
    n = float(preds.size)

    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)

    accuracy = float(tp.sum() / n)
    return {
        "precision": float((precision * support).sum() / n),
        "recall": accuracy,
        "f1": float((f1 * support).sum() / n),
        "accuracy": accuracy,
    }

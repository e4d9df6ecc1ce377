"""Confusion-matrix counting and precision/recall/F1.

All three ratios read 0/0 as 0, so ranking stays deterministic and NaN-free.
A result is its three numbers only, so a sweep row's metrics read back from
JSON equal to the row that wrote them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


def confusion(
    predictions: np.ndarray, labels: np.ndarray, positive_class: int = 1
) -> ConfusionCounts:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise DataError(
            f"predictions {predictions.shape} and labels {labels.shape} must be "
            "equal-length vectors"
        )
    if predictions.shape[0] == 0:
        raise DataError("cannot build a confusion matrix from zero samples")
    pred_pos = predictions == positive_class
    label_pos = labels == positive_class
    return ConfusionCounts(
        tp=int(np.sum(pred_pos & label_pos)),
        fp=int(np.sum(pred_pos & ~label_pos)),
        fn=int(np.sum(~pred_pos & label_pos)),
        tn=int(np.sum(~pred_pos & ~label_pos)),
    )


def _ratio(num: float, den: float) -> float:
    if den == 0:
        return 0.0
    return num / den


def compute_metrics(counts: ConfusionCounts) -> Metrics:
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    recall = _ratio(counts.tp, counts.tp + counts.fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return Metrics(precision=precision, recall=recall, f1=f1)


def evaluate(
    predictions: np.ndarray, labels: np.ndarray, positive_class: int = 1
) -> Metrics:
    return compute_metrics(confusion(predictions, labels, positive_class))

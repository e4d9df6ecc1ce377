"""Class-weighted logistic regression, the classical sanity anchor.

Optimized by full-batch Adam on the weighted binary cross entropy with the
same early-stopping rules as the circuit trainer. Deterministic: parameters
start at zero, so no RNG is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .metrics import Metrics, evaluate
from .pipeline import SplitDataset
from .training import Adam, ClassWeights, TrainConfig, compute_class_weights


@dataclass(frozen=True)
class LogRegModel:
    weights: np.ndarray
    bias: float


@dataclass(frozen=True)
class LogRegReport:
    model: LogRegModel
    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int
    stopped_early: bool


def predict_logreg(model: LogRegModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class indices and positive-class probabilities; class = p >= 0.5."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.weights.shape[0]:
        raise DataError(
            f"expected features of width {model.weights.shape[0]}, "
            f"got shape {features.shape}"
        )
    z = features @ model.weights + model.bias
    probs = 1.0 / (1.0 + np.exp(-z))
    return (probs >= 0.5).astype(np.int64), probs


def _loss_and_grad(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, sample_w: np.ndarray
) -> tuple[float, np.ndarray, float]:
    z = x @ w + b
    # log sigma(z) = -logaddexp(0, -z); log(1 - sigma(z)) = -logaddexp(0, z)
    losses = sample_w * (y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z))
    loss = float(losses.mean())
    dz = sample_w * (1.0 / (1.0 + np.exp(-z)) - y) / y.shape[0]
    return loss, x.T @ dz, float(dz.sum())


def fit_logreg(
    data: SplitDataset,
    weights: ClassWeights | None = None,
    tcfg: TrainConfig = TrainConfig(),
) -> LogRegReport:
    if weights is None:
        weights = compute_class_weights(data.train.labels)
    weight_arr = weights.as_array()
    x_train = data.train.features
    y_train = data.train.labels.astype(np.float64)
    w_train = weight_arr[data.train.labels]
    x_val = data.validation.features
    y_val = data.validation.labels.astype(np.float64)
    w_val = weight_arr[data.validation.labels]

    w = np.zeros(x_train.shape[1], dtype=np.float64)
    b = 0.0
    adam = Adam(w.shape[0] + 1, tcfg.learning_rate)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = -1
    best = (w.copy(), b)
    bad_streak = 0
    stopped_early = False
    for epoch in range(tcfg.max_epochs):
        loss, grad_w, grad_b = _loss_and_grad(w, b, x_train, y_train, w_train)
        packed = adam.step(np.concatenate([w, [b]]),
                           np.concatenate([grad_w, [grad_b]]))
        w, b = packed[:-1], float(packed[-1])
        train_losses.append(loss)
        val_loss, _, _ = _loss_and_grad(w, b, x_val, y_val, w_val)
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best = (w.copy(), b)
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= tcfg.patience:
                stopped_early = True
                break
    model = LogRegModel(weights=best[0], bias=best[1])
    return LogRegReport(
        model=model,
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        best_epoch=best_epoch,
        stopped_early=stopped_early,
    )


def logreg_split_metrics(model: LogRegModel, data: SplitDataset) -> tuple[Metrics, Metrics, Metrics]:
    out = []
    for part in (data.train, data.validation, data.test):
        predictions, _ = predict_logreg(model, part.features)
        out.append(evaluate(predictions, part.labels))
    return tuple(out)

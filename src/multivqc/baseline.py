"""Class-weighted logistic regression, the classical sanity anchor.

Optimized by full-batch Adam on the weighted binary cross entropy and
stopped by the circuit trainer's one early-stopping rule,
``training.keep_best``. Deterministic: parameters start at zero, so no RNG
is involved. ``run_baseline`` turns one fit into a sweep row, the job the
sweep runs for each feature count beside its grid cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .metrics import Metrics, evaluate
from .pipeline import SplitDataset
from .training import Adam, SweepRow, TrainConfig, compute_class_weights, keep_best


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


def _loss(
    theta: np.ndarray, x: np.ndarray, y: np.ndarray, sample_w: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted loss at ``theta``, the weights followed by the bias, and the
    logits it was computed from."""
    z = x @ theta[:-1] + theta[-1]
    # log sigma(z) = -logaddexp(0, -z); log(1 - sigma(z)) = -logaddexp(0, z)
    losses = sample_w * (y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z))
    return float(losses.mean()), z


def _loss_and_grad(
    theta: np.ndarray, x: np.ndarray, y: np.ndarray, sample_w: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted loss and its gradient at ``theta``."""
    loss, z = _loss(theta, x, y, sample_w)
    dz = sample_w * (1.0 / (1.0 + np.exp(-z)) - y) / y.shape[0]
    return loss, np.append(x.T @ dz, dz.sum())


def fit_logreg(data: SplitDataset, tcfg: TrainConfig = TrainConfig()) -> LogRegReport:
    """Full-batch Adam from zero, weighted by the train split's class
    weights, with ``keep_best`` early stopping on validation loss."""
    weight_arr = compute_class_weights(data.train.labels).as_array()
    x_train = data.train.features
    y_train = data.train.labels.astype(np.float64)
    w_train = weight_arr[data.train.labels]
    x_val = data.validation.features
    y_val = data.validation.labels.astype(np.float64)
    w_val = weight_arr[data.validation.labels]

    initial = np.zeros(x_train.shape[1] + 1, dtype=np.float64)
    adam = Adam(initial.shape[0], tcfg.learning_rate)
    train_losses: list[float] = []
    val_losses: list[float] = []

    def epochs():
        theta = initial
        for _ in range(tcfg.max_epochs):
            loss, grad = _loss_and_grad(theta, x_train, y_train, w_train)
            theta = adam.step(theta, grad)
            train_losses.append(loss)
            val_losses.append(_loss(theta, x_val, y_val, w_val)[0])
            yield val_losses[-1], theta

    best_epoch, best, stopped_early = keep_best(epochs(), tcfg.patience, initial)
    return LogRegReport(
        model=LogRegModel(weights=best[:-1], bias=float(best[-1])),
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


def run_baseline(index: int, data: SplitDataset, tcfg: TrainConfig) -> SweepRow:
    """The sweep row at cell ``index`` of a logistic baseline fitted on ``data``."""
    report = fit_logreg(data, tcfg=tcfg)
    m_train, m_val, m_test = logreg_split_metrics(report.model, data)
    k = data.train.n_features
    return SweepRow(
        cell=index, model="logreg", features=k, n_vqcs=None,
        encoding=None, ansatz=None, reuploading=None, layers=None,
        n_params=k + 1, val_loss=report.val_losses[report.best_epoch],
        train=m_train, validation=m_val, test=m_test, status="ok",
        train_curve=report.train_losses, val_curve=report.val_losses,
    )

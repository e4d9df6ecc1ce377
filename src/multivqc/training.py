"""Weighted mini-batch training, layer-count search, and the sweep driver.

Class imbalance is handled by weighting each sample's cross-entropy term
with the opposite class's prevalence, so both classes contribute equal
total mass. Optimization is Adam over shuffled mini-batches.

One stopping rule, ``keep_best``, serves every loop that picks a best round
by validation loss: training epochs, layer counts, and the logistic
baseline's epochs. It keeps the first strict minimum and stops after a
fixed number of rounds in a row without improvement. Training stops after
``patience`` such epochs and returns the best epoch's parameters.

Layer search retrains from scratch at increasing layer counts and stops
once the validation loss has not improved for as many consecutive counts
as the circuit has qubits. The sweep runner, ``run_cells``, takes one job
per sweep row (grid cells and logistic baselines alike) and runs them
serially or on a process pool; each cell draws its own seeded RNG stream,
so serial and parallel execution produce identical tables.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .errors import (ConfigError, DataError, MultiVqcError, NumericalError, check_bool,
                     check_document, check_int, check_list, check_optional, check_real,
                     check_str)
from .gradients import batch_loss_gradient
from .metrics import Metrics, evaluate
from .model import (
    MODEL_CHECKS,
    MultiVqcConfig,
    MultiVqcModel,
    Rescale,
    nll_from_scores,
)
from .params import ParamStore
from .pipeline import SplitDataset
from .templates import Ansatz, Encoding


def _check_rate(name: str, value) -> float:
    if not check_real(name, value) > 0.0:
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
    return value


# One check per TrainConfig field; the CLI's config table points its train.*
# leaves at the same checks.
TRAIN_CHECKS = {
    # train_report.json keeps about 350 bytes per epoch: 35 MB at the cap.
    "max_epochs": partial(check_int, low=1, high=100_000),
    # A longer patience than the epoch cap could never stop training.
    "patience": partial(check_int, low=1, high=100_000),
    "learning_rate": _check_rate,
    # A gradient step holds about 26 KB per batch row at 8 qubits: 0.4 GB at the cap.
    "batch_size": partial(check_int, low=1, high=16_384),
    "seed": partial(check_int, low=0),
}


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 100
    patience: int = 5
    learning_rate: float = 0.01
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for field, check in TRAIN_CHECKS.items():
            check(field, getattr(self, field))


@dataclass(frozen=True)
class ClassWeights:
    weight_class0: float
    weight_class1: float

    def as_array(self) -> np.ndarray:
        return np.array([self.weight_class0, self.weight_class1], dtype=np.float64)


def _step_ulps(value: float, steps: int) -> float:
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


def compute_class_weights(labels: np.ndarray) -> ClassWeights:
    """Each class is weighted by the other class's proportion, which makes
    weight_0 * count_0 equal weight_1 * count_1 exactly.

    The two quotients round independently, so the float products can end
    up one ulp apart. The smallest ulp adjustment that restores exact
    product equality is applied; each weight stays within a few
    representable steps of the other class's exact proportion.
    """
    labels = np.asarray(labels)
    count0 = int(np.sum(labels == 0))
    count1 = int(np.sum(labels == 1))
    if count0 == 0 or count1 == 0:
        raise DataError("class weighting needs both classes present")
    total = count0 + count1
    weight0 = count1 / total
    weight1 = count0 / total
    for cost in range(0, 9):
        for i in range(-cost, cost + 1):
            j = cost - abs(i)
            for signed_j in ((j,) if j == 0 else (j, -j)):
                a = _step_ulps(weight0, i)
                b = _step_ulps(weight1, signed_j)
                if a * count0 == b * count1:
                    return ClassWeights(weight_class0=a, weight_class1=b)
    return ClassWeights(weight_class0=weight0, weight_class1=weight1)


def keep_best(
    rounds: Iterable[tuple[float, object]], patience: int, initial: object,
) -> tuple[int, object, bool]:
    """The one early-stopping rule: read (validation loss, snapshot) rounds
    and keep the first strict minimum. After ``patience`` rounds in a row
    without improvement, stop drawing rounds. Returns (best index, best
    snapshot, stopped early); (-1, ``initial``, ...) if no round improves on
    infinity, e.g. when every loss is NaN."""
    best_index, best, best_loss, streak = -1, initial, math.inf, 0
    for index, (loss, snapshot) in enumerate(rounds):
        if loss < best_loss:
            best_index, best, best_loss, streak = index, snapshot, loss, 0
        else:
            streak += 1
            if streak >= patience:
                return best_index, best, True
    return best_index, best, False


class Adam:
    """Adam with bias correction and the usual constants."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, n_params: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = np.zeros(n_params, dtype=np.float64)
        self.v = np.zeros(n_params, dtype=np.float64)

    def step(self, values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
        m_hat = self.m / (1.0 - self.BETA1 ** self.t)
        v_hat = self.v / (1.0 - self.BETA2 ** self.t)
        return values - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    train_metrics: Metrics
    val_metrics: Metrics


@dataclass(frozen=True)
class TrainReport:
    epochs: tuple[EpochRecord, ...]
    best_epoch: int
    final_params: ParamStore
    stopped_early: bool

    @property
    def best_val_loss(self) -> float:
        return self.epochs[self.best_epoch].val_loss


def _evaluate_split(
    model: MultiVqcModel, store: ParamStore,
    features: np.ndarray, labels: np.ndarray, weight_arr: np.ndarray,
) -> tuple[float, Metrics]:
    trace = model.forward_batch(store, features)
    loss = float(nll_from_scores(trace.scores, labels, weight_arr).mean())
    predictions = np.argmax(trace.probabilities, axis=1)
    return loss, evaluate(predictions, labels)


def train(config: MultiVqcConfig, data: SplitDataset, tcfg: TrainConfig) -> TrainReport:
    """Adam over shuffled mini-batches, weighted by the train split's class
    weights, with ``keep_best`` early stopping on validation loss: after
    `patience` consecutive non-improving epochs training stops and the best
    epoch's parameters are returned. Fully reproducible from tcfg.seed.
    """
    if data.train.n_features != config.n_features:
        raise DataError(
            f"model expects {config.n_features} features, split has "
            f"{data.train.n_features}"
        )
    weight_arr = compute_class_weights(data.train.labels).as_array()
    model = MultiVqcModel(config)
    rng = np.random.default_rng(tcfg.seed)
    store = model.new_store(rng)
    adam = Adam(store.total, tcfg.learning_rate)

    x_train, y_train = data.train.features, data.train.labels
    n_train = x_train.shape[0]
    records: list[EpochRecord] = []

    def epochs():
        for epoch in range(tcfg.max_epochs):
            order = rng.permutation(n_train)
            for batch_no, start in enumerate(range(0, n_train, tcfg.batch_size)):
                idx = order[start:start + tcfg.batch_size]
                try:
                    loss, grad = batch_loss_gradient(
                        model, store, x_train[idx], y_train[idx], weight_arr)
                except NumericalError as exc:
                    raise NumericalError(
                        f"epoch {epoch}, batch {batch_no}, parameter norm "
                        f"{np.linalg.norm(store.values):.6g}: {exc}"
                    ) from exc
                if not np.isfinite(loss):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch}, batch {batch_no}, "
                        f"parameter norm {np.linalg.norm(store.values):.6g}"
                    )
                store.values = adam.step(store.values, grad)
            train_loss, train_metrics = _evaluate_split(
                model, store, x_train, y_train, weight_arr)
            val_loss, val_metrics = _evaluate_split(
                model, store, data.validation.features, data.validation.labels, weight_arr)
            records.append(EpochRecord(epoch, train_loss, val_loss,
                                       train_metrics, val_metrics))
            # Adam.step returns a new vector, so this one is a snapshot.
            yield val_loss, store.values

    best_epoch, best_values, stopped_early = keep_best(
        epochs(), tcfg.patience, store.values)
    return TrainReport(
        epochs=tuple(records),
        best_epoch=best_epoch,
        final_params=ParamStore(model.param_counts, best_values),
        stopped_early=stopped_early,
    )


@dataclass(frozen=True)
class LayerSearchReport:
    tried_layer_counts: tuple[int, ...]
    validation_losses: tuple[float, ...]
    chosen_layers: int
    stop_reason: str
    best_report: TrainReport


def select_layers(
    base_config: MultiVqcConfig,
    data: SplitDataset,
    tcfg: TrainConfig,
    *,
    max_layers: int,
) -> LayerSearchReport:
    """Try L = 1, 2, 3, ... with a fresh training run each (no warm start);
    stop once the best validation loss has gone unimproved for as many
    consecutive counts as there are qubits. One shared L applies to every
    circuit in the chain."""
    stall_limit = base_config.n_features
    reports: list[TrainReport] = []

    def layer_counts():
        for layers in range(1, max_layers + 1):
            reports.append(train(replace(base_config, n_layers=layers), data, tcfg))
            yield reports[-1].best_val_loss, reports[-1]

    best_index, best_report, stalled = keep_best(layer_counts(), stall_limit, None)
    return LayerSearchReport(
        tried_layer_counts=tuple(range(1, len(reports) + 1)),
        validation_losses=tuple(report.best_val_loss for report in reports),
        chosen_layers=best_index + 1,
        stop_reason=(f"validation loss unimproved for {stall_limit} consecutive layer counts"
                     if stalled else f"layer cap {max_layers} reached"),
        best_report=best_report,
    )


@dataclass(frozen=True)
class SweepCell:
    index: int
    features: int
    n_vqcs: int
    encoding: Encoding
    ansatz: Ansatz
    reuploading: bool


def check_counts(name: str, value) -> list[int]:
    """``value`` if it is a list of distinct integers >= 1: a sweep grid axis."""
    if len(set(check_list(name, value, partial(check_int, low=1)))) != len(value):
        raise ConfigError(f"{name} must not repeat an entry, got {value!r}")
    return value


def build_grid(feature_counts: tuple[int, ...],
               vqc_counts: tuple[int, ...] = (1, 2, 3)) -> tuple[SweepCell, ...]:
    """Fixed enumeration order; the cell index seeds the cell's RNG stream,
    so this order is part of the reproducibility contract. With any circuit
    count, each feature count is a circuit's qubit count and is checked as
    one before a cell is built."""
    if vqc_counts:
        for features in feature_counts:
            MODEL_CHECKS["n_features"]("sweep.feature_counts entry", features)
    cells = []
    index = 0
    for features in feature_counts:
        for n_vqcs in vqc_counts:
            for encoding in (Encoding.RX, Encoding.RY):
                for ansatz in (Ansatz.BASIC, Ansatz.STRONGLY):
                    for reuploading in (True, False):
                        cells.append(SweepCell(index, features, n_vqcs,
                                               encoding, ansatz, reuploading))
                        index += 1
    return tuple(cells)


@dataclass(frozen=True)
class SweepRow:
    cell: int
    model: str
    features: int
    n_vqcs: int | None
    encoding: str | None
    ansatz: str | None
    reuploading: bool | None
    layers: int | None
    n_params: int
    val_loss: float
    train: Metrics
    validation: Metrics
    test: Metrics
    status: str
    error: str = ""
    train_curve: tuple[float, ...] = ()
    val_curve: tuple[float, ...] = ()


def cell_seed(base_seed: int, cell_index: int) -> int:
    """Independent per-cell RNG stream derived from (seed, cell index)."""
    return int(np.random.SeedSequence([base_seed, cell_index]).generate_state(1)[0])


_FAILED_METRICS = Metrics(0.0, 0.0, 0.0)


def run_cell(
    cell: SweepCell,
    data: SplitDataset,
    tcfg: TrainConfig,
    rescale: Rescale = Rescale.PI,
    *,
    max_layers: int,
) -> SweepRow:
    """Layer search plus final evaluation for one grid cell. The train and
    validation metrics are the best epoch's; only the test split is scored
    anew. Failures are captured in the row instead of propagating, so one
    bad cell cannot bring down a sweep."""
    seeded = replace(tcfg, seed=cell_seed(tcfg.seed, cell.index))
    try:
        base = MultiVqcConfig(
            n_features=cell.features, n_classes=2, n_vqcs=cell.n_vqcs,
            encoding=cell.encoding, ansatz=cell.ansatz, n_layers=1,
            reuploading=cell.reuploading, rescale=rescale,
        )
        search = select_layers(base, data, seeded, max_layers=max_layers)
        report = search.best_report
        model = MultiVqcModel(replace(base, n_layers=search.chosen_layers))
        store = report.final_params
        best = report.epochs[report.best_epoch]
        return SweepRow(
            cell=cell.index, model="multivqc", features=cell.features,
            n_vqcs=cell.n_vqcs, encoding=cell.encoding.value,
            ansatz=cell.ansatz.value, reuploading=cell.reuploading,
            layers=search.chosen_layers, n_params=store.total,
            val_loss=report.best_val_loss,
            train=best.train_metrics, validation=best.val_metrics,
            test=evaluate(model.predict_batch(store, data.test.features), data.test.labels),
            status="ok",
            train_curve=tuple(r.train_loss for r in report.epochs),
            val_curve=tuple(r.val_loss for r in report.epochs),
        )
    except (MultiVqcError, ValueError, FloatingPointError) as exc:
        return SweepRow(
            cell=cell.index, model="multivqc", features=cell.features,
            n_vqcs=cell.n_vqcs, encoding=cell.encoding.value,
            ansatz=cell.ansatz.value, reuploading=cell.reuploading,
            layers=None, n_params=0, val_loss=float("inf"),
            train=_FAILED_METRICS, validation=_FAILED_METRICS,
            test=_FAILED_METRICS, status="failed", error=str(exc),
        )


def cell_job(cell: SweepCell, data: SplitDataset, tcfg: TrainConfig, rescale: Rescale,
             max_layers: int) -> SweepRow:
    """``run_cell`` as this module holds it when the job runs, so a partial of
    this function pickles to a pool worker even while ``run_cell`` is wrapped."""
    return run_cell(cell, data, tcfg, rescale, max_layers=max_layers)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_cells(jobs: list, max_workers: int = 1) -> list[SweepRow]:
    """Run sweep jobs, each a picklable zero-argument call returning one row,
    serially or on a process pool of at most ``max_workers``, jobs and usable
    CPUs; the rows come back in the order of ``jobs`` either way."""
    workers = min(max_workers, len(jobs), _usable_cpus())
    if workers < min(max_workers, len(jobs)):
        print(f"note: sweep.workers={max_workers} capped at {workers}, the usable CPU count",
              file=sys.stderr)
    if workers <= 1:
        return [job() for job in jobs]
    # Imported here: it loads multiprocessing, which a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(operator.call, jobs))


def rank_rows(rows: list[SweepRow]) -> list[SweepRow]:
    """Successful rows by descending validation F1, ties broken by fewer
    parameters then fewer circuits; failed rows last in cell order."""
    def key(row: SweepRow):
        failed = row.status != "ok"
        return (failed, -row.validation.f1 if not failed else 0.0,
                row.n_params, row.n_vqcs or 0, row.cell)
    return sorted(rows, key=key)


# Every column of a sweep row's record, in sweep.csv order, with its check.
# A column written as "" holds None in the row, or an infinite val_loss.
_METRIC_PREFIXES = {"train": "train", "validation": "val", "test": "test"}
_COUNT = partial(check_int, low=0)
SWEEP_ROW_COLUMNS = {
    "cell": _COUNT, "model": check_str, "features": _COUNT,
    "n_vqcs": check_optional(_COUNT, ""), "encoding": check_optional(check_str, ""),
    "ansatz": check_optional(check_str, ""), "reuploading": check_optional(check_bool, ""),
    "layers": check_optional(_COUNT, ""), "n_params": _COUNT,
    "val_loss": check_optional(check_real, "", math.inf),
    **{f"{prefix}_{name}": check_real
       for prefix in _METRIC_PREFIXES.values() for name in ("precision", "recall", "f1")},
    "status": check_str, "error": check_str,
}
SWEEP_CSV_COLUMNS = ("rank", *SWEEP_ROW_COLUMNS)


def sweep_row_record(rank: int, row: SweepRow) -> dict:
    values = {**vars(row), "val_loss": row.val_loss if np.isfinite(row.val_loss) else None,
              **{f"{prefix}_{name}": value for field, prefix in _METRIC_PREFIXES.items()
                 for name, value in vars(getattr(row, field)).items()}}
    return {"rank": rank, **{column: "" if values[column] is None else values[column]
                             for column in SWEEP_ROW_COLUMNS}}


def sweep_row_to_json(row: SweepRow) -> dict:
    """A row's JSON form, as ``sweep.json`` and the sweep's cell markers hold
    it: its CSV record without the rank, plus the two loss curves."""
    record = sweep_row_record(0, row)
    del record["rank"]
    return {**record, "train_curve": list(row.train_curve), "val_curve": list(row.val_curve)}


def sweep_rows_to_json_dict(rows: list[SweepRow], base_seed: int) -> dict:
    return {
        "format": "multivqc-sweep/1",
        "seed": base_seed,
        "rows": [{"rank": rank, **sweep_row_to_json(row)}
                 for rank, row in enumerate(rank_rows(rows), start=1)],
    }


def _check_curve(name: str, value) -> tuple[float, ...]:
    return tuple(check_list(name, value, check_real))


SWEEP_ROW_LEAVES = {**SWEEP_ROW_COLUMNS, "train_curve": _check_curve,
                    "val_curve": _check_curve}


def sweep_row_from_json(record: dict) -> SweepRow:
    """Rebuild a row from its ``sweep_row_to_json`` form (the rank of a
    ``sweep.json`` row is ignored); a record that fails SWEEP_ROW_LEAVES is
    a ConfigError."""
    if isinstance(record, dict):
        record = {key: value for key, value in record.items() if key != "rank"}
    values = check_document(SWEEP_ROW_LEAVES, record, "sweep row")
    metrics = {field: Metrics(*(values.pop(f"{prefix}_{name}")
                                for name in ("precision", "recall", "f1")))
               for field, prefix in _METRIC_PREFIXES.items()}
    return SweepRow(**values, **metrics)


def train_report_to_json_dict(
    report: TrainReport, config: MultiVqcConfig, tcfg: TrainConfig,
    weights: ClassWeights,
) -> dict:
    return {
        "format": "multivqc-train-report/1",
        "model_config": asdict(config),
        "train_config": asdict(tcfg),
        "class_weights": [weights.weight_class0, weights.weight_class1],
        "best_epoch": report.best_epoch,
        "stopped_early": report.stopped_early,
        "epochs": [
            {
                "epoch": r.epoch,
                "train_loss": r.train_loss, "val_loss": r.val_loss,
                "train_f1": r.train_metrics.f1, "val_f1": r.val_metrics.f1,
                "train_precision": r.train_metrics.precision,
                "val_precision": r.val_metrics.precision,
                "train_recall": r.train_metrics.recall,
                "val_recall": r.val_metrics.recall,
            }
            for r in report.epochs
        ],
    }

"""Tabular data pipeline: CSV loading, scaling, PCA, angle encoding, splits.

The preprocessing order is fixed and enforced by the one ``Pipeline``:
per-feature min-max scaling to [0, 1], then PCA on the scaled features, then
an affine re-normalization of the projected columns into a rotation-angle
range (default [0, pi]). Scaling and encoding are the same clipped per-column
map from a fitted [min, max] onto a range (``_to_range``). Every statistic is
fitted on the training split only; validation and test values falling outside
the fitted range are clipped. Constant feature columns are dropped at fit
time; a constant component encodes to the range midpoint.

PCA is a mean-centered covariance eigendecomposition computed by LAPACK
through ``np.linalg.eigh``. Component sign convention: the largest-magnitude
entry of each component is positive.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from functools import partial
from typing import TextIO

import numpy as np

from .errors import (ConfigError, DataError, PipelineStateError, check_bool, check_document,
                     check_equal, check_int, check_list, check_optional, check_real, check_str)

PIPELINE_FORMAT = "multivqc-pipeline/1"

ANGLE_RANGES: dict[str, tuple[float, float]] = {
    "0_pi": (0.0, np.pi),
    "0_2pi": (0.0, 2.0 * np.pi),
    "-pi_pi": (-np.pi, np.pi),
}


def _check_angle_range(name: str, value) -> tuple[float, float]:
    """The (low, high) pair of ``value``: a name from ANGLE_RANGES, or a pair
    of finite numbers with low < high."""
    if isinstance(value, str) and value in ANGLE_RANGES:
        return ANGLE_RANGES[value]
    if isinstance(value, (list, tuple)) and len(value) == 2:
        low, high = (float(check_real(f"{name}[{i}]", v)) for i, v in enumerate(value))
        if low < high:
            return low, high
    raise ConfigError(f"{name} must be one of {sorted(ANGLE_RANGES)} or a [low, high] "
                      f"pair of finite numbers with low < high, got {value!r}")


def _check_fractions(name: str, value) -> tuple[float, float, float]:
    """``value`` as three floats in (0, 1]: split fractions before their sum
    is checked."""
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or not all(0.0 < check_real(f"{name}[{i}]", f) <= 1.0 for i, f in enumerate(value))):
        raise ConfigError(f"{name} must be three numbers in (0, 1], got {value!r}")
    return tuple(float(f) for f in value)


# One check per config value the pipeline reads, returning the value as used.
# The CLI's config table points its leaves at the same checks.
PIPELINE_CHECKS = {
    "n_components": partial(check_int, low=1),
    "angle_range": _check_angle_range,
    "fractions": _check_fractions,
    "seed": partial(check_int, low=0),
}


@dataclass(frozen=True)
class Dataset:
    name: str
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or labels.ndim != 1 or feats.shape[0] != labels.shape[0]:
            raise DataError(
                f"features {feats.shape} and labels {labels.shape} are inconsistent"
            )
        if feats.shape[1] != len(self.feature_names):
            raise DataError(
                f"{feats.shape[1]} feature columns but "
                f"{len(self.feature_names)} feature names"
            )
        if not np.all(np.isfinite(feats)):
            raise DataError(f"dataset {self.name!r} contains non-finite feature values")
        if not np.all((labels == 0) | (labels == 1)):
            raise DataError(f"dataset {self.name!r} has labels outside {{0, 1}}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.name, self.features[indices], self.labels[indices],
                       self.feature_names)


@dataclass(frozen=True)
class SplitDataset:
    train: Dataset
    validation: Dataset
    test: Dataset
    fractions: tuple[float, float, float]
    seed: int


def read_json(path, what: str):
    """Parse a JSON file; an unreadable or malformed one is a ConfigError
    naming ``what`` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


@contextmanager
def open_atomic(path) -> Iterator[TextIO]:
    """A file written beside ``path`` that replaces it by ``os.replace`` when
    the block ends; if the block raises, it is removed and ``path`` is kept."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(temp, path)
    finally:
        with suppress(FileNotFoundError):  # gone once replaced
            os.remove(temp)


def write_json(path, payload) -> None:
    with open_atomic(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


PROFILE_KEYS = ("expected_rows", "expected_features", "expected_class1")


def _check_file_name(name: str, value) -> str:
    if check_str(name, value) in ("", ".", "..") or set("/\\") & set(value):
        raise ConfigError(f"{name} must be a file name: not '', '.' or '..', and without "
                          f"'/' or '\\', got {value!r}")
    return value


def _check_label_mapping(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object mapping labels to integers, got {value!r}")
    for label, mapped in value.items():
        check_int(f"{name}[{label!r}]", mapped, 0)
    return value


# Every schema key load_csv reads, with its check; each check names the key
# quoted. _checked_schema fills in SCHEMA_DEFAULTS, so only "name" and
# "label_column" are required. An empty label_mapping reads labels as numbers.
SCHEMA_DEFAULTS = {"label_mapping": {}, "drop_columns": [], **dict.fromkeys(PROFILE_KEYS)}
SCHEMA_LEAVES = {key: lambda key, value, check=check: check(f"schema key {key!r}", value)
                 for key, check in {
                     "name": _check_file_name,
                     "label_column": check_str,
                     "label_mapping": _check_label_mapping,
                     "drop_columns": partial(check_list, item=check_str),
                     **dict.fromkeys(PROFILE_KEYS, check_optional(partial(check_int, low=0))),
                 }.items()}


def _checked_schema(schema, where: str) -> dict:
    """``schema`` over SCHEMA_DEFAULTS, every key checked against SCHEMA_LEAVES."""
    if isinstance(schema, dict):
        schema = {**SCHEMA_DEFAULTS, **schema}
    check_document(SCHEMA_LEAVES, schema, where)
    return schema


def load_schema(path: str) -> dict:
    """The checked schema in the dataset schema file at ``path``."""
    return _checked_schema(read_json(path, "schema file"), f"schema file {path}")


def load_csv(path: str, schema: dict) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    The schema names the label column, optionally maps label strings to
    {0, 1}, lists columns to drop, and may carry expected row/feature/class
    counts; count mismatches warn (public copies of these datasets vary)
    while parse problems fail with the offending row number. The schema is
    checked as ``load_schema`` checks a file.
    """
    schema = _checked_schema(schema, "schema")
    label_column = schema["label_column"]
    label_mapping = schema["label_mapping"]
    drop = set(schema["drop_columns"])
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DataError(f"{path} has no column {label_column!r} (header: {header})")
        label_idx = header.index(label_column)
        feature_idx = [i for i, h in enumerate(header)
                       if i != label_idx and h not in drop]
        feature_names = tuple(header[i] for i in feature_idx)
        rows: list[list[float]] = []
        labels: list[int] = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{row_no}: expected {len(header)} fields, got {len(row)}"
                )
            raw_label = row[label_idx].strip()
            if not label_mapping:
                what = "is"
                try:
                    label = float(raw_label)
                except ValueError:
                    label = None
            elif raw_label in label_mapping:
                label = label_mapping[raw_label]
                what = f"maps to {label},"
            else:
                raise DataError(f"{path}:{row_no}: label {raw_label!r} not in schema mapping")
            if label not in (0, 1):
                raise DataError(f"{path}:{row_no}: label {raw_label!r} {what} not 0 or 1")
            labels.append(int(label))
            try:
                rows.append([float(row[i]) for i in feature_idx])
            except ValueError as exc:
                raise DataError(f"{path}:{row_no}: {exc}") from None
    dataset = Dataset(schema["name"], np.asarray(rows), np.asarray(labels), feature_names)
    _check_profile(dataset, schema, path)
    return dataset


def _check_profile(dataset: Dataset, schema: dict, path: str) -> None:
    observed = (dataset.n_samples, dataset.n_features, dataset.class_counts()[1])
    what = ("rows", "feature columns", "positive labels")
    for key, count, noun in zip(PROFILE_KEYS, observed, what):
        expected = schema[key]
        if expected is not None and count != expected:
            warnings.warn(f"{path}: {count} {noun}, expected {expected} "
                          f"for {dataset.name!r}", stacklevel=3)


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray               # (k, d), rows orthonormal
    explained_variance_ratio: np.ndarray  # (k,), nonincreasing


def fit_pca(train_features: np.ndarray, k: int) -> PcaModel:
    train_features = np.asarray(train_features, dtype=np.float64)
    n, d = train_features.shape
    if not 1 <= k <= d:
        raise ConfigError(f"component count {k} not in 1..{d}")
    if n <= k:
        raise DataError(f"need more than {k} samples to fit {k} components, got {n}")
    mean = train_features.mean(axis=0)
    centered = train_features - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    components = eigvecs[:, :k].T.copy()
    for row in components:  # sign convention: dominant entry positive
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    trace = float(np.trace(cov))
    if trace <= 0.0:
        raise DataError("covariance has zero trace; all features are constant")
    return PcaModel(mean=mean, components=components,
                    explained_variance_ratio=eigvals[:k] / trace)


def transform_pca(model: PcaModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != model.mean.shape[0]:
        raise DataError(
            f"PCA expects {model.mean.shape[0]} columns, got {features.shape[1]}"
        )
    return (features - model.mean) @ model.components.T


def _to_range(values: np.ndarray, mins: np.ndarray, maxs: np.ndarray,
              low: float, high: float) -> np.ndarray:
    """Affine map of each column from its fitted [min, max] onto [low, high],
    clipped to [low, high]; a column with min == max maps to the midpoint."""
    span = maxs - mins
    width = high - low
    with np.errstate(divide="ignore", invalid="ignore"):
        mapped = low + width * ((values - mins) / span)
    return np.clip(np.where(span > 0.0, mapped, low + 0.5 * width), low, high)


def _fit_scaler(features: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The min-max scaling step fitted on ``features``, and ``features``
    scaled by it onto [0, 1]. Constant columns carry no information under
    this map and are dropped with a warning."""
    features = np.asarray(features, dtype=np.float64)
    mins = features.min(axis=0)
    maxs = features.max(axis=0)
    kept = maxs > mins
    if not np.all(kept):
        warnings.warn(
            f"dropping {int(np.sum(~kept))} constant feature column(s): "
            f"indices {np.nonzero(~kept)[0].tolist()}", stacklevel=3)
    scaler = {"mins": mins[kept], "maxs": maxs[kept], "kept": kept}
    return scaler, _to_range(features[:, kept], scaler["mins"], scaler["maxs"], 0.0, 1.0)


def explained_variance_table(features: np.ndarray) -> np.ndarray:
    """(d, 2) table of per-component and cumulative variance ratios of the
    min-max scaled ``features`` (d non-constant columns)."""
    scaled = _fit_scaler(features)[1]
    ratios = fit_pca(scaled, scaled.shape[1]).explained_variance_ratio
    return np.column_stack([ratios, np.cumsum(ratios)])


# The array sections of pipeline.json, in order. Each array's shape is spelt
# in the raw column count "d", the kept column count "m" and the component
# count "k".
_LAYOUT = {
    "scaler": {"mins": "m", "maxs": "m", "kept": "d"},
    "pca": {"mean": "m", "components": "km", "explained_variance_ratio": "k"},
    "encoder": {"mins": "k", "maxs": "k"},
}

# Every leaf of pipeline.json: dotted path -> check, as cli.LEAVES is for the
# config. Every _LAYOUT array holds finite numbers but scaler.kept, of bools.
_NUMBERS = partial(check_list, item=check_real)
PIPELINE_LEAVES = {
    "format": partial(check_equal, expected=PIPELINE_FORMAT),
    "n_components": PIPELINE_CHECKS["n_components"],
    "angle_range": PIPELINE_CHECKS["angle_range"],
    **{f"{section}.{name}": _NUMBERS for section, arrays in _LAYOUT.items() for name in arrays},
    "scaler.kept": partial(check_list, item=check_bool),
    "pca.components": partial(check_list, item=_NUMBERS),
}


class Pipeline:
    """Scale, project, and encode, in that order and no other.

    fit() fits all three steps on a training matrix and keeps their arrays
    in ``fitted``, one dict per section of ``_LAYOUT``. Transform and
    serialization before fit() raise PipelineStateError.
    """

    def __init__(self, n_components: int,
                 angle_range: str | tuple[float, float] = ANGLE_RANGES["0_pi"]):
        self.n_components = PIPELINE_CHECKS["n_components"]("n_components", n_components)
        self.angle_range = PIPELINE_CHECKS["angle_range"]("angle_range", angle_range)
        self.fitted: dict[str, dict[str, np.ndarray]] | None = None

    def fit(self, train_features: np.ndarray) -> "Pipeline":
        scaler, scaled = _fit_scaler(train_features)
        pca = fit_pca(scaled, self.n_components)
        projected = transform_pca(pca, scaled)
        self.fitted = {
            "scaler": scaler,
            "pca": asdict(pca),
            "encoder": {"mins": projected.min(axis=0), "maxs": projected.max(axis=0)},
        }
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.fitted is None:
            raise PipelineStateError("pipeline used before fitting completed")
        scaler, pca, encoder = (self.fitted[section] for section in _LAYOUT)
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != scaler["kept"].size:
            raise DataError(f"pipeline was fitted on {scaler['kept'].size} feature "
                            f"columns, got {features.shape[1]}")
        scaled = _to_range(features[:, scaler["kept"]], scaler["mins"], scaler["maxs"],
                           0.0, 1.0)
        projected = transform_pca(PcaModel(**pca), scaled)
        return _to_range(projected, encoder["mins"], encoder["maxs"], *self.angle_range)

    def encode(self, raw: SplitDataset) -> SplitDataset:
        """``raw`` with each split's features run through ``transform``, the
        columns named pc1..pck."""
        names = tuple(f"pc{i + 1}" for i in range(self.n_components))
        return SplitDataset(*(Dataset(part.name, self.transform(part.features), part.labels, names)
                              for part in (raw.train, raw.validation, raw.test)),
                            raw.fractions, raw.seed)

    def to_json_dict(self) -> dict:
        if self.fitted is None:
            raise PipelineStateError("cannot serialize an unfitted pipeline")
        return {
            "format": PIPELINE_FORMAT,
            "n_components": self.n_components,
            "angle_range": list(self.angle_range),
            **{section: {name: self.fitted[section][name].tolist() for name in arrays}
               for section, arrays in _LAYOUT.items()},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Pipeline":
        """The fitted pipeline of a ``to_json_dict`` document. Beyond its
        leaves, each array must have its ``_LAYOUT`` shape, each kept scaler
        column min < max (``_fit_scaler`` drops the others), each encoder
        column min <= max (a constant component has min == max), and the
        component rows must be orthonormal."""
        check_document(PIPELINE_LEAVES, payload, "pipeline.json")
        pipe = cls(payload["n_components"], payload["angle_range"])
        kept = payload["scaler"]["kept"]
        sizes = {"d": len(kept), "m": sum(kept), "k": pipe.n_components}
        pipe.fitted = {section: {} for section in _LAYOUT}
        for section, arrays in _LAYOUT.items():
            for name, dims in arrays.items():
                array = np.array(payload[section][name], dtype=object)  # a ragged one is 1-D
                if array.shape != tuple(sizes[d] for d in dims):
                    raise ConfigError(f"pipeline.json: {section}.{name} has shape {array.shape}, "
                                      f"expected {tuple(sizes[d] for d in dims)}")
                pipe.fitted[section][name] = array.astype(bool if name == "kept" else np.float64)
        scaler, pca, encoder = pipe.fitted.values()
        with np.errstate(over="ignore"):  # an overflow fails the check below
            gram = pca["components"] @ pca["components"].T
        if not np.all(scaler["mins"] < scaler["maxs"]):
            raise ConfigError("pipeline.json: a kept scaler column has min >= max")
        if not np.all(encoder["mins"] <= encoder["maxs"]):
            raise ConfigError("pipeline.json: an encoder column has min > max")
        if not np.all(np.abs(gram - np.eye(pipe.n_components)) <= 1e-9):
            raise ConfigError("pipeline.json: the pca.components rows are not orthonormal")
        return pipe


def _largest_remainder(total: int, fractions: tuple[float, ...]) -> list[int]:
    raw = [f * total for f in fractions]
    base = [int(np.floor(r)) for r in raw]
    leftover = total - sum(base)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split(dataset: Dataset, fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
          seed: int = 0) -> SplitDataset:
    """Stratified, seeded train/validation/test partition.

    Split sizes and per-class allocations both use largest-remainder
    rounding, so each split's class balance is within one sample of the
    dataset's. Every split must end up with both classes present.
    """
    seed = PIPELINE_CHECKS["seed"]("split seed", seed)
    fractions = PIPELINE_CHECKS["fractions"]("split fractions", fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {sum(fractions)}")
    labels = dataset.labels
    pos = np.nonzero(labels == 1)[0]
    neg = np.nonzero(labels == 0)[0]
    if pos.size == 0 or neg.size == 0:
        raise DataError("both classes must be present to split")
    totals = _largest_remainder(dataset.n_samples, fractions)
    pos_counts = _largest_remainder(pos.size, fractions)
    neg_counts = [t - p for t, p in zip(totals, pos_counts)]
    if any(p < 1 or n < 1 for p, n in zip(pos_counts, neg_counts)):
        raise DataError(
            f"split sizes {totals} cannot hold both classes "
            f"({pos.size} positive, {neg.size} negative samples)"
        )
    rng = np.random.default_rng(seed)
    pos = pos[rng.permutation(pos.size)]
    neg = neg[rng.permutation(neg.size)]
    parts = []
    p_start = n_start = 0
    for pc, nc in zip(pos_counts, neg_counts):
        indices = np.sort(np.concatenate([pos[p_start:p_start + pc],
                                          neg[n_start:n_start + nc]]))
        parts.append(dataset.subset(indices))
        p_start += pc
        n_start += nc
    return SplitDataset(train=parts[0], validation=parts[1], test=parts[2],
                        fractions=fractions, seed=seed)

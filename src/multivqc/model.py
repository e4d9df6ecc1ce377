"""Chained variational circuit classifier.

A model is a sequence of circuits sharing one hyperparameter shape. Every
circuit but the last measures the Pauli-Z expectation of all its qubits;
those expectations, each in [-1, 1], are rescaled to rotation angles and
fed to the next circuit's angle encoding. The last circuit measures one
qubit per class and its expectations are the class scores, mapped to
probabilities with a softmax. Predicted label is the argmax probability.

Qubit count equals the feature count throughout the chain, so the model's
inputs must already be rotation angles (the preprocessing pipeline ends
with an angle encoding step).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import core
from .core import GateOp, MAX_QUBITS, _compile, run_compiled
from .errors import (ConfigError, check_bool, check_document, check_enum, check_equal,
                     check_int, check_list, check_real)
from .params import ParamStore
from .pipeline import read_json, write_json
from .templates import Ansatz, Encoding, VqcConfig, build_vqc

PROB_FLOOR = 1e-12
# The layer sites bench/tracer.py wraps on this module. The forward calls
# run_compiled instead, so those spans read 0 until the sites move to it.
run_circuit_batch = core.run_circuit_batch
expectations_z_batch = core.expectations_z_batch
MODEL_FORMAT = "multivqc-model/1"
_ARCCOS_CLAMP = 1.0 - 1e-9


class Rescale(str, Enum):
    """How intermediate expectations become the next circuit's angles."""

    PI = "pi"           # angle = pi * e, spans [-pi, pi]
    ARCCOS = "arccos"   # angle = arccos(e), spans [0, pi]
    IDENTITY = "identity"


def rescale_expectations(values: np.ndarray, mode: Rescale) -> np.ndarray:
    if mode == Rescale.PI:
        return np.pi * values
    if mode == Rescale.ARCCOS:
        return np.arccos(np.clip(values, -_ARCCOS_CLAMP, _ARCCOS_CLAMP))
    return np.asarray(values, dtype=np.float64)


def rescale_derivative(values: np.ndarray, mode: Rescale) -> np.ndarray:
    """Elementwise d(angle)/d(expectation) at the given expectations."""
    if mode == Rescale.PI:
        return np.full_like(values, np.pi)
    if mode == Rescale.ARCCOS:
        clipped = np.clip(values, -_ARCCOS_CLAMP, _ARCCOS_CLAMP)
        return -1.0 / np.sqrt(1.0 - clipped * clipped)
    return np.ones_like(values)


def _check_layers(name: str, value) -> int | tuple[int, ...]:
    if isinstance(value, (tuple, list)):
        return tuple(check_int(f"{name} entry", v, 1, MAX_LAYERS) for v in value)
    return check_int(name, value, 1, MAX_LAYERS)


# One circuit layer compiles to about 10 KB of gate tables at 8 qubits, so the
# largest chain, 100 circuits of 100 layers, builds in about 100 MB.
MAX_CIRCUITS = MAX_LAYERS = 100
# One check per MultiVqcConfig field, returning the field's stored value. The
# CLI's config table points its model.* leaves at the same checks.
MODEL_CHECKS = {
    "n_features": partial(check_int, low=2, high=MAX_QUBITS),
    "n_classes": partial(check_int, low=2),
    "n_vqcs": partial(check_int, low=1, high=MAX_CIRCUITS),
    "encoding": partial(check_enum, enum_type=Encoding),
    "ansatz": partial(check_enum, enum_type=Ansatz),
    "n_layers": _check_layers,
    "reuploading": check_bool,
    "rescale": partial(check_enum, enum_type=Rescale),
}


@dataclass(frozen=True)
class MultiVqcConfig:
    """Shape of the whole chain.

    Encoding, ansatz, reuploading, and rescale apply to every circuit in the
    chain; n_layers is either one shared count or a per-circuit tuple.
    """

    n_features: int
    n_classes: int = 2
    n_vqcs: int = 1
    encoding: Encoding = Encoding.RY
    ansatz: Ansatz = Ansatz.BASIC
    n_layers: int | tuple[int, ...] = 1
    reuploading: bool = True
    rescale: Rescale = Rescale.PI

    def __post_init__(self) -> None:
        for field, check in MODEL_CHECKS.items():
            object.__setattr__(self, field, check(field, getattr(self, field)))
        if self.n_classes > self.n_features:
            raise ConfigError(
                f"need one measured qubit per class: n_classes {self.n_classes} "
                f"exceeds qubit count {self.n_features}"
            )
        if isinstance(self.n_layers, tuple) and len(self.n_layers) != self.n_vqcs:
            raise ConfigError(
                f"per-circuit n_layers has {len(self.n_layers)} entries for "
                f"{self.n_vqcs} circuits"
            )

    def layers_for_stage(self, stage: int) -> int:
        if isinstance(self.n_layers, tuple):
            return self.n_layers[stage]
        return self.n_layers

    def stage_configs(self) -> tuple[VqcConfig, ...]:
        """Per-circuit shape: intermediates measure all qubits, the last one
        measures one qubit per class."""
        stages = []
        for k in range(self.n_vqcs):
            last = k == self.n_vqcs - 1
            stages.append(VqcConfig(
                n_qubits=self.n_features,
                encoding=self.encoding,
                ansatz=self.ansatz,
                n_layers=self.layers_for_stage(k),
                reuploading=self.reuploading,
                n_measured=self.n_classes if last else self.n_features,
            ))
        return tuple(stages)


@dataclass(frozen=True)
class ForwardTrace:
    """The expectations of each circuit of the chain. scores is
    stage_expectations[-1]; circuit k > 0 was fed
    rescale(stage_expectations[k-1]).
    """

    stage_expectations: tuple[np.ndarray, ...]
    scores: np.ndarray
    probabilities: np.ndarray


class MultiVqcModel:
    def __init__(self, config: MultiVqcConfig):
        self.config = config
        self.stages = config.stage_configs()
        built = [build_vqc(s) for s in self.stages]
        self.stage_gates: tuple[tuple[GateOp, ...], ...] = tuple(g for g, _ in built)
        self.param_counts: tuple[int, ...] = tuple(c for _, c in built)
        # Each circuit's segment table, run by the forward and the reverse sweep.
        self.stage_circuits = tuple(_compile(s.n_qubits, g)
                                    for s, g in zip(self.stages, self.stage_gates))

    def new_store(self, rng: np.random.Generator | None = None) -> ParamStore:
        if rng is None:
            return ParamStore(self.param_counts)
        return ParamStore.random_init(self.param_counts, rng)

    def iter_stages(self, store: ParamStore, features: np.ndarray):
        """Run the chain one circuit at a time, yielding (inputs, final
        states, expectations) per circuit in chain order.

        The one forward loop shared by ``forward_batch`` and the training
        gradient. The final states are batch-last (2**n, batch) views of the
        core workspace, valid only until the generator advances: a caller
        that keeps them copies them first."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.config.n_features:
            raise ConfigError(
                f"expected features of shape (batch, {self.config.n_features}), "
                f"got {features.shape}"
            )
        if store.counts != self.param_counts:
            raise ConfigError(
                f"parameter store shape {store.counts} does not match model "
                f"{self.param_counts}"
            )
        inputs = features
        for k in range(self.config.n_vqcs):
            state, exp = run_compiled(self.stage_circuits[k], store.slice_for(k), inputs,
                                      self.stages[k].n_measured)
            yield inputs, state, exp
            if k < self.config.n_vqcs - 1:
                inputs = rescale_expectations(exp, self.config.rescale)

    def forward_batch(self, store: ParamStore, features: np.ndarray) -> ForwardTrace:
        expectations = tuple(exp for _, _, exp in self.iter_stages(store, features))
        return ForwardTrace(stage_expectations=expectations, scores=expectations[-1],
                            probabilities=softmax(expectations[-1]))

    def predict_batch(self, store: ParamStore, features: np.ndarray) -> np.ndarray:
        trace = self.forward_batch(store, features)
        return np.argmax(trace.probabilities, axis=1)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large scores."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def nll_from_scores(
    scores: np.ndarray, labels: np.ndarray, label_weights: np.ndarray
) -> np.ndarray:
    """Per-sample weighted negative log likelihood from class scores.

    label_weights maps label -> weight. Probabilities are floored at 1e-12
    before the log; with scores confined to [-1, 1] the floor never binds,
    it only guards degenerate callers.
    """
    probs = softmax(np.atleast_2d(scores))
    labels = np.asarray(labels, dtype=np.int64)
    picked = probs[np.arange(probs.shape[0]), labels]
    weights = np.asarray(label_weights, dtype=np.float64)[labels]
    return -weights * np.log(np.maximum(picked, PROB_FLOOR))


def model_to_json_dict(config: MultiVqcConfig, store: ParamStore) -> dict:
    return {
        "format": MODEL_FORMAT,
        "config": asdict(config),
        "param_counts": list(store.counts),
        "params": [float(v) for v in store.values],
    }


# Every leaf of model.json: dotted path -> check, as cli.LEAVES is for the
# config. model_from_json_dict checks the parameter layout after the leaves.
MODEL_LEAVES = {
    "format": partial(check_equal, expected=MODEL_FORMAT),
    **{f"config.{field}": check for field, check in MODEL_CHECKS.items()},
    "param_counts": partial(check_list, item=partial(check_int, low=0)),
    "params": partial(check_list, item=check_real),
}


def model_from_json_dict(payload: dict) -> tuple[MultiVqcModel, ParamStore]:
    """The model and parameters of a ``model_to_json_dict`` document. Beyond
    its leaves, ``param_counts`` must be the layout the config implies."""
    check_document(MODEL_LEAVES, payload, "model.json")
    model = MultiVqcModel(MultiVqcConfig(**payload["config"]))
    counts = tuple(payload["param_counts"])
    if counts != model.param_counts:
        raise ConfigError(f"model.json: stored parameter layout {counts} does not match "
                          f"the config-derived layout {model.param_counts}")
    return model, ParamStore(counts, np.asarray(payload["params"], dtype=np.float64))


def save_model(path: str, config: MultiVqcConfig, store: ParamStore) -> None:
    write_json(path, model_to_json_dict(config, store))


def load_model(path: str) -> tuple[MultiVqcModel, ParamStore]:
    return model_from_json_dict(read_json(path, "model file"))

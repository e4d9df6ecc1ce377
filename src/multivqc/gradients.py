"""Loss gradients for chained circuits: adjoint for training, parameter
shift as the reference.

Training differentiates each circuit by the adjoint method (Jones & Gacon,
arXiv:2009.02823): the forward pass keeps every circuit's final states, and
one reverse sweep per circuit (``core.adjoint_gradient``) gives the
vector-Jacobian product of its expectations with respect to its own
parameters and, past the first circuit, its input angles. Those products are
composed in reverse with the rescaling derivative and the softmax
cross-entropy cotangent, at the cost of one forward and one reverse pass per
circuit.

The parameter-shift rule (Mitarai et al., arXiv:1803.00745) stays as the
reference: every trainable angle enters through a Pauli rotation, so the
derivative of a Pauli-Z expectation is exactly
[E(theta + pi/2) - E(theta - pi/2)] / 2. ``expectation_gradient`` and the
per-circuit ``stage_*_jacobian`` functions compute it; the tests hold the
adjoint gradient to it, and to central finite differences of ``batch_loss``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    GateOp,
    adjoint_gradient,
    expectations_z_batch,
    run_circuit_batch,
    run_circuit_blocks,
)
from .errors import NumericalError
from .model import MultiVqcModel, nll_from_scores, rescale_derivative, softmax
from .params import ParamStore

SHIFT = np.pi / 2.0


def expectation_gradient(
    n_qubits: int,
    gates: tuple[GateOp, ...] | list[GateOp],
    params: np.ndarray | ParamStore,
    features: np.ndarray | None,
    measured_qubit: int,
) -> np.ndarray:
    """Gradient of one circuit's single-qubit Z expectation w.r.t. each of
    its parameters; two circuit evaluations per parameter."""
    values = np.asarray(getattr(params, "values", params), dtype=np.float64)
    feats = None if features is None else np.asarray(features, dtype=np.float64)[None, :]

    def run(vals: np.ndarray) -> float:
        amps = run_circuit_batch(n_qubits, gates, params=vals, features=feats)
        return float(expectations_z_batch(amps, [measured_qubit], n_qubits)[0, 0])

    grad = np.zeros(values.shape[0], dtype=np.float64)
    for p in range(values.shape[0]):
        plus = values.copy()
        plus[p] += SHIFT
        minus = values.copy()
        minus[p] -= SHIFT
        grad[p] = 0.5 * (run(plus) - run(minus))
    return grad


def stage_parameter_jacobian(
    model: MultiVqcModel, stage: int, inputs: np.ndarray, stage_params: np.ndarray
) -> np.ndarray:
    """(batch, n_measured, n_params) Jacobian of one circuit's expectations
    w.r.t. its own parameters, inputs held fixed.

    All 2*n_params shifted parameter vectors run as blocks of one batched
    evaluation instead of separate circuit calls."""
    n_params = stage_params.shape[0]
    batch = inputs.shape[0]
    cfg = model.stages[stage]
    if n_params == 0:
        return np.zeros((batch, cfg.n_measured, 0), dtype=np.float64)
    blocks = np.repeat(stage_params[None, :], 2 * n_params, axis=0)
    rows = np.arange(n_params)
    blocks[2 * rows, rows] += SHIFT
    blocks[2 * rows + 1, rows] -= SHIFT
    amps = run_circuit_blocks(
        cfg.n_qubits, model.stage_gates[stage],
        features=inputs, param_blocks=blocks,
    )
    exp = expectations_z_batch(amps, range(cfg.n_measured), cfg.n_qubits)
    exp = exp.reshape(2 * n_params, batch, cfg.n_measured)
    jac = 0.5 * (exp[0::2] - exp[1::2])  # (n_params, batch, n_measured)
    return np.ascontiguousarray(np.transpose(jac, (1, 2, 0)))


def stage_input_jacobian(
    model: MultiVqcModel, stage: int, inputs: np.ndarray, stage_params: np.ndarray
) -> np.ndarray:
    """(batch, n_measured, n_features) Jacobian of one circuit's expectations
    w.r.t. its input angles. Each occurrence of a feature is shifted on its
    own and the contributions are summed, since with reuploading a feature
    appears in several gates. All shifted runs share one blocked evaluation."""
    batch = inputs.shape[0]
    cfg = model.stages[stage]
    gates = model.stage_gates[stage]
    occurrences = [
        (gate_index, gate.feature_id)
        for gate_index, gate in enumerate(gates)
        if gate.feature_id is not None
    ]
    jac = np.zeros((batch, cfg.n_measured, model.config.n_features), dtype=np.float64)
    if not occurrences:
        return jac
    deltas = np.zeros((2 * len(occurrences), len(gates)), dtype=np.float64)
    for row, (gate_index, _) in enumerate(occurrences):
        deltas[2 * row, gate_index] = SHIFT
        deltas[2 * row + 1, gate_index] = -SHIFT
    amps = run_circuit_blocks(
        cfg.n_qubits, gates,
        params=stage_params, features=inputs, gate_deltas=deltas,
    )
    exp = expectations_z_batch(amps, range(cfg.n_measured), cfg.n_qubits)
    exp = exp.reshape(2 * len(occurrences), batch, cfg.n_measured)
    diff = 0.5 * (exp[0::2] - exp[1::2])  # (n_occurrences, batch, n_measured)
    for row, (_, feature_id) in enumerate(occurrences):
        jac[:, :, feature_id] += diff[row]
    return jac


def score_cotangent(
    probabilities: np.ndarray, labels: np.ndarray, label_weights: np.ndarray
) -> np.ndarray:
    """d(per-sample weighted NLL)/d(class scores): w[y] * (p - onehot(y)).

    Components of each row sum to zero, reflecting the softmax's invariance
    to a shared shift of all scores."""
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(label_weights, dtype=np.float64)[labels]
    onehot = np.zeros_like(probabilities)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return weights[:, None] * (probabilities - onehot)


def batch_loss(
    model: MultiVqcModel,
    store: ParamStore,
    features: np.ndarray,
    labels: np.ndarray,
    label_weights: np.ndarray,
) -> float:
    """Mean per-sample weighted NLL over a batch."""
    trace = model.forward_batch(store, features)
    return float(nll_from_scores(trace.scores, labels, label_weights).mean())


def batch_loss_gradient(
    model: MultiVqcModel,
    store: ParamStore,
    features: np.ndarray,
    labels: np.ndarray,
    label_weights: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient w.r.t. the full flat parameter vector,
    by one forward and one adjoint sweep per circuit."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    passes = list(model.iter_stages(store, features))
    for k, (_, _, exp) in enumerate(passes):
        if not np.all(np.isfinite(exp)):
            raise NumericalError(f"non-finite expectation values from circuit {k}")
    scores = passes[-1][2]
    loss = float(nll_from_scores(scores, labels, label_weights).mean())

    batch = features.shape[0]
    cotangent = score_cotangent(softmax(scores), labels, label_weights) / batch
    grad = np.zeros(store.total, dtype=np.float64)
    for k in range(model.config.n_vqcs - 1, -1, -1):
        inputs, states, _ = passes.pop()  # each circuit's states go once swept
        start = store.offsets[k]
        grad[start:start + store.counts[k]], input_cot = adjoint_gradient(
            model.stages[k].n_qubits, model.stage_gates[k], store.slice_for(k),
            inputs, states, cotangent, input_gradient=k > 0)
        if k > 0:
            cotangent = input_cot * rescale_derivative(passes[-1][2], model.config.rescale)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite loss gradient")
    return loss, grad

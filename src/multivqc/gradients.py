"""Loss gradients for chained circuits: adjoint for training, parameter
shift as the reference.

Training differentiates each circuit by the adjoint method (Jones & Gacon,
arXiv:2009.02823): the forward pass copies every circuit's final states
out of the core workspace, and one reverse sweep per circuit
(``core.adjoint_gradient``) gives the vector-Jacobian product of its
expectations with respect to its own parameters and, past the first
circuit, its input angles. The sweep runs on
the segment table the model compiled for that circuit when it was built: it
undoes whole segments, one fused 2x2 matrix per qubit and one permutation per
CNOT run, and reads each gate's derivative from its chain's 2x2 environment
at the segment's end. Those products are
composed in reverse with the rescaling derivative and the softmax
cross-entropy cotangent, at the cost of one forward and one reverse pass per
circuit.

The parameter-shift rule (Mitarai et al., arXiv:1803.00745) stays as the
reference: every trainable angle enters through a Pauli rotation, so the
derivative of a Pauli-Z expectation is exactly
[E(theta + pi/2) - E(theta - pi/2)] / 2. ``_shift_jacobian`` shifts each
gate on its own, every shift a block of one ``run_circuit_blocks`` call on
the core runner. The per-circuit ``stage_*_jacobian`` functions call it;
the tests hold the adjoint gradient to them, and to central finite
differences of ``batch_loss``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    GateKind,
    _resolve_angle,
    adjoint_gradient,
    expectations_z_batch,
    rotation,
    run_circuit_batch,
)
from .errors import ConfigError, NumericalError
from .model import MultiVqcModel, nll_from_scores, rescale_derivative, softmax
from .params import ParamStore

SHIFT = np.pi / 2.0


def run_circuit_blocks(n_qubits: int, gates, params=None,
                       features: np.ndarray | None = None,
                       gate_deltas: np.ndarray | None = None) -> np.ndarray:
    """Run one circuit for B samples under R rows of per-gate angle offsets.

    Rows [r*B, (r+1)*B) of the (R*B, 2**n) result add ``gate_deltas[r, i]``
    to gate i's angle (R = 1 without offsets). Each rotation then reads its
    angle from its own column of a per-row table, so all blocks share one
    ``run_circuit_batch`` pass.
    """
    if params is not None:
        params = np.asarray(getattr(params, "values", params), dtype=np.float64)
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ConfigError("features must be a (batch, n_features) array")
    batch = 1 if features is None else features.shape[0]
    if gate_deltas is None:
        gate_deltas = np.zeros((1, len(gates)))
    deltas = np.asarray(gate_deltas, dtype=np.float64)
    if deltas.ndim != 2 or deltas.shape[1] != len(gates):
        raise ConfigError(f"gate_deltas must have shape (blocks, {len(gates)}), "
                          f"got {deltas.shape}")
    rotations = [i for i, gate in enumerate(gates) if gate.kind != GateKind.CNOT]
    angles = np.empty((deltas.shape[0], batch, len(rotations)), dtype=np.float64)
    rebound = list(gates)
    for column, i in enumerate(rotations):
        gate = gates[i]
        angles[:, :, column] = deltas[:, i, None] + _resolve_angle(gate, params, features)
        rebound[i] = rotation(gate.kind, gate.target, feature_id=column)
    return run_circuit_batch(n_qubits, rebound, features=angles.reshape(
        deltas.shape[0] * batch, len(rotations)))


def _shift_jacobian(n_qubits: int, gates, params, inputs: np.ndarray | None,
                    ids, width: int, qubits) -> np.ndarray:
    """(batch, len(qubits), width) shift-rule Jacobian of the Z expectations
    of ``qubits``. Each gate i with ``ids[i]`` set is shifted by +-pi/2 on its
    own, all shifts as blocks of one run, and its half-difference is summed
    into column ``ids[i]``, since one angle may feed several gates."""
    shifted = [i for i, column in enumerate(ids) if column is not None]
    batch = 1 if inputs is None else inputs.shape[0]
    jac = np.zeros((batch, len(qubits), width), dtype=np.float64)
    if not shifted:
        return jac
    rows = np.arange(len(shifted))
    deltas = np.zeros((2 * len(shifted), len(gates)), dtype=np.float64)
    deltas[2 * rows, shifted] = SHIFT
    deltas[2 * rows + 1, shifted] = -SHIFT
    amps = run_circuit_blocks(n_qubits, gates, params=params, features=inputs,
                              gate_deltas=deltas)
    exp = expectations_z_batch(amps, qubits, n_qubits)
    exp = exp.reshape(2 * len(shifted), batch, len(qubits))
    diff = 0.5 * (exp[0::2] - exp[1::2])  # (n_shifted, batch, n_qubits)
    for row, i in enumerate(shifted):
        jac[:, :, ids[i]] += diff[row]
    return jac


def stage_parameter_jacobian(
    model: MultiVqcModel, stage: int, inputs: np.ndarray, stage_params: np.ndarray
) -> np.ndarray:
    """(batch, n_measured, n_params) Jacobian of one circuit's expectations
    w.r.t. its own parameters, inputs held fixed."""
    cfg = model.stages[stage]
    gates = model.stage_gates[stage]
    return _shift_jacobian(cfg.n_qubits, gates, stage_params, inputs,
                           [g.param_id for g in gates], stage_params.shape[0],
                           range(cfg.n_measured))


def stage_input_jacobian(
    model: MultiVqcModel, stage: int, inputs: np.ndarray, stage_params: np.ndarray
) -> np.ndarray:
    """(batch, n_measured, n_features) Jacobian of one circuit's expectations
    w.r.t. its input angles; with reuploading a feature sums over its gates."""
    cfg = model.stages[stage]
    gates = model.stage_gates[stage]
    return _shift_jacobian(cfg.n_qubits, gates, stage_params, inputs,
                           [g.feature_id for g in gates], model.config.n_features,
                           range(cfg.n_measured))


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
    passes = [(inputs, state.copy(), exp)
              for inputs, state, exp in model.iter_stages(store, features)]
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
            model.stage_circuits[k], store.slice_for(k), inputs, states, cotangent,
            input_gradient=k > 0)
        if k > 0:
            cotangent = input_cot * rescale_derivative(passes[-1][2], model.config.rescale)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite loss gradient")
    return loss, grad

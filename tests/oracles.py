"""Independent reference implementations used to cross-check the package.

Everything here except ``expectation_gradient`` and
``shift_rule_loss_gradient`` evaluates circuits by building dense 2^n x 2^n
matrices with Kronecker products and multiplying them out, deliberately
avoiding the package's kernels. Gate lists and configs may come from the
package (they are data); the evaluation path may not.

``expectation_gradient`` and ``shift_rule_loss_gradient`` are the references
for the training gradient: they differentiate by a different method
(parameter shift, 2 runs per parameter and per encoding-gate occurrence) on
the package's kernels, so they check the adjoint sweep and its chain-rule
composition rather than the simulator.
"""

from __future__ import annotations

import numpy as np

from multivqc.gradients import (
    _shift_jacobian,
    score_cotangent,
    stage_input_jacobian,
    stage_parameter_jacobian,
)
from multivqc.model import rescale_derivative

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = {"RX": X, "RY": Y, "RZ": Z}


def rotation_matrix(kind, angle: float) -> np.ndarray:
    """exp(-i * angle * P / 2) for P in {X, Y, Z}, computed from the series
    identity rather than per-axis formulas."""
    pauli = PAULI[getattr(kind, "value", kind)]
    return np.cos(angle / 2.0) * I2 - 1j * np.sin(angle / 2.0) * pauli


def embed_single(n_qubits: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """Qubit 0 is the leftmost Kronecker factor (most significant bit)."""
    out = np.array([[1.0 + 0.0j]])
    for q in range(n_qubits):
        out = np.kron(out, mat if q == qubit else I2)
    return out


def cnot_matrix(n_qubits: int, control: int, target: int) -> np.ndarray:
    """Permutation matrix built by flipping the target bit of every basis
    state whose control bit is set."""
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for source in range(dim):
        control_bit = (source >> (n_qubits - 1 - control)) & 1
        dest = source
        if control_bit:
            dest = source ^ (1 << (n_qubits - 1 - target))
        mat[dest, source] = 1.0
    return mat


def resolve_gate_angle(gate, params, features) -> float:
    if gate.angle is not None:
        return float(gate.angle)
    if gate.param_id is not None:
        return float(params[gate.param_id])
    return float(features[gate.feature_id])


def circuit_unitary(n_qubits: int, gates, params=None, features=None) -> np.ndarray:
    """Ordered product of dense gate matrices; later gates multiply on the
    left."""
    unitary = np.eye(2**n_qubits, dtype=np.complex128)
    for gate in gates:
        if gate.kind == "CNOT":
            mat = cnot_matrix(n_qubits, gate.control, gate.target)
        else:
            angle = resolve_gate_angle(gate, params, features)
            mat = embed_single(n_qubits, gate.target, rotation_matrix(gate.kind, angle))
        unitary = mat @ unitary
    return unitary


def oracle_state(n_qubits: int, gates, params=None, features=None) -> np.ndarray:
    zero = np.zeros(2**n_qubits, dtype=np.complex128)
    zero[0] = 1.0
    return circuit_unitary(n_qubits, gates, params, features) @ zero


def oracle_z_expectation(state: np.ndarray, qubit: int, n_qubits: int) -> float:
    operator = embed_single(n_qubits, qubit, Z)
    return float(np.real(np.conj(state) @ (operator @ state)))


def oracle_rescale(values: np.ndarray, mode: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if mode == "pi":
        return values * np.pi
    if mode == "arccos":
        return np.arccos(np.clip(values, -1.0 + 1e-9, 1.0 - 1e-9))
    if mode == "identity":
        return values.copy()
    raise ValueError(f"unknown rescale mode {mode!r}")


def oracle_chain_scores(model, store, features: np.ndarray) -> np.ndarray:
    """Forward pass through a chain of circuits using only dense matrices."""
    features = np.asarray(features, dtype=np.float64)
    scores = np.zeros((features.shape[0], model.config.n_classes))
    for b in range(features.shape[0]):
        inputs = features[b]
        for k, cfg in enumerate(model.stages):
            state = oracle_state(cfg.n_qubits, model.stage_gates[k],
                                 params=store.slice_for(k), features=inputs)
            exps = np.array([
                oracle_z_expectation(state, q, cfg.n_qubits)
                for q in range(cfg.n_measured)
            ])
            if k < len(model.stages) - 1:
                inputs = oracle_rescale(exps, model.config.rescale.value)
            else:
                scores[b] = exps
    return scores


def oracle_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    expo = np.exp(shifted)
    return expo / expo.sum(axis=-1, keepdims=True)


def fd_gradient(func, values: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Generic central finite difference of a scalar function."""
    values = np.asarray(values, dtype=np.float64)
    grad = np.zeros_like(values)
    for i in range(values.shape[0]):
        up = values.copy()
        up[i] += h
        down = values.copy()
        down[i] -= h
        grad[i] = (func(up) - func(down)) / (2.0 * h)
    return grad


def eigh_pca(features: np.ndarray, n_components: int):
    """PCA via numpy's eigendecomposition: mean, components (rows, descending
    eigenvalue), explained-variance ratios. No sign convention applied."""
    features = np.asarray(features, dtype=np.float64)
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / (features.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    components = eigvecs[:, order].T
    ratios = eigvals / np.sum(eigvals)
    return mean, components[:n_components], ratios[:n_components]


def expectation_gradient(n_qubits: int, gates, params, features, measured_qubit: int):
    """Parameter-shift gradient of one circuit's single-qubit Z expectation
    w.r.t. each of its parameters; two circuit runs per parameter gate."""
    values = np.asarray(getattr(params, "values", params), dtype=np.float64)
    feats = None if features is None else np.asarray(features, dtype=np.float64)[None, :]
    return _shift_jacobian(n_qubits, gates, values, feats, [g.param_id for g in gates],
                           values.shape[0], [measured_qubit])[0, 0]


def shift_rule_loss_gradient(model, store, features, labels, label_weights) -> np.ndarray:
    """Mean batch loss gradient from per-circuit parameter-shift Jacobians,
    composed in reverse with the rescaling derivative and the score
    cotangent."""
    features = np.asarray(features, dtype=np.float64)
    trace = model.forward_batch(store, features)
    stage_inputs = [inputs for inputs, _, _ in model.iter_stages(store, features)]
    cotangent = score_cotangent(trace.probabilities, labels, label_weights) / features.shape[0]
    grad = np.zeros(store.total, dtype=np.float64)
    for k in range(model.config.n_vqcs - 1, -1, -1):
        inputs = stage_inputs[k]
        stage_params = store.slice_for(k)
        jac_p = stage_parameter_jacobian(model, k, inputs, stage_params)
        start = store.offsets[k]
        grad[start:start + store.counts[k]] = np.einsum("bm,bmp->p", cotangent, jac_p)
        if k > 0:
            jac_in = stage_input_jacobian(model, k, inputs, stage_params)
            input_cot = np.einsum("bm,bmn->bn", cotangent, jac_in)
            cotangent = input_cot * rescale_derivative(
                trace.stage_expectations[k - 1], model.config.rescale)
    return grad

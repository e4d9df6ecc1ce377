"""Reference checks that share no simulation code with multivqc.

``chain_expectations`` is a dense simulator: every gate becomes its full
2**n x 2**n matrix, built with Kronecker products, and multiplies a plain
state vector. ``central_difference`` differentiates any scalar loss of a
parameter vector numerically. Both are slow and only run outside the timed
part of a benchmark run.
"""

from __future__ import annotations

import numpy as np


def _rotation(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "RZ":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    raise ValueError(f"unknown rotation {kind}")


def _on_qubit(matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    # Qubit 0 is the most significant bit of the amplitude index.
    return np.kron(np.kron(np.eye(2**qubit), matrix), np.eye(2 ** (n - qubit - 1)))


def _cnot(control: int, target: int, n: int) -> np.ndarray:
    index = np.arange(2**n)
    control_bit = (index >> (n - 1 - control)) & 1
    flipped = index ^ (control_bit << (n - 1 - target))
    matrix = np.zeros((2**n, 2**n), dtype=np.complex128)
    matrix[flipped, index] = 1.0
    return matrix


def circuit_expectations(n: int, gates, params: np.ndarray, row: np.ndarray,
                         n_measured: int) -> np.ndarray:
    """<Z> of qubits 0..n_measured-1 after running ``gates`` on |0...0>."""
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    for gate in gates:
        kind = gate.kind.value
        if kind == "CNOT":
            op = _cnot(gate.control, gate.target, n)
        else:
            if gate.angle is not None:
                angle = gate.angle
            elif gate.param_id is not None:
                angle = params[gate.param_id]
            else:
                angle = row[gate.feature_id]
            op = _on_qubit(_rotation(kind, angle), gate.target, n)
        state = op @ state
    probs = np.abs(state) ** 2
    index = np.arange(2**n)
    return np.array([probs @ (1 - 2 * ((index >> (n - 1 - q)) & 1))
                     for q in range(n_measured)])


def _rescale(values: np.ndarray, mode: str) -> np.ndarray:
    if mode == "pi":
        return np.pi * values
    if mode == "arccos":
        return np.arccos(np.clip(values, -1.0 + 1e-9, 1.0 - 1e-9))
    return values


def chain_expectations(model, store, row: np.ndarray) -> list[np.ndarray]:
    """Per-circuit expectations of a chained model for one input row."""
    outputs = []
    inputs = np.asarray(row, dtype=np.float64)
    for k, cfg in enumerate(model.stages):
        exp = circuit_expectations(cfg.n_qubits, model.stage_gates[k],
                                   store.slice_for(k), inputs, cfg.n_measured)
        outputs.append(exp)
        inputs = _rescale(exp, model.config.rescale.value)
    return outputs


def max_forward_error(model, store, rows: np.ndarray) -> float:
    """Largest |fast - dense| over every circuit's expectations for ``rows``."""
    trace = model.forward_batch(store, rows)
    worst = 0.0
    for b, row in enumerate(rows):
        for k, exp in enumerate(chain_expectations(model, store, row)):
            worst = max(worst, float(np.max(np.abs(trace.stage_expectations[k][b] - exp))))
    return worst


def central_difference(loss, values: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of ``loss(values)``, one coordinate at a time."""
    grad = np.empty_like(values)
    for i in range(values.size):
        up = values.copy()
        up[i] += h
        down = values.copy()
        down[i] -= h
        grad[i] = (loss(up) - loss(down)) / (2.0 * h)
    return grad

"""Exact statevector simulation of few-qubit circuits.

Conventions, fixed package-wide and relied on by every test:

- Qubit 0 is the *most significant* bit of the amplitude index: for an
  n-qubit register the basis state |q0 q1 ... q_{n-1}> lives at index
  q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
- Rotations are R(theta) = exp(-i*theta*P/2) for P in {X, Y, Z}. The
  canonical check is <Z> = cos(theta) after RY(theta) on |0>.

All kernels operate on arrays of shape (batch, 2**n_qubits) so a circuit
can be evaluated for a whole batch of feature vectors in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, ModelDefinitionError

MAX_QUBITS = 8


class GateKind(str, Enum):
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    CNOT = "CNOT"


@dataclass(frozen=True)
class GateOp:
    """One circuit operation.

    Rotation gates carry exactly one angle source: a fixed ``angle``, a
    trainable ``param_id``, or a data-bound ``feature_id``. CNOT carries
    none of them.
    """

    kind: GateKind
    target: int
    control: int | None = None
    angle: float | None = None
    param_id: int | None = None
    feature_id: int | None = None

    def __post_init__(self) -> None:
        sources = [s for s in (self.angle, self.param_id, self.feature_id) if s is not None]
        if self.kind == GateKind.CNOT:
            if self.control is None:
                raise ConfigError("CNOT requires a control qubit")
            if self.control == self.target:
                raise ConfigError("CNOT control and target must differ")
            if sources:
                raise ConfigError("CNOT carries no angle source")
        else:
            if self.control is not None:
                raise ConfigError(f"{self.kind.value} takes no control qubit")
            if len(sources) != 1:
                raise ConfigError(
                    f"{self.kind.value} needs exactly one of angle/param_id/feature_id"
                )


def rotation(kind: GateKind, target: int, *, angle: float | None = None,
             param_id: int | None = None, feature_id: int | None = None) -> GateOp:
    return GateOp(kind=kind, target=target, angle=angle,
                  param_id=param_id, feature_id=feature_id)


def cnot(control: int, target: int) -> GateOp:
    return GateOp(kind=GateKind.CNOT, target=target, control=control)


def _check_qubit(qubit: int, n_qubits: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {n_qubits}-qubit state")


def _axis_index(n_qubits: int, qubit: int, bit: int) -> tuple:
    # Index tuple selecting one value of a qubit axis in a (batch, 2, ..., 2) view.
    idx: list = [slice(None)] * (n_qubits + 1)
    idx[1 + qubit] = bit
    return tuple(idx)


def apply_rotation_batch(amps: np.ndarray, kind: GateKind, target: int,
                         angles, n_qubits: int) -> np.ndarray:
    """Apply RX/RY/RZ to a (batch, 2**n) array; ``angles`` is a scalar or (batch,)."""
    batch = amps.shape[0]
    psi = amps.reshape(batch, *([2] * n_qubits))
    ang = np.asarray(angles, dtype=np.float64)
    if ang.ndim == 1:
        ang = ang.reshape((batch,) + (1,) * (n_qubits - 1))
    half = ang / 2.0
    i0 = _axis_index(n_qubits, target, 0)
    i1 = _axis_index(n_qubits, target, 1)
    a0 = psi[i0]
    a1 = psi[i1]
    out = np.empty_like(psi)
    if kind == GateKind.RZ:
        phase = np.exp(-1j * half)
        out[i0] = phase * a0
        out[i1] = np.conj(phase) * a1
        return out.reshape(batch, -1)
    c = np.cos(half)
    s = np.sin(half)
    if kind == GateKind.RX:
        out[i0] = c * a0 - 1j * s * a1
        out[i1] = -1j * s * a0 + c * a1
    elif kind == GateKind.RY:
        out[i0] = c * a0 - s * a1
        out[i1] = s * a0 + c * a1
    else:
        raise ConfigError(f"unknown rotation kind {kind}")
    return out.reshape(batch, -1)


def apply_cnot_batch(amps: np.ndarray, control: int, target: int, n_qubits: int) -> np.ndarray:
    """Apply CNOT to a (batch, 2**n) array: flip target where control bit is 1."""
    batch = amps.shape[0]
    psi = amps.reshape(batch, *([2] * n_qubits))
    idx10: list = [slice(None)] * (n_qubits + 1)
    idx10[1 + control] = 1
    idx11 = list(idx10)
    idx10[1 + target] = 0
    idx11[1 + target] = 1
    out = psi.copy()
    out[tuple(idx10)] = psi[tuple(idx11)]
    out[tuple(idx11)] = psi[tuple(idx10)]
    return out.reshape(batch, -1)


def _resolve_angle(gate: GateOp, params: np.ndarray | None, features: np.ndarray | None):
    if gate.angle is not None:
        return gate.angle
    if gate.param_id is not None:
        if params is None or not 0 <= gate.param_id < params.shape[0]:
            raise ModelDefinitionError(
                f"unresolvable param_id {gate.param_id} "
                f"(have {0 if params is None else params.shape[0]} parameters)"
            )
        return params[gate.param_id]
    if features is None or not 0 <= gate.feature_id < features.shape[1]:
        raise ModelDefinitionError(
            f"unresolvable feature_id {gate.feature_id} "
            f"(have {0 if features is None else features.shape[1]} features)"
        )
    return features[:, gate.feature_id]


def expectations_z_batch(amps: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Per-qubit <Z> for a (batch, 2**n) array; returns (batch, len(qubits))."""
    batch = amps.shape[0]
    probs = (amps.real**2 + amps.imag**2).reshape(batch, *([2] * n_qubits))
    out = np.empty((batch, len(qubits)), dtype=np.float64)
    for j, q in enumerate(qubits):
        _check_qubit(q, n_qubits)
        axes = tuple(a for a in range(1, n_qubits + 1) if a != 1 + q)
        marginal = probs.sum(axis=axes) if axes else probs
        out[:, j] = marginal[:, 0] - marginal[:, 1]
    return out


def run_circuit_batch(n_qubits: int, gates, params=None,
                      features: np.ndarray | None = None) -> np.ndarray:
    """Run a gate list on |0...0> for a batch of feature rows.

    ``params`` is this circuit's flat parameter vector (anything array-like,
    including a ParamStore via its ``values``). ``features`` has shape
    (batch, n_features); with no feature-bound gates it may be None, in which
    case the batch size is 1.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    if params is not None:
        params = np.asarray(getattr(params, "values", params), dtype=np.float64)
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ConfigError("features must be a (batch, n_features) array")
        batch = features.shape[0]
    else:
        batch = 1
    amps = np.zeros((batch, 2**n_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    for gate in gates:
        _check_qubit(gate.target, n_qubits)
        if gate.kind == GateKind.CNOT:
            _check_qubit(gate.control, n_qubits)
            amps = apply_cnot_batch(amps, gate.control, gate.target, n_qubits)
            continue
        amps = apply_rotation_batch(amps, gate.kind, gate.target,
                                    _resolve_angle(gate, params, features), n_qubits)
    return amps


def _z_signs(n_qubits: int, n_measured: int) -> np.ndarray:
    # (n_measured, 2**n) table: entry [m, i] is +1 if qubit m of basis state i is 0, else -1.
    bits = np.arange(2**n_qubits) >> (n_qubits - 1 - np.arange(n_measured)[:, None])
    return 1.0 - 2.0 * (bits & 1)


def _imag_pauli_overlap(stacked: np.ndarray, kind: GateKind, target: int) -> np.ndarray:
    """Per-row Im<lam|P_target|phi> for a (2B, 2**n) stack of phi over lam."""
    view = stacked.reshape(2, stacked.shape[0] // 2, 2**target, 2, -1)
    phi0, phi1 = view[0, :, :, 0], view[0, :, :, 1]
    lam0, lam1 = view[1, :, :, 0].conj(), view[1, :, :, 1].conj()
    if kind == GateKind.RZ:
        overlap = (lam0 * phi0 - lam1 * phi1).imag
    elif kind == GateKind.RX:
        overlap = (lam0 * phi1 + lam1 * phi0).imag
    else:  # Y = [[0, -i], [i, 0]]
        overlap = (lam1 * phi0 - lam0 * phi1).real
    return overlap.sum(axis=(1, 2))


def adjoint_gradient(n_qubits: int, gates, params, features: np.ndarray,
                     final: np.ndarray, cotangent: np.ndarray,
                     input_gradient: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Vector-Jacobian product of one circuit's Z expectations by one reverse sweep.

    ``final`` is the (batch, 2**n) output of ``run_circuit_batch`` for these
    ``params`` and ``features``; ``cotangent`` (batch, n_measured) weights
    the <Z> of qubits 0..n_measured-1. Returns the gradient of
    sum_bm cotangent[b, m] * <Z_m>_b w.r.t. each parameter, summed over the
    batch, and, if ``input_gradient``, w.r.t. each input angle per row as a
    (batch, n_features) array; a re-uploaded feature sums over its gates.

    Adjoint method (Jones & Gacon, arXiv:2009.02823): phi starts at the
    final state and lam at O phi with O = sum_m c_bm Z_m. Walking the gates
    backwards, a rotation exp(-i theta P / 2) contributes
    d<O>/d theta = Im<lam|P|phi>, then the gate is un-applied on both.
    Without an input gradient the sweep stops at the earliest trainable gate.
    """
    params = np.asarray(params, dtype=np.float64)
    signs = _z_signs(n_qubits, cotangent.shape[1])
    stacked = np.concatenate([final, (cotangent @ signs) * final])
    param_grad = np.zeros(params.shape[0], dtype=np.float64)
    input_grad = np.zeros(features.shape, dtype=np.float64) if input_gradient else None
    if input_gradient:
        stop = 0
    else:
        stop = next((i for i, g in enumerate(gates) if g.param_id is not None), len(gates))
    for i in range(len(gates) - 1, stop - 1, -1):
        gate = gates[i]
        if gate.kind == GateKind.CNOT:
            stacked = apply_cnot_batch(stacked, gate.control, gate.target, n_qubits)
            continue
        if gate.param_id is not None:
            param_grad[gate.param_id] += _imag_pauli_overlap(stacked, gate.kind, gate.target).sum()
        elif gate.feature_id is not None and input_grad is not None:
            input_grad[:, gate.feature_id] += _imag_pauli_overlap(stacked, gate.kind, gate.target)
        if i == stop:
            break
        angle = _resolve_angle(gate, params, features)
        if gate.feature_id is not None:
            angle = np.concatenate([angle, angle])
        stacked = apply_rotation_batch(stacked, gate.kind, gate.target, -angle, n_qubits)
    return param_grad, input_grad


"""Exact statevector simulation of few-qubit circuits.

Conventions, fixed package-wide and relied on by every test:

- Qubit 0 is the *most significant* bit of the amplitude index: for an
  n-qubit register the basis state |q0 q1 ... q_{n-1}> lives at index
  q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
- Rotations are R(theta) = exp(-i*theta*P/2) for P in {X, Y, Z}. The
  canonical check is <Z> = cos(theta) after RY(theta) on |0>.

States are (batch, 2**n_qubits) arrays, so a circuit is evaluated for a
whole batch of feature vectors in one pass.

``run_circuit_batch`` compiles each distinct gate list once (``_compile``)
into segments: the rotations between two CNOT runs, recorded as one chain
per qubit, and each CNOT run as one basis permutation. A call gathers every
angle at once, multiplies each chain into one 2x2 matrix (per row only where
a feature-bound gate is in it) and applies one matrix per qubit and one
permutation per run. The first segment acts on |0...0>, so it builds the
state as a product of its matrices' first columns. The per-gate kernels
``apply_rotation_batch`` and ``apply_cnot_batch`` serve the adjoint reverse
sweep, which un-applies the gates one at a time.

Kernels on large arrays use ``np.multiply``/``np.add`` with ``out=`` or
in-place operators rather than expressions such as ``a * b + c * d``: an
operator whose operand is a large temporary makes numpy probe the call
stack before reusing it, which costs more than the arithmetic here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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


def _check_ids(ids, have: int, what: str) -> None:
    bad = [i for i in ids if not 0 <= i < have]
    if bad:
        unit = "parameters" if what == "param_id" else "features"
        raise ModelDefinitionError(f"unresolvable {what} {bad[0]} (have {have} {unit})")


def _resolve_angle(gate: GateOp, params: np.ndarray | None, features: np.ndarray | None):
    if gate.angle is not None:
        return gate.angle
    if gate.param_id is not None:
        _check_ids((gate.param_id,), 0 if params is None else params.shape[0], "param_id")
        return params[gate.param_id]
    _check_ids((gate.feature_id,), 0 if features is None else features.shape[1], "feature_id")
    return features[:, gate.feature_id]


def _z_signs(n_qubits: int, qubits) -> np.ndarray:
    # (len(qubits), 2**n) table: entry [m, i] is +1 if qubit qubits[m] of basis
    # state i is 0, else -1.
    qubits = list(qubits)
    for q in qubits:
        _check_qubit(q, n_qubits)
    shifts = n_qubits - 1 - np.array(qubits, dtype=np.int64).reshape(-1, 1)
    return 1.0 - 2.0 * ((np.arange(2**n_qubits) >> shifts) & 1)


def expectations_z_batch(amps: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Per-qubit <Z> for a (batch, 2**n) array; returns (batch, len(qubits))."""
    probs = np.square(amps.real)
    probs += np.square(amps.imag)
    return probs @ _z_signs(n_qubits, qubits).T


# -iP for each rotation axis, row-major [00, 01, 10, 11]:
# R(theta) = cos(theta/2) I + sin(theta/2) (-iP).
_MINUS_I_PAULI = {
    GateKind.RX: (0, -1j, -1j, 0),
    GateKind.RY: (0, -1, 1, 0),
    GateKind.RZ: (-1j, 0, 0, 1j),
}
_IDENTITY = np.array([1, 0, 0, 1], dtype=np.complex128).reshape(4, 1, 1)
_ZERO_KET = np.array([[1], [0]], dtype=np.complex128)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2x2 matrices stored row-major along axis 0 of (4, ...) arrays."""
    out = np.multiply(a[[0, 0, 2, 2]], b[[0, 1, 0, 1]])
    out += np.multiply(a[[1, 1, 3, 3]], b[[2, 3, 2, 3]])
    return out


def _apply_fused(amps: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """Apply the 2x2 matrix ``u`` (4, rows or 1) to ``qubit`` of a (2**n, batch) state."""
    view = amps.reshape(2**qubit, 2, -1, amps.shape[1])
    out = np.empty_like(view)
    for bit in (0, 1):
        np.multiply(u[2 * bit], view[:, 0], out=out[:, bit])
        out[:, bit] += np.multiply(u[2 * bit + 1], view[:, 1])
    return out.reshape(amps.shape)


@dataclass(frozen=True)
class _Compiled:
    """A gate list as segments; see ``_compile``.

    Rotations bound to a fixed angle or a parameter are row-independent and
    indexed by their position in ``angles``; feature-bound rotations by
    their position in ``feature_ids``. A qubit's chain in one segment is
    U = R_m F_m ... R_1 F_1 R_0, with F_j its feature-bound gates and R_j
    the runs of row-independent gates between them.
    """

    angles: np.ndarray         # (G + 1,) fixed angles; entry G (angle 0) pads runs
    param_slots: np.ndarray    # entries of ``angles`` taken from the parameters
    param_ids: np.ndarray
    pauli: np.ndarray          # (4, G + 1, 1) -iP of each row-independent gate
    feature_ids: np.ndarray    # (F,) source column of each feature-bound gate
    feature_pauli: np.ndarray  # (4, F, 1)
    runs: np.ndarray           # (longest run, runs) gate positions in application order
    # One entry per chain shape (has R_0, m): (R_0 if any, then R_1..R_m;
    # F_1..F_m), each row an index array over the chains of that shape.
    groups: tuple
    first: tuple               # per qubit: (group, chain) in the first segment, or None
    steps: tuple               # (permutation, ((qubit, group, chain), ...)) per CNOT run


def _cnot_permutation(n_qubits: int, control: int, target: int) -> np.ndarray:
    index = np.arange(2**n_qubits)
    flip = (index >> (n_qubits - 1 - control)) & 1
    return index ^ (flip << (n_qubits - 1 - target))


@lru_cache(maxsize=128)
def _compile(n_qubits: int, gates: tuple[GateOp, ...]) -> _Compiled:
    """Segment table of one gate list; checks ``n_qubits`` and every qubit."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    segments: list[dict] = [{}]
    perms: list[np.ndarray] = []
    ring = None
    for gate in gates:
        _check_qubit(gate.target, n_qubits)
        if gate.kind == GateKind.CNOT:
            _check_qubit(gate.control, n_qubits)
            step = _cnot_permutation(n_qubits, gate.control, gate.target)
            ring = step if ring is None else ring[step]
            continue
        if ring is not None:
            perms.append(ring)
            segments.append({})
            ring = None
        segments[-1].setdefault(gate.target, []).append(gate)
    if ring is not None:
        perms.append(ring)
        segments.append({})

    fixed: list[GateOp] = []
    bound: list[GateOp] = []
    runs: list[list[int]] = []
    shapes: dict = {}

    def add_run(run: list[GateOp]) -> int:
        runs.append(list(range(len(fixed), len(fixed) + len(run))))
        fixed.extend(run)
        return len(runs) - 1

    def add_chain(chain: list[GateOp]) -> tuple[int, int]:
        split, feature_ids, run = [], [], []
        for gate in chain:
            if gate.feature_id is None:
                run.append(gate)
                continue
            split.append(run)
            run = []
            feature_ids.append(len(bound))
            bound.append(gate)
        split.append(run)
        lead = bool(split[0]) or not feature_ids
        run_ids = [add_run(r) for r in (split if lead else split[1:])]
        key = (lead, len(feature_ids))
        members = shapes.setdefault(key, [])
        members.append((run_ids, feature_ids))
        return list(shapes).index(key), len(members) - 1

    placed = [[(q, add_chain(chain)) for q, chain in sorted(segment.items())]
              for segment in segments]
    first = dict(placed[0])
    longest = max([1] + [len(run) for run in runs])
    table = np.full((longest, len(runs)), len(fixed), dtype=np.int64)
    for column, run in enumerate(runs):
        table[:len(run), column] = run

    def pauli(ops: list[GateOp], pad: int) -> np.ndarray:
        rows = [_MINUS_I_PAULI[g.kind] for g in ops] + [(0, 0, 0, 0)] * pad
        return np.array(rows, dtype=np.complex128).reshape(-1, 4).T[:, :, None]

    def rows(members: list, column: int) -> np.ndarray:
        return np.array([m[column] for m in members], dtype=np.int64).reshape(len(members), -1).T

    return _Compiled(
        angles=np.array([0.0 if g.angle is None else g.angle for g in fixed] + [0.0]),
        param_slots=np.array([i for i, g in enumerate(fixed) if g.param_id is not None],
                             dtype=np.int64),
        param_ids=np.array([g.param_id for g in fixed if g.param_id is not None],
                           dtype=np.int64),
        pauli=pauli(fixed, 1),
        feature_ids=np.array([g.feature_id for g in bound], dtype=np.int64),
        feature_pauli=pauli(bound, 0),
        runs=table,
        groups=tuple((lead, rows(members, 0), rows(members, 1))
                     for (lead, _), members in shapes.items()),
        first=tuple(first.get(q) for q in range(n_qubits)),
        steps=tuple((perm, tuple((q, *chain) for q, chain in chains))
                    for perm, chains in zip(perms, placed[1:])),
    )


def run_circuit_batch(n_qubits: int, gates, params=None,
                      features: np.ndarray | None = None) -> np.ndarray:
    """Run a gate list on |0...0> for a batch of feature rows.

    ``params`` is this circuit's flat parameter vector (anything array-like,
    including a ParamStore via its ``values``). ``features`` has shape
    (batch, n_features); with no feature-bound gates it may be None, in which
    case the batch size is 1.
    """
    circuit = _compile(n_qubits, tuple(gates))
    if params is not None:
        params = np.asarray(getattr(params, "values", params), dtype=np.float64)
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ConfigError("features must be a (batch, n_features) array")
        batch = features.shape[0]
    else:
        batch = 1
    _check_ids(circuit.param_ids.tolist(), 0 if params is None else params.shape[0],
               "param_id")
    _check_ids(circuit.feature_ids.tolist(), 0 if features is None else features.shape[1],
               "feature_id")

    half = circuit.angles.copy()
    if circuit.param_ids.size:
        half[circuit.param_slots] = params[circuit.param_ids]
    half = 0.5 * half[:, None]
    mats = _IDENTITY * np.cos(half) + circuit.pauli * np.sin(half)  # (4, G + 1, 1)
    runs = mats[:, circuit.runs[0]]
    for later in circuit.runs[1:]:
        runs = _product(mats[:, later], runs)
    if circuit.feature_ids.size:
        half_f = 0.5 * features[:, circuit.feature_ids].T  # (F, batch)
        cos_f, sin_f = np.cos(half_f), np.sin(half_f)
    fused = []
    for lead, run_rows, feature_rows in circuit.groups:
        u = runs[:, run_rows[0]] if lead else None
        for j, bound in enumerate(feature_rows):
            # R_j F_j = cos R_j + sin R_j (-iP): one per-row product per feature gate.
            r = runs[:, run_rows[j + lead]]
            rf = np.multiply(cos_f[bound], r)
            rf += np.multiply(sin_f[bound], _product(r, circuit.feature_pauli[:, bound]))
            u = rf if u is None else _product(rf, u)
        fused.append(u)  # (4, chains, rows or 1)

    amps = np.ones((1, batch), dtype=np.complex128)
    for chain in circuit.first:
        column = _ZERO_KET if chain is None else fused[chain[0]][[0, 2], chain[1]]
        amps = np.multiply(amps[:, None], column).reshape(-1, batch)
    for perm, chains in circuit.steps:
        amps = amps[perm]
        for qubit, group, chain in chains:
            amps = _apply_fused(amps, fused[group][:, chain], qubit)
    return np.ascontiguousarray(amps.T)


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
    signs = _z_signs(n_qubits, range(cotangent.shape[1]))
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


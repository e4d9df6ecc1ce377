"""Exact statevector simulation of few-qubit circuits.

Conventions, fixed package-wide and relied on by every test:

- Qubit 0 is the *most significant* bit of the amplitude index: for an
  n-qubit register the basis state |q0 q1 ... q_{n-1}> lives at index
  q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
- Rotations are R(theta) = exp(-i*theta*P/2) for P in {X, Y, Z}. The
  canonical check is <Z> = cos(theta) after RY(theta) on |0>.

States are (batch, 2**n_qubits) arrays, so a circuit is evaluated for a
whole batch of feature vectors in one pass.

``run_circuit_batch`` compiles each distinct gate list once (``_compile``),
checks its source ids and runs the table with ``run_compiled``. A table holds
segments: the rotations between two CNOT runs, recorded as one chain
per qubit, and each CNOT run as one basis permutation. A call builds every
row-independent gate's 2x2 matrix at once, in a (position in run x run) cell
table, multiplies each chain into one 2x2 matrix (per row only where
a feature-bound gate is in it) and applies one matrix per qubit and one
permutation per run. The first segment acts on |0...0>, so it builds the
state as a product of its matrices' first columns. ``adjoint_gradient``
walks the same table backwards: per segment it reads one 2x2 environment per
chain, then undoes one fused matrix per qubit and scatters back through one
permutation per run.
``apply_rotation_batch`` and ``apply_cnot_batch`` apply a single gate with
the same 2x2 kernel and CNOT permutation.

Both directions run on batch-last (2**n, batch) states held in one
grow-only, per-process workspace (``_WORKSPACE``): two state buffers that
each step reads from one and writes into the other, a half-size temporary,
and room for the per-row fused matrices. The <Z> readout and the sweep's
O-weights use the buffers a run leaves free. No kernel allocates a
state-sized array, so a repeated call of one shape touches no new memory.
``run_compiled`` returns its final state as a view of the workspace, valid
only until the next call into this module's kernels; ``run_circuit_batch``
returns a copy, and ``adjoint_gradient`` fresh arrays. The workspace is not
shared between threads.

Kernels on large arrays use ``np.multiply``/``np.add`` with ``out=`` or
in-place operators rather than expressions such as ``a * b + c * d``: an
operator whose operand is a large temporary makes numpy probe the call
stack before reusing it, which costs more than the arithmetic here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2x2 matrices stored row-major along axis 0 of (4, ...) arrays."""
    a = a.reshape(2, 2, 1, *a.shape[1:])  # [i, j, 1]: a_ij
    b = b.reshape(1, 2, 2, *b.shape[1:])  # [1, j, k]: b_jk
    out = np.multiply(a[:, 0], b[:, 0])
    out += np.multiply(a[:, 1], b[:, 1])
    return out.reshape(4, *out.shape[2:])


def _apply_fused(src: np.ndarray, u: np.ndarray, qubit: int, dst: np.ndarray,
                 tmp: np.ndarray) -> None:
    """Write the 2x2 matrix ``u`` (4, rows or 1) applied to ``qubit`` of the
    (2**n, batch) state ``src`` into ``dst``; ``tmp`` holds half a state."""
    view = src.reshape(2**qubit, 2, -1, src.shape[1])
    out = dst.reshape(view.shape)
    part = tmp.reshape(view[:, 0].shape)
    for bit in (0, 1):
        np.multiply(u[2 * bit], view[:, 0], out=out[:, bit])
        np.multiply(u[2 * bit + 1], view[:, 1], out=part)
        out[:, bit] += part


class _Workspace:
    """The grow-only complex128 scratch every kernel call writes into."""

    def __init__(self) -> None:
        self.buffer = np.empty(0, dtype=np.complex128)

    def split(self, *sizes: int) -> list[np.ndarray]:
        """Consecutive flat views of ``buffer`` with the given sizes; the
        buffer is replaced, by a larger one, only when they do not fit."""
        ends = list(accumulate(sizes))
        if self.buffer.size < ends[-1]:
            self.buffer = np.empty(ends[-1], dtype=np.complex128)
        return [self.buffer[end - size:end] for size, end in zip(sizes, ends)]


_WORKSPACE = _Workspace()


@dataclass(frozen=True)
class _Compiled:
    """A gate list as segments; see ``_compile``.

    A qubit's chain in one segment is U = R_m F_m ... R_1 F_1 R_0, with F_j
    its feature-bound gates, indexed by their position in ``feature_ids``,
    and R_j the runs of row-independent gates between them. Cell (i, r) of
    the run table holds gate i of run r; L is the longest run, R the number
    of runs, and padding cells hold the identity (angle 0, -iP = 0).
    """

    n_qubits: int
    angles: np.ndarray         # (L, R, 1) fixed angle per cell; 0 at parameter and padding cells
    pauli: np.ndarray          # (4, L, R, 1) -iP per cell; 0 at padding cells
    feature_ids: np.ndarray    # (F,) source column of each feature-bound gate
    feature_pauli: np.ndarray  # (4, F, 1)
    # One entry per chain shape (has R_0, m): (R_0 if any, then R_1..R_m;
    # F_1..F_m), each row an index array over the chains of that shape; then
    # the last segment holding a chain of that shape.
    groups: tuple
    perms: tuple               # permutation of each CNOT run; segment k + 1 follows run k
    segments: tuple            # ((qubit, group, chain), ...) per segment, the first holding
                               # a chain, maybe empty, for every qubit in qubit order
    # Read by the reverse sweep only.
    signs: np.ndarray          # (2**n, n) Z eigenvalue of each qubit in each basis state
    run_pauli_t: np.ndarray    # (4, L, R) transposed -iP of each cell
    feature_pauli_t: np.ndarray  # (4, F)
    param_cells: np.ndarray    # flat (L, R) cells holding a parameter gate, and
    cell_params: np.ndarray    # the param_id of each
    feature_map: np.ndarray    # (F, max feature_id + 1) one-hot source column of each


def _cnot_permutation(n_qubits: int, control: int, target: int) -> np.ndarray:
    index = np.arange(2**n_qubits)
    flip = (index >> (n_qubits - 1 - control)) & 1
    return index ^ (flip << (n_qubits - 1 - target))


def apply_rotation_batch(amps: np.ndarray, kind: GateKind, target: int,
                         angles, n_qubits: int) -> np.ndarray:
    """Apply RX/RY/RZ to a (batch, 2**n) array; ``angles`` is a scalar or (batch,)."""
    if kind not in _MINUS_I_PAULI:
        raise ConfigError(f"unknown rotation kind {kind}")
    _check_qubit(target, n_qubits)
    half = 0.5 * np.asarray(angles, dtype=np.float64).reshape(-1)
    pauli = np.array(_MINUS_I_PAULI[kind], dtype=np.complex128)[:, None]
    u = _IDENTITY[:, 0] * np.cos(half) + pauli * np.sin(half)  # (4, rows or 1)
    src = np.array(amps.reshape(amps.shape[0], 2**n_qubits).T, dtype=np.complex128)
    dst = np.empty_like(src)
    _apply_fused(src, u, target, dst, np.empty(src.size // 2, dtype=np.complex128))
    return np.ascontiguousarray(dst.T)


def apply_cnot_batch(amps: np.ndarray, control: int, target: int, n_qubits: int) -> np.ndarray:
    """Apply CNOT to a (batch, 2**n) array: flip target where control bit is 1."""
    _check_qubit(control, n_qubits)
    _check_qubit(target, n_qubits)
    perm = _cnot_permutation(n_qubits, control, target)
    return amps.reshape(amps.shape[0], 2**n_qubits)[:, perm]


@lru_cache(maxsize=128)
def _compile(n_qubits: int, gates: tuple[GateOp, ...]) -> _Compiled:
    """Segment table of one gate list; checks ``n_qubits`` and every qubit."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    segments: list[dict] = [{q: [] for q in range(n_qubits)}]
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

    bound: list[GateOp] = []
    runs: list[list[GateOp]] = []
    shapes: dict = {}

    def add_chain(chain: list[GateOp], segment: int) -> tuple[int, int]:
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
        kept = split if lead else split[1:]
        key = (lead, len(feature_ids))
        members = shapes.setdefault(key, [])
        members.append((list(range(len(runs), len(runs) + len(kept))), feature_ids, segment))
        runs.extend(kept)
        return list(shapes).index(key), len(members) - 1

    placed = [tuple((q, *add_chain(chain, s)) for q, chain in sorted(segment.items()))
              for s, segment in enumerate(segments)]
    shape = (max([1] + [len(run) for run in runs]), len(runs), 1)
    # The (L, R) cells position-major; None pads a run shorter than L.
    cells = [run[i] if i < len(run) else None for i in range(shape[0]) for run in runs]
    slots = [(i, g.param_id) for i, g in enumerate(cells)
             if g is not None and g.param_id is not None]
    sources = [g.feature_id for g in bound]

    def pauli(ops: list) -> np.ndarray:
        rows = [(0, 0, 0, 0) if g is None else _MINUS_I_PAULI[g.kind] for g in ops]
        return np.array(rows, dtype=np.complex128).reshape(-1, 4).T[..., None]

    def rows(members: list, column: int) -> np.ndarray:
        return np.array([m[column] for m in members], dtype=np.int64).reshape(len(members), -1).T

    run_pauli, feature_pauli = pauli(cells).reshape(4, *shape), pauli(bound)
    feature_ids = np.array(sources, dtype=np.int64)
    feature_map = np.zeros((len(sources), max(sources, default=-1) + 1))
    known = feature_ids >= 0  # a negative id has no column; no run gets past its check
    feature_map[known, feature_ids[known]] = 1.0
    return _Compiled(
        n_qubits=n_qubits,
        angles=np.array([0.0 if g is None or g.angle is None else g.angle
                         for g in cells]).reshape(shape),
        pauli=run_pauli,
        feature_ids=feature_ids,
        feature_pauli=feature_pauli,
        groups=tuple((lead, rows(members, 0), rows(members, 1), max(m[2] for m in members))
                     for (lead, _), members in shapes.items()),
        perms=tuple(perms),
        segments=tuple(placed),
        signs=_z_signs(n_qubits, range(n_qubits)).T,
        run_pauli_t=run_pauli[[0, 2, 1, 3], ..., 0],
        feature_pauli_t=feature_pauli[[0, 2, 1, 3], :, 0],
        param_cells=np.array([i for i, _ in slots], dtype=np.int64),
        cell_params=np.array([p for _, p in slots], dtype=np.int64),
        feature_map=feature_map,
    )


def _gate_matrices(circuit: _Compiled, params, features):
    """The (4, L, R, 1) matrix of each run cell (the identity in a padding
    cell), and the (F, batch) cos and sin of each feature-bound gate's half
    angle (None without any)."""
    half = circuit.angles.copy()
    if circuit.cell_params.size:
        half.reshape(-1)[circuit.param_cells] = params[circuit.cell_params]
    half = 0.5 * half
    mats = _IDENTITY[:, None] * np.cos(half) + circuit.pauli * np.sin(half)
    if not circuit.feature_ids.size:
        return mats, None, None
    half_f = 0.5 * features[:, circuit.feature_ids].T
    return mats, np.cos(half_f), np.sin(half_f)


def _fuse(circuit: _Compiled, runs: np.ndarray, cos_f, sin_f, group,
          scratch: np.ndarray) -> np.ndarray:
    """U = R_m F_m ... R_0 of each chain of one shape, (4, chains, rows or 1),
    from the (4, runs, 1) products ``runs`` of the row-independent runs. A
    per-row U is written into ``scratch``, flat room for two (4, chains, rows)
    arrays."""
    lead, run_rows, feature_rows = group[:3]
    u = runs[:, run_rows[0]] if lead else None
    if not feature_rows.size:
        return u
    fused, part = scratch.reshape(2, 4, run_rows.shape[1], -1)
    for j, bound in enumerate(feature_rows):
        # R_j F_j u = cos R_j u + sin R_j (-iP) u: one per-row sum per feature gate.
        r = runs[:, run_rows[j + lead]]
        rp = _product(r, circuit.feature_pauli[:, bound])
        if u is not None:
            r, rp = _product(r, u), _product(rp, u)
        np.multiply(cos_f[bound], r, out=fused)
        fused += np.multiply(sin_f[bound], rp, out=part)
        u = fused
    return u


def _fuse_sizes(circuit: _Compiled, rows: int) -> list[int]:
    """Scratch ``_fuse`` needs for each chain shape at ``rows`` rows."""
    return [8 * run_rows.shape[1] * rows if feature_rows.size else 0
            for _, run_rows, feature_rows, _ in circuit.groups]


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
    _check_ids(circuit.cell_params.tolist(), 0 if params is None else params.shape[0],
               "param_id")
    _check_ids(circuit.feature_ids.tolist(), 0 if features is None else features.shape[1],
               "feature_id")
    # A copy, not ascontiguousarray: at batch 1 the transposed view is
    # already contiguous and would be the workspace itself.
    return run_compiled(circuit, params, features, 0)[0].T.copy()


def run_compiled(circuit: _Compiled, params: np.ndarray | None,
                 features: np.ndarray | None,
                 n_measured: int) -> tuple[np.ndarray, np.ndarray]:
    """Run a compiled gate list on |0...0> for a batch of feature rows.

    ``params`` and ``features`` are float64 arrays in which the table's
    source ids resolve, as ``run_circuit_batch`` checks; without
    ``features`` the batch size is 1. Returns the batch-last (2**n, batch)
    final state, a view of the workspace valid until the next call into the
    kernels, and the (batch, n_measured) <Z> of qubits 0..n_measured-1.
    """
    batch = 1 if features is None else features.shape[0]
    size = 2**circuit.n_qubits * batch
    src, dst, tmp, *scratch = _WORKSPACE.split(size, size, size // 2,
                                              *_fuse_sizes(circuit, batch))
    mats, cos_f, sin_f = _gate_matrices(circuit, params, features)
    runs = mats[:, 0]
    for i in range(1, mats.shape[1]):
        runs = _product(mats[:, i], runs)
    fused = [_fuse(circuit, runs, cos_f, sin_f, group, room)
             for group, room in zip(circuit.groups, scratch)]

    src, dst = src.reshape(-1, batch), dst.reshape(-1, batch)
    amps = np.ones((1, batch), dtype=np.complex128)
    for _, group, chain in circuit.segments[0]:
        out = dst.reshape(-1)[:2 * amps.size].reshape(-1, 2, batch)
        amps = np.multiply(amps[:, None], fused[group][[0, 2], chain], out=out).reshape(-1, batch)
        src, dst = dst, src
    for perm, chains in zip(circuit.perms, circuit.segments[1:]):
        np.take(src, perm, axis=0, out=dst, mode="clip")
        src, dst = dst, src
        for qubit, group, chain in chains:
            _apply_fused(src, fused[group][:, chain], qubit, dst, tmp)
            src, dst = dst, src
    # |amplitude|^2 batch-first, in the temporary and the spare state
    # buffer: the same product as expectations_z_batch, bit for bit.
    probs = tmp.view(np.float64).reshape(batch, -1)
    np.square(src.real.T, out=probs)
    probs += np.square(src.imag.T, out=dst.reshape(-1).view(np.float64)[:size].reshape(batch, -1))
    return src, probs @ circuit.signs[:, :n_measured]


def _dagger(u: np.ndarray) -> np.ndarray:
    return u[[0, 2, 1, 3]].conj()


def _conjugate(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u^H m u for 2x2 matrices stored as in ``_product``."""
    return _product(_product(_dagger(u), m), u)


def adjoint_gradient(circuit: _Compiled, params, features: np.ndarray,
                     final: np.ndarray, cotangent: np.ndarray,
                     input_gradient: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Vector-Jacobian product of one circuit's Z expectations by one reverse sweep.

    ``circuit`` is the gate list's ``_compile`` table and ``final`` the
    batch-last (2**n, batch) final state for these ``params`` and
    ``features``, a copy of what ``run_compiled`` returned: the sweep runs
    in the workspace, which overwrites any view a kernel returned before,
    so ``final`` must not be one. ``cotangent`` (batch, n_measured) weights
    the <Z> of qubits 0..n_measured-1. Returns, as fresh arrays, the
    gradient of sum_bm cotangent[b, m] * <Z_m>_b
    w.r.t. each parameter, summed over the batch, and, if ``input_gradient``,
    w.r.t. each input angle per row as a (batch, n_features) array; a
    re-uploaded feature sums over its gates.

    Adjoint method (Jones & Gacon, arXiv:2009.02823) on the segment table:
    phi starts at the final state and lam at O phi, O = sum_m c_bm Z_m, both
    stacked in one (2**n, 2 * batch) workspace state; the undo steps and
    scatters alternate between the two state buffers and conj(lam) lives in
    the temporary. Walking the segments backwards,
    the sweep first reads, for each chain U on qubit q, the 2x2 environment
    E[c, a] = sum over the other qubits of phi[..c..] conj(lam[..a..]); then
    it undoes the segment, U^H on each qubit, and the CNOT run before it by
    scattering through the permutation the forward gathered through. It
    reads every segment down to the first, which it never undoes. For
    a gate j of U, with Suf_j the product of U's gates after it,
    d<O>/d theta_j = Re tr(-iP_j Suf_j^H E Suf_j), in 2x2 algebra stacked over
    all chains of one shape. A row-independent suffix reads the environment
    summed over rows; it stays per row only for a chain whose walk crosses a
    feature-bound gate.
    """
    params = np.asarray(params, dtype=np.float64)
    batch = final.shape[1]
    input_grad = np.zeros(features.shape) if input_gradient else None
    # A chain shape's environment stays per row if its walk crosses a feature gate.
    rowwise = [feature_rows.shape[0] > 0 and (input_gradient or run_rows.shape[0] > 1)
               for _, run_rows, feature_rows, _ in circuit.groups]
    envs = [np.zeros((4, group[1].shape[1], batch if per_row else 1), dtype=np.complex128)
            for group, per_row in zip(circuit.groups, rowwise)]
    undone = [last > 0 for *_, last in circuit.groups]

    suffixes = [None]  # suffixes[L - 1 - j]: product of each run's gates after position j
    mats, cos_f, sin_f = _gate_matrices(circuit, params, features)
    full = mats[:, -1]
    for i in range(mats.shape[1] - 2, -1, -1):
        suffixes.append(full)
        full = _product(full, mats[:, i])
    size = 2**circuit.n_qubits * 2 * batch
    stacked, spare, tmp, *scratch = _WORKSPACE.split(size, size, size // 2,
                                                    *_fuse_sizes(circuit, batch))
    undo = []
    for group, wanted, room in zip(circuit.groups, undone, scratch):
        u = _dagger(_fuse(circuit, full, cos_f, sin_f, group, room)) if wanted else None
        undo.append(u if u is None or u.shape[2] == 1 else np.concatenate([u, u], axis=2))

    stacked, spare = stacked.reshape(-1, 2 * batch), spare.reshape(-1, 2 * batch)
    weights = np.matmul(circuit.signs[:, :cotangent.shape[1]], cotangent.T,
                        out=tmp.view(np.float64)[:size // 2].reshape(-1, batch))
    stacked[:, :batch] = final
    np.multiply(final, weights, out=stacked[:, batch:])
    for k in range(len(circuit.segments) - 1, -1, -1):
        chains = circuit.segments[k]
        lam = np.conjugate(stacked[:, batch:], out=tmp.reshape(-1, batch)) if chains else None
        for qubit, group, chain in chains:
            shape = (2**qubit, 2, -1, batch)
            env = envs[group]
            env[:, chain] = np.einsum("icjb,iajb->cab" if env.shape[2] > 1 else "icjb,iajb->ca",
                                      stacked[:, :batch].reshape(shape),
                                      lam.reshape(shape)).reshape(4, -1)
        if k == 0:
            break
        for qubit, group, chain in chains:
            _apply_fused(stacked, undo[group][:, chain], qubit, spare, tmp)
            stacked, spare = spare, stacked
        spare[circuit.perms[k - 1]] = stacked
        stacked, spare = spare, stacked

    # Walk each chain shape from its last run to its first: m is Suf^H E Suf
    # at the current position. Left of run r lie feature gate r - lead, then
    # run r - 1, and so on; a feature gate that starts the chain is crossed
    # only for the input gradient.
    run_env = np.zeros((4, circuit.angles.shape[1]), dtype=np.complex128)
    if input_gradient:
        feature_grad = np.zeros((circuit.feature_ids.shape[0], batch))
    for (lead, run_rows, feature_rows, _), m in zip(circuit.groups, envs):
        for r in range(run_rows.shape[0] - 1, -1, -1):
            run_env[:, run_rows[r]] = m.sum(axis=2)
            if r == 0 and (lead or not input_gradient):
                break
            m = _conjugate(m, full[:, run_rows[r]])
            bound = feature_rows[r - lead]
            if input_gradient:
                feature_grad[bound] = np.einsum(
                    "kc,kcb->cb", circuit.feature_pauli_t[:, bound], m).real
            if r == 0:
                break
            m = _conjugate(m, _IDENTITY * cos_f[bound]
                           + circuit.feature_pauli[:, bound] * sin_f[bound])

    cell_env = run_env[:, None]
    if len(suffixes) > 1:
        shifted = _conjugate(cell_env, np.stack(suffixes[:0:-1], axis=1)[..., 0])
        cell_env = np.concatenate([shifted, cell_env], axis=1)
    cell_grad = np.einsum("kjr,kjr->jr", circuit.run_pauli_t, cell_env).real.ravel()
    # float64 also with no parameter cell, where bincount returns integers.
    param_grad = np.bincount(circuit.cell_params, weights=cell_grad[circuit.param_cells],
                             minlength=params.shape[0]).astype(np.float64, copy=False)
    if input_gradient:
        input_grad[:, :circuit.feature_map.shape[1]] = feature_grad.T @ circuit.feature_map
    return param_grad, input_grad

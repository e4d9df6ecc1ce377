"""Circuit families used by the classifier.

Angle encoding writes one feature per qubit through an RX or RY rotation.
Two trainable ansatz layers are provided: a basic entangling layer (one RX
per qubit, then a CNOT ring) and a strongly entangling layer (RZ-RY-RZ per
qubit, then a CNOT ring). The CNOT ring connects qubit q to (q+1) mod n
for every q, wrap-around included, so it needs n >= 2.

Emitted gate lists are symbolic: rotation angles reference either a
trainable ``param_id`` (unique, contiguous from 0 within one circuit) or a
``feature_id`` into the circuit's input vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import GateKind, GateOp, MAX_QUBITS, cnot, rotation
from .errors import ConfigError


class Encoding(str, Enum):
    RX = "RX"
    RY = "RY"


class Ansatz(str, Enum):
    BASIC = "basic"
    STRONGLY = "strongly"


@dataclass(frozen=True)
class VqcConfig:
    """Hyperparameters of a single variational circuit."""

    n_qubits: int
    encoding: Encoding = Encoding.RY
    ansatz: Ansatz = Ansatz.BASIC
    n_layers: int = 1
    reuploading: bool = True
    n_measured: int = field(default=-1)  # -1 means "all qubits"

    def __post_init__(self) -> None:
        if self.n_measured == -1:
            object.__setattr__(self, "n_measured", self.n_qubits)
        if not 2 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(f"n_qubits must be in 2..{MAX_QUBITS}, got {self.n_qubits}")
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if not 1 <= self.n_measured <= self.n_qubits:
            raise ConfigError(
                f"n_measured must be in 1..n_qubits, got {self.n_measured} for "
                f"{self.n_qubits} qubits"
            )
        object.__setattr__(self, "encoding", Encoding(self.encoding))
        object.__setattr__(self, "ansatz", Ansatz(self.ansatz))


# The trainable rotations an ansatz layer applies to each qubit, in order.
_LAYER_ROTATIONS = {
    Ansatz.BASIC: (GateKind.RX,),
    Ansatz.STRONGLY: (GateKind.RZ, GateKind.RY, GateKind.RZ),
}


def params_per_layer(ansatz: Ansatz, n_qubits: int) -> int:
    return len(_LAYER_ROTATIONS[ansatz]) * n_qubits


def param_count(config: VqcConfig) -> int:
    return config.n_layers * params_per_layer(config.ansatz, config.n_qubits)


def build_encoding(config: VqcConfig) -> tuple[GateOp, ...]:
    """One feature-bound rotation per qubit, feature q on qubit q."""
    kind = GateKind.RX if config.encoding == Encoding.RX else GateKind.RY
    return tuple(rotation(kind, q, feature_id=q) for q in range(config.n_qubits))


def build_entangling_layer(ansatz: Ansatz, n_qubits: int,
                           layer_index: int) -> tuple[GateOp, ...]:
    """The ansatz's trainable rotations on each qubit, then the CNOT ring;
    ``params_per_layer`` new params, numbered on from the layers before."""
    if n_qubits < 2:
        raise ConfigError("entangling layers need n_qubits >= 2")
    kinds = _LAYER_ROTATIONS[ansatz]
    base = layer_index * len(kinds) * n_qubits
    rotations = tuple(rotation(kind, q, param_id=base + len(kinds) * q + k)
                      for q in range(n_qubits) for k, kind in enumerate(kinds))
    return rotations + tuple(cnot(q, (q + 1) % n_qubits) for q in range(n_qubits))


def build_vqc(config: VqcConfig) -> tuple[tuple[GateOp, ...], int]:
    """Assemble encoding plus ansatz layers into one gate list.

    With reuploading the encoding block is re-inserted before every layer;
    without it the single encoding block sits at the front. Returns the gate
    list and the number of trainable parameters it introduces.
    """
    encoding = build_encoding(config)
    gates: list[GateOp] = []
    if not config.reuploading:
        gates.extend(encoding)
    for layer in range(config.n_layers):
        if config.reuploading:
            gates.extend(encoding)
        gates.extend(build_entangling_layer(config.ansatz, config.n_qubits, layer))
    return tuple(gates), param_count(config)

import numpy as np
import pytest

from multivqc.core import GateKind, expectations_z_batch, run_circuit_batch
from multivqc.errors import ConfigError
from multivqc.templates import (
    Ansatz,
    Encoding,
    VqcConfig,
    build_encoding,
    build_entangling_layer,
    build_vqc,
    param_count,
    params_per_layer,
)

import oracles


class TestVqcConfig:
    def test_defaults_resolve_measured_to_all(self):
        cfg = VqcConfig(n_qubits=4)
        assert cfg.n_measured == 4

    def test_string_fields_coerce_to_enums(self):
        cfg = VqcConfig(n_qubits=2, encoding="RX", ansatz="strongly")
        assert cfg.encoding is Encoding.RX
        assert cfg.ansatz is Ansatz.STRONGLY

    @pytest.mark.parametrize("bad", [0, 1, 9])
    def test_qubit_range_enforced(self, bad):
        with pytest.raises(ConfigError):
            VqcConfig(n_qubits=bad)

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError):
            VqcConfig(n_qubits=2, n_layers=0)

    def test_measured_beyond_width_rejected(self):
        with pytest.raises(ConfigError):
            VqcConfig(n_qubits=2, n_measured=3)


class TestEncoding:
    def test_two_qubit_rx_structure(self):
        cfg = VqcConfig(n_qubits=2, encoding=Encoding.RX)
        gates = build_encoding(cfg)
        assert [g.kind for g in gates] == [GateKind.RX, GateKind.RX]
        assert [g.target for g in gates] == [0, 1]
        assert [g.feature_id for g in gates] == [0, 1]
        assert all(g.param_id is None and g.angle is None for g in gates)

    def test_three_qubit_ry_structure(self):
        cfg = VqcConfig(n_qubits=3, encoding=Encoding.RY)
        gates = build_encoding(cfg)
        assert [g.kind for g in gates] == [GateKind.RY] * 3
        assert [g.feature_id for g in gates] == [0, 1, 2]

    def test_rx_encoding_pi_and_zero_features(self):
        cfg = VqcConfig(n_qubits=2, encoding=Encoding.RX)
        gates = build_encoding(cfg)
        amps = run_circuit_batch(2, gates, features=np.array([[np.pi, 0.0]]))
        assert expectations_z_batch(amps, [0], 2)[0, 0] == pytest.approx(-1.0, abs=1e-10)
        assert expectations_z_batch(amps, [1], 2)[0, 0] == pytest.approx(1.0, abs=1e-10)


class TestBasicEntanglingLayer:
    def test_two_qubit_structure(self):
        gates = build_entangling_layer(Ansatz.BASIC, 2, 0)
        assert [g.kind for g in gates] == [
            GateKind.RX, GateKind.RX, GateKind.CNOT, GateKind.CNOT]
        assert [g.param_id for g in gates[:2]] == [0, 1]
        assert (gates[2].control, gates[2].target) == (0, 1)
        assert (gates[3].control, gates[3].target) == (1, 0)

    def test_four_qubit_counts_and_ring(self):
        gates = build_entangling_layer(Ansatz.BASIC, 4, 0)
        rotations = [g for g in gates if g.kind == GateKind.RX]
        cnots = [g for g in gates if g.kind == GateKind.CNOT]
        assert len(rotations) == 4 and len(cnots) == 4
        assert [(g.control, g.target) for g in cnots] == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_layer_index_offsets_param_ids(self):
        gates = build_entangling_layer(Ansatz.BASIC, 3, 2)
        assert [g.param_id for g in gates if g.kind == GateKind.RX] == [6, 7, 8]

    def test_zero_params_reduce_to_cnot_ring(self):
        cfg = VqcConfig(n_qubits=3, encoding=Encoding.RY, ansatz=Ansatz.BASIC,
                        n_layers=1, reuploading=False)
        gates, n_params = build_vqc(cfg)
        features = np.array([0.9, 0.4, 1.7])
        amps = run_circuit_batch(3, gates, params=np.zeros(n_params),
                                 features=features[None])[0]
        ring_only = build_encoding(cfg) + tuple(
            g for g in build_entangling_layer(Ansatz.BASIC, 3, 0) if g.kind == GateKind.CNOT)
        ref = oracles.oracle_state(3, ring_only, features=features)
        assert np.allclose(amps, ref, atol=1e-12)

    def test_single_qubit_rejected(self):
        with pytest.raises(ConfigError):
            build_entangling_layer(Ansatz.BASIC, 1, 0)


class TestStronglyEntanglingLayer:
    def test_two_qubit_structure(self):
        gates = build_entangling_layer(Ansatz.STRONGLY, 2, 0)
        rotations = gates[:6]
        assert [g.kind for g in rotations] == [
            GateKind.RZ, GateKind.RY, GateKind.RZ,
            GateKind.RZ, GateKind.RY, GateKind.RZ]
        assert [g.target for g in rotations] == [0, 0, 0, 1, 1, 1]
        assert [g.param_id for g in rotations] == [0, 1, 2, 3, 4, 5]
        assert [(g.control, g.target) for g in gates[6:]] == [(0, 1), (1, 0)]

    def test_five_qubit_param_count(self):
        gates = build_entangling_layer(Ansatz.STRONGLY, 5, 0)
        params = [g.param_id for g in gates if g.param_id is not None]
        assert len(params) == 15
        assert params == list(range(15))

    def test_zero_params_reduce_to_identity_rotations(self):
        gates = build_entangling_layer(Ansatz.STRONGLY, 2, 0)
        amps = run_circuit_batch(2, gates, params=np.zeros(6))[0]
        ring = tuple(g for g in gates if g.kind == GateKind.CNOT)
        ref = oracles.oracle_state(2, ring)
        assert np.allclose(amps, ref, atol=1e-12)

    def test_single_qubit_rejected(self):
        with pytest.raises(ConfigError):
            build_entangling_layer(Ansatz.STRONGLY, 1, 0)


def encoding_block_starts(gates, n_qubits):
    """Indices where a run of n_qubits feature-bound rotations begins."""
    starts = []
    i = 0
    while i < len(gates):
        if all(i + q < len(gates) and gates[i + q].feature_id == q
               for q in range(n_qubits)):
            starts.append(i)
            i += n_qubits
        else:
            i += 1
    return starts


class TestBuildVqc:
    @pytest.mark.parametrize("ansatz", [Ansatz.BASIC, Ansatz.STRONGLY])
    @pytest.mark.parametrize("n_qubits", [2, 3, 5])
    @pytest.mark.parametrize("n_layers", [1, 2, 4])
    def test_param_count_formula(self, ansatz, n_qubits, n_layers):
        cfg = VqcConfig(n_qubits=n_qubits, ansatz=ansatz, n_layers=n_layers)
        gates, n_params = build_vqc(cfg)
        per_layer = 3 * n_qubits if ansatz == Ansatz.STRONGLY else n_qubits
        assert n_params == n_layers * per_layer
        assert n_params == param_count(cfg)
        assert params_per_layer(ansatz, n_qubits) == per_layer

    @pytest.mark.parametrize("ansatz", [Ansatz.BASIC, Ansatz.STRONGLY])
    @pytest.mark.parametrize("reuploading", [True, False])
    def test_param_ids_unique_contiguous(self, ansatz, reuploading):
        cfg = VqcConfig(n_qubits=3, ansatz=ansatz, n_layers=3,
                        reuploading=reuploading)
        gates, n_params = build_vqc(cfg)
        ids = [g.param_id for g in gates if g.param_id is not None]
        assert sorted(ids) == list(range(n_params))
        assert len(set(ids)) == len(ids)

    def test_reuploading_reinserts_encoding_before_every_layer(self):
        cfg = VqcConfig(n_qubits=2, ansatz=Ansatz.BASIC, n_layers=7,
                        reuploading=True, encoding=Encoding.RX)
        gates, n_params = build_vqc(cfg)
        assert n_params == 14
        assert len(encoding_block_starts(gates, 2)) == 7

    def test_no_reuploading_single_block_at_front(self):
        cfg = VqcConfig(n_qubits=2, ansatz=Ansatz.BASIC, n_layers=3,
                        reuploading=False)
        gates, _ = build_vqc(cfg)
        starts = encoding_block_starts(gates, 2)
        assert starts == [0]

    def test_strongly_four_layers_two_qubits(self):
        cfg = VqcConfig(n_qubits=2, encoding=Encoding.RY, ansatz=Ansatz.STRONGLY,
                        n_layers=4, reuploading=True)
        gates, n_params = build_vqc(cfg)
        assert n_params == 24

    def test_gate_order_encoding_then_layer(self):
        cfg = VqcConfig(n_qubits=2, ansatz=Ansatz.BASIC, n_layers=2,
                        reuploading=True)
        gates, _ = build_vqc(cfg)
        # enc(2) + layer(2 rot + 2 cnot) repeated per layer
        kinds = [g.kind for g in gates]
        per_layer = [GateKind.RY, GateKind.RY, GateKind.RX, GateKind.RX,
                     GateKind.CNOT, GateKind.CNOT]
        assert kinds == per_layer * 2

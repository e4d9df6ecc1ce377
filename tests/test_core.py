import itertools

import numpy as np
import pytest

from multivqc import core
from multivqc.core import (
    GateKind,
    GateOp,
    apply_cnot_batch,
    apply_rotation_batch,
    cnot,
    expectations_z_batch,
    rotation,
    run_circuit_batch,
)
from multivqc.errors import ConfigError, ModelDefinitionError
from multivqc.gradients import run_circuit_blocks
from multivqc.templates import Ansatz, Encoding, VqcConfig, build_vqc

import oracles


def random_vqc(rng, max_qubits=3):
    cfg = VqcConfig(
        n_qubits=int(rng.integers(2, max_qubits + 1)),
        encoding=rng.choice(["RX", "RY"]),
        ansatz=rng.choice(["basic", "strongly"]),
        n_layers=int(rng.integers(1, 6)),
        reuploading=bool(rng.integers(0, 2)),
    )
    gates, n_params = build_vqc(cfg)
    params = rng.uniform(0.0, 2.0 * np.pi, n_params)
    features = rng.uniform(0.0, np.pi, cfg.n_qubits)
    return cfg, gates, params, features


class TestNewZeroState:
    def test_one_qubit(self):
        amps = run_circuit_batch(1, [])[0]
        assert np.array_equal(amps, [1.0 + 0.0j, 0.0 + 0.0j])

    def test_two_qubits(self):
        amps = run_circuit_batch(2, [])[0]
        assert np.array_equal(amps, [1, 0, 0, 0])

    def test_three_qubits_length_and_norm(self):
        amps = run_circuit_batch(3, [])[0]
        assert amps.shape == (8,)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [0, -1, 9, 100])
    def test_out_of_range(self, bad):
        with pytest.raises(ConfigError):
            run_circuit_batch(bad, [])


class TestApplyGate:
    def test_rx_pi_gives_minus_i_one(self):
        amps = run_circuit_batch(1, [rotation(GateKind.RX, 0, angle=np.pi)])[0]
        assert np.allclose(amps, [0.0, -1.0j], atol=1e-12)

    def test_ry_half_pi_equal_superposition(self):
        amps = run_circuit_batch(1, [rotation(GateKind.RY, 0, angle=np.pi / 2)])[0]
        expected = [np.cos(np.pi / 4), np.sin(np.pi / 4)]
        assert np.allclose(amps, expected, atol=1e-12)

    def test_rz_phases_basis_states(self):
        theta = 0.83
        plus = run_circuit_batch(1, [rotation(GateKind.RY, 0, angle=np.pi / 2)])[0]
        rotated = apply_rotation_batch(plus[None], GateKind.RZ, 0, theta, 1)[0]
        expected = plus * np.array(
            [np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.allclose(rotated, expected, atol=1e-12)

    def test_cnot_flips_target_where_control_set(self):
        # |10> with qubit 0 as the most significant bit sits at index 2.
        amps = np.array([0, 0, 1, 0], dtype=complex)
        flipped = apply_cnot_batch(amps[None], 0, 1, 2)[0]
        assert np.array_equal(flipped, [0, 0, 0, 1])

    def test_cnot_identity_when_control_clear(self):
        amps = run_circuit_batch(2, [cnot(0, 1)])[0]
        assert np.array_equal(amps, [1, 0, 0, 0])

    def test_invalid_target_raises(self):
        with pytest.raises(IndexError):
            run_circuit_batch(2, [rotation(GateKind.RX, 5, angle=0.1)])

    def test_rotation_without_angle_raises(self):
        gate = rotation(GateKind.RX, 0, param_id=0)
        with pytest.raises(ModelDefinitionError):
            run_circuit_batch(1, [gate])

    @pytest.mark.parametrize("kind", [GateKind.RX, GateKind.RY, GateKind.RZ])
    def test_single_gate_matches_dense_oracle(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            target = int(rng.integers(0, n))
            theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            moved = apply_rotation_batch(amps[None], kind, target, theta, n)[0]
            dense = oracles.embed_single(n, target, oracles.rotation_matrix(kind, theta))
            assert np.allclose(moved, dense @ amps, atol=1e-12)

    @pytest.mark.parametrize("kind", [GateKind.RX, GateKind.RY, GateKind.RZ])
    def test_per_row_angles_match_dense_oracle(self, kind):
        rng = np.random.default_rng(14)
        for n in (1, 2, 3):
            for target in range(n):
                amps = rng.normal(size=(5, 2**n)) + 1j * rng.normal(size=(5, 2**n))
                amps /= np.linalg.norm(amps, axis=1, keepdims=True)
                thetas = rng.uniform(-2 * np.pi, 2 * np.pi, 5)
                moved = apply_rotation_batch(amps, kind, target, thetas, n)
                for row, theta in enumerate(thetas):
                    dense = oracles.embed_single(n, target, oracles.rotation_matrix(kind, theta))
                    assert np.max(np.abs(moved[row] - dense @ amps[row])) < 1e-12

    def test_cnot_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            control, target = rng.choice(n, size=2, replace=False)
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            moved = apply_cnot_batch(amps[None], int(control), int(target), n)[0]
            dense = oracles.cnot_matrix(n, int(control), int(target))
            assert np.allclose(moved, dense @ amps, atol=1e-12)

    def test_gate_then_inverse_restores_state(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = 3
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            kinds = (GateKind.RX, GateKind.RY, GateKind.RZ)
            kind = kinds[int(rng.integers(0, 3))]
            target = int(rng.integers(0, n))
            theta = float(rng.uniform(-np.pi, np.pi))
            forth = apply_rotation_batch(amps[None], kind, target, theta, n)
            back = apply_rotation_batch(forth, kind, target, -theta, n)[0]
            assert np.allclose(back, amps, atol=1e-10)
            control = int(rng.integers(0, n))
            other = (control + 1) % n
            once = apply_cnot_batch(amps[None], control, other, n)
            twice = apply_cnot_batch(once, control, other, n)[0]
            assert np.allclose(twice, amps, atol=1e-10)


class TestExpectationZ:
    def test_zero_state_every_qubit_plus_one(self):
        amps = run_circuit_batch(3, [])
        for q in range(3):
            assert expectations_z_batch(amps, [q], 3)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_flipped_qubit_minus_one(self):
        amps = run_circuit_batch(1, [rotation(GateKind.RX, 0, angle=np.pi)])
        assert expectations_z_batch(amps, [0], 1)[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_equal_superposition_zero(self):
        amps = run_circuit_batch(1, [rotation(GateKind.RY, 0, angle=np.pi / 2)])
        assert expectations_z_batch(amps, [0], 1)[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_ry_angle_gives_cosine(self):
        for theta in np.linspace(-np.pi, np.pi, 9):
            amps = run_circuit_batch(1, [rotation(GateKind.RY, 0, angle=theta)])
            assert expectations_z_batch(amps, [0], 1)[0, 0] == pytest.approx(
                np.cos(theta), abs=1e-12)

    def test_invalid_index_raises(self):
        with pytest.raises(IndexError):
            expectations_z_batch(run_circuit_batch(2, []), [2], 2)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(14)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        shifted = amps * np.exp(1j * 0.7)
        for q in range(3):
            assert expectations_z_batch(amps[None], [q], 3)[0, 0] == pytest.approx(
                expectations_z_batch(shifted[None], [q], 3)[0, 0], abs=1e-12)

    def test_matches_operator_oracle(self):
        rng = np.random.default_rng(15)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        for q in range(3):
            assert expectations_z_batch(amps[None], [q], 3)[0, 0] == pytest.approx(
                oracles.oracle_z_expectation(amps, q, 3), abs=1e-12)


    def test_any_qubit_list_in_one_read(self):
        rng = np.random.default_rng(22)
        amps = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        qubits = [2, 0, 2, 1]
        table = expectations_z_batch(amps, qubits, 3)
        assert table.shape == (4, 4)
        for b in range(4):
            for j, q in enumerate(qubits):
                assert table[b, j] == pytest.approx(
                    oracles.oracle_z_expectation(amps[b], q, 3), abs=1e-12)
        assert expectations_z_batch(amps, [], 3).shape == (4, 0)


class TestRunCircuit:
    def test_empty_gate_list_is_identity(self):
        amps = run_circuit_batch(2, [])[0]
        assert np.array_equal(amps, [1, 0, 0, 0])

    def test_single_parameterized_ry_pi(self):
        gates = [rotation(GateKind.RY, 0, param_id=0)]
        amps = run_circuit_batch(2, gates, params=np.array([np.pi]))
        assert expectations_z_batch(amps, [0], 2)[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_unresolvable_param_raises(self):
        gates = [rotation(GateKind.RX, 0, param_id=3)]
        with pytest.raises(ModelDefinitionError):
            run_circuit_batch(2, gates, params=np.array([0.1]))

    def test_unresolvable_feature_raises(self):
        gates = [rotation(GateKind.RX, 0, feature_id=2)]
        with pytest.raises(ModelDefinitionError):
            run_circuit_batch(2, gates, features=np.array([[0.1, 0.2]]))

    def test_norm_preserved_over_random_circuits(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            cfg, gates, params, features = random_vqc(rng)
            amps = run_circuit_batch(cfg.n_qubits, gates, params=params,
                                     features=features[None])[0]
            assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-10

    def test_strongly_entangling_matches_oracle(self):
        rng = np.random.default_rng(17)
        cfg = VqcConfig(n_qubits=3, encoding="RY", ansatz="strongly", n_layers=1)
        gates, n_params = build_vqc(cfg)
        params = rng.uniform(0, 2 * np.pi, n_params)
        features = rng.uniform(0, np.pi, 3)
        amps = run_circuit_batch(3, gates, params=params, features=features[None])[0]
        ref = oracles.oracle_state(3, gates, params=params, features=features)
        assert np.allclose(amps, ref, atol=1e-12)

    def test_random_circuits_match_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            cfg, gates, params, features = random_vqc(rng)
            amps = run_circuit_batch(cfg.n_qubits, gates, params=params,
                                     features=features[None])[0]
            ref = oracles.oracle_state(cfg.n_qubits, gates, params=params,
                                       features=features)
            assert np.max(np.abs(amps - ref)) < 1e-12

    def test_deterministic_rerun_bitwise(self):
        rng = np.random.default_rng(19)
        cfg, gates, params, features = random_vqc(rng)
        first = run_circuit_batch(cfg.n_qubits, gates, params=params,
                                  features=features[None])
        second = run_circuit_batch(cfg.n_qubits, gates, params=params,
                                   features=features[None])
        assert np.array_equal(first, second)


def random_gate_list(rng, n_qubits, n_gates, n_params, n_features):
    """Rotations with fixed, param and feature angles on random qubits,
    interleaved with CNOTs on arbitrary qubit pairs."""
    gates = []
    for _ in range(n_gates):
        if n_qubits > 1 and rng.random() < 0.3:
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(cnot(int(control), int(target)))
            continue
        kind = (GateKind.RX, GateKind.RY, GateKind.RZ)[int(rng.integers(3))]
        qubit = int(rng.integers(n_qubits))
        source = int(rng.integers(3))
        if source == 0:
            gates.append(rotation(kind, qubit, angle=float(rng.uniform(-2 * np.pi, 2 * np.pi))))
        elif source == 1:
            gates.append(rotation(kind, qubit, param_id=int(rng.integers(n_params))))
        else:
            gates.append(rotation(kind, qubit, feature_id=int(rng.integers(n_features))))
    return gates


def assert_matches_oracle(n_qubits, gates, params, features):
    amps = run_circuit_batch(n_qubits, gates, params=params, features=features)
    assert amps.shape == (features.shape[0], 2**n_qubits)
    for row, state in zip(features, amps):
        ref = oracles.oracle_state(n_qubits, gates, params=params, features=row)
        assert np.max(np.abs(state - ref)) < 1e-12


RX, RY, RZ = GateKind.RX, GateKind.RY, GateKind.RZ
# Hand-picked shapes of the segment compiler on 3 qubits, 2 params, 2 features.
SHAPED_CIRCUITS = {
    "empty": [],
    "cnot_only": [cnot(0, 1), cnot(2, 0)],
    "feature_mid_chain": [rotation(RZ, 0, param_id=0), rotation(RX, 0, feature_id=1),
                          rotation(RY, 0, param_id=1), rotation(RZ, 0, feature_id=0),
                          rotation(RX, 0, angle=0.3), rotation(RY, 1, feature_id=0)],
    "feature_first_and_last": [rotation(RY, 2, feature_id=0), rotation(RZ, 2, angle=1.1),
                               rotation(RX, 2, feature_id=1)],
    "split_by_cnot_elsewhere": [rotation(RX, 0, param_id=0), cnot(1, 2),
                                rotation(RY, 0, feature_id=1), rotation(RZ, 0, param_id=1)],
    "back_to_back_cnot_runs": [cnot(0, 1), cnot(1, 2), rotation(RY, 1, param_id=0),
                               cnot(2, 0), cnot(0, 2), cnot(1, 0), rotation(RX, 0, feature_id=0),
                               cnot(0, 1)],
    "ends_in_rotations": [rotation(RY, 0, feature_id=0), cnot(0, 1), cnot(1, 2),
                          rotation(RX, 1, param_id=1), rotation(RZ, 2, angle=-0.7),
                          rotation(RY, 2, feature_id=1)],
    "no_feature_gates": [rotation(RY, 1, param_id=0), cnot(1, 0), rotation(RX, 0, angle=2.0)],
}


class TestCompiledRunner:
    """The compiled runner against the dense oracle, to 1e-12."""

    @pytest.mark.parametrize("n_qubits", range(1, 9))
    def test_random_gate_lists_match_oracle(self, n_qubits):
        rng = np.random.default_rng(40 + n_qubits)
        for _ in range(6 if n_qubits < 7 else 2):
            n_params, n_features = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            gates = random_gate_list(rng, n_qubits, int(rng.integers(0, 30)),
                                     n_params, n_features)
            params = rng.uniform(-np.pi, 2 * np.pi, n_params)
            features = rng.uniform(-np.pi, np.pi, (int(rng.integers(1, 4)), n_features))
            assert_matches_oracle(n_qubits, gates, params, features)

    @pytest.mark.parametrize("name", SHAPED_CIRCUITS)
    def test_segment_shapes_match_oracle(self, name):
        rng = np.random.default_rng(50)
        assert_matches_oracle(3, SHAPED_CIRCUITS[name], rng.uniform(-np.pi, np.pi, 2),
                              rng.uniform(-np.pi, np.pi, (4, 2)))

    @pytest.mark.parametrize("n_qubits", [2, 3, 5, 8])
    def test_every_template_matches_oracle(self, n_qubits):
        rng = np.random.default_rng(60 + n_qubits)
        for encoding, ansatz, reuploading in itertools.product(Encoding, Ansatz, (False, True)):
            cfg = VqcConfig(n_qubits=n_qubits, encoding=encoding, ansatz=ansatz,
                            n_layers=2, reuploading=reuploading)
            gates, n_params = build_vqc(cfg)
            assert_matches_oracle(n_qubits, gates, rng.uniform(0, 2 * np.pi, n_params),
                                  rng.uniform(0, np.pi, (2, n_qubits)))

    @pytest.mark.parametrize("gates", [
        [rotation(GateKind.RX, 3, angle=0.1)],
        [rotation(GateKind.RY, -1, param_id=0)],
        [cnot(0, 3)],
        [rotation(GateKind.RZ, 0, feature_id=0), cnot(5, 1)],
    ])
    def test_bad_qubit_is_index_error_on_every_call(self, gates):
        for _ in range(2):
            with pytest.raises(IndexError):
                run_circuit_batch(3, gates, params=np.zeros(1), features=np.zeros((1, 1)))

    def test_unresolvable_source_raises_after_a_cached_compile(self):
        gates = [rotation(GateKind.RX, 0, param_id=1), cnot(0, 1),
                 rotation(GateKind.RY, 1, feature_id=2)]
        run_circuit_batch(2, gates, params=np.zeros(2), features=np.zeros((1, 3)))
        hits = core._compile.cache_info().hits
        for params, features in [(np.zeros(1), np.zeros((1, 3))), (None, np.zeros((1, 3))),
                                 (np.zeros(2), np.zeros((1, 2))), (np.zeros(2), None)]:
            with pytest.raises(ModelDefinitionError):
                run_circuit_batch(2, gates, params=params, features=features)
        assert core._compile.cache_info().hits == hits + 4

    def test_negative_source_ids_are_unresolvable(self):
        for gate in (rotation(GateKind.RX, 0, param_id=-1),
                     rotation(GateKind.RX, 0, feature_id=-1)):
            with pytest.raises(ModelDefinitionError):
                run_circuit_batch(1, [gate], params=np.zeros(2), features=np.zeros((1, 2)))


class TestBatching:
    def test_batch_matches_single_runs(self):
        rng = np.random.default_rng(20)
        cfg, gates, params, _ = random_vqc(rng)
        features = rng.uniform(0, np.pi, size=(7, cfg.n_qubits))
        batched = run_circuit_batch(cfg.n_qubits, gates, params=params,
                                    features=features)
        for b in range(7):
            single = run_circuit_batch(cfg.n_qubits, gates, params=params,
                                       features=features[b:b + 1])[0]
            assert np.allclose(batched[b], single, atol=1e-14)

    def test_batch_expectations_match_single(self):
        rng = np.random.default_rng(21)
        cfg, gates, params, _ = random_vqc(rng)
        features = rng.uniform(0, np.pi, size=(5, cfg.n_qubits))
        amps = run_circuit_batch(cfg.n_qubits, gates, params=params, features=features)
        table = expectations_z_batch(amps, range(cfg.n_qubits), cfg.n_qubits)
        for b in range(5):
            for q in range(cfg.n_qubits):
                single = expectations_z_batch(amps[b][None], [q], cfg.n_qubits)[0, 0]
                assert table[b, q] == pytest.approx(single, abs=1e-12)

    def test_gate_deltas_match_shifted_runs(self):
        rng = np.random.default_rng(23)
        cfg, gates, params, _ = random_vqc(rng)
        features = rng.uniform(0, np.pi, size=(3, cfg.n_qubits))
        rotation_indices = [i for i, g in enumerate(gates) if g.kind != GateKind.CNOT]
        picked = rng.choice(rotation_indices, size=4, replace=False)
        deltas = np.zeros((4, len(gates)))
        for row, gate_index in enumerate(picked):
            deltas[row, gate_index] = float(rng.normal())
        stacked = run_circuit_blocks(cfg.n_qubits, gates, params=params,
                                     features=features, gate_deltas=deltas)
        for row, gate_index in enumerate(picked):
            gate = gates[gate_index]
            for b in range(3):
                # Gate ``gate_index`` as a fixed-angle copy carrying the delta.
                angle = oracles.resolve_gate_angle(gate, params, features[b])
                shifted = list(gates)
                shifted[gate_index] = rotation(gate.kind, gate.target,
                                               angle=angle + deltas[row, gate_index])
                ref = oracles.oracle_state(cfg.n_qubits, shifted, params=params,
                                           features=features[b])
                assert np.allclose(stacked[row * 3 + b], ref, atol=1e-14)

    def test_block_count_mismatch_raises(self):
        # gate_deltas needs one column per gate.
        cfg = VqcConfig(n_qubits=2)
        gates, n_params = build_vqc(cfg)
        with pytest.raises(ConfigError):
            run_circuit_blocks(2, gates, params=np.zeros(n_params),
                               gate_deltas=np.zeros((2, len(gates) - 1)),
                               features=np.zeros((1, 2)))


class TestGateOpValidation:
    def test_rotation_rejects_multiple_bindings(self):
        with pytest.raises(ConfigError):
            GateOp(kind=GateKind.RX, target=0, angle=0.5, param_id=1)

    def test_cnot_rejects_angle(self):
        with pytest.raises(ConfigError):
            GateOp(kind=GateKind.CNOT, target=1, control=0, angle=0.5)

    def test_cnot_requires_distinct_control(self):
        with pytest.raises(ConfigError):
            cnot(1, 1)

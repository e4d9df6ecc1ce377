import dataclasses
import json

import numpy as np
import pytest

from multivqc.core import GateKind, GateOp, expectations_z_batch, run_circuit_batch
from multivqc.errors import ConfigError
from multivqc.model import (
    MODEL_FORMAT,
    ForwardTrace,
    MultiVqcConfig,
    MultiVqcModel,
    Rescale,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    nll_from_scores,
    rescale_derivative,
    rescale_expectations,
    save_model,
    softmax,
)
from multivqc.params import ParamStore

import oracles


def random_model(rng, n_vqcs=None, n_features=None):
    cfg = MultiVqcConfig(
        n_features=int(n_features or rng.integers(2, 5)),
        n_classes=2,
        n_vqcs=int(n_vqcs or rng.integers(1, 4)),
        encoding="RX" if rng.integers(0, 2) else "RY",
        ansatz="basic" if rng.integers(0, 2) else "strongly",
        n_layers=int(rng.integers(1, 3)),
        reuploading=bool(rng.integers(0, 2)),
    )
    model = MultiVqcModel(cfg)
    return model, model.new_store(rng)


class TestConfig:
    def test_stage_shapes(self):
        cfg = MultiVqcConfig(n_features=4, n_classes=2, n_vqcs=3)
        stages = cfg.stage_configs()
        assert [s.n_qubits for s in stages] == [4, 4, 4]
        assert [s.n_measured for s in stages] == [4, 4, 2]

    def test_single_vqc_measures_classes(self):
        cfg = MultiVqcConfig(n_features=3, n_classes=2, n_vqcs=1)
        assert cfg.stage_configs()[0].n_measured == 2

    def test_per_stage_layer_counts(self):
        cfg = MultiVqcConfig(n_features=3, n_vqcs=3, n_layers=(2, 1, 3))
        assert [s.n_layers for s in cfg.stage_configs()] == [2, 1, 3]
        model = MultiVqcModel(cfg)
        assert model.param_counts == (6, 3, 9)

    def test_layer_tuple_length_must_match(self):
        with pytest.raises(ConfigError):
            MultiVqcConfig(n_features=3, n_vqcs=2, n_layers=(1, 2, 3))

    def test_more_classes_than_qubits_rejected(self):
        with pytest.raises(ConfigError):
            MultiVqcConfig(n_features=2, n_classes=3)

    @pytest.mark.parametrize("field,value", [
        ("n_features", 1), ("n_features", 9), ("n_vqcs", 0), ("n_layers", 0),
    ])
    def test_range_validation(self, field, value):
        base = dict(n_features=3, n_classes=2, n_vqcs=1, n_layers=1)
        base[field] = value
        with pytest.raises(ConfigError):
            MultiVqcConfig(**base)


class TestRescale:
    def test_pi_mode_scales_by_pi(self):
        values = np.array([-1.0, 0.0, 0.5, 1.0])
        assert np.allclose(rescale_expectations(values, Rescale.PI),
                           [-np.pi, 0.0, np.pi / 2, np.pi])

    def test_arccos_mode_range(self):
        values = np.array([-1.0, 0.0, 1.0])
        out = rescale_expectations(values, Rescale.ARCCOS)
        assert out[0] == pytest.approx(np.pi, abs=1e-4)
        assert out[1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert out[2] == pytest.approx(0.0, abs=1e-4)
        assert np.all(np.isfinite(rescale_derivative(values, Rescale.ARCCOS)))

    def test_identity_mode_passthrough(self):
        values = np.array([-0.4, 0.9])
        assert np.array_equal(rescale_expectations(values, Rescale.IDENTITY), values)
        assert np.array_equal(rescale_derivative(values, Rescale.IDENTITY), [1.0, 1.0])

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(-0.95, 0.95, 20)
        h = 1e-6
        for mode in (Rescale.PI, Rescale.ARCCOS, Rescale.IDENTITY):
            numeric = (rescale_expectations(values + h, mode)
                       - rescale_expectations(values - h, mode)) / (2 * h)
            assert np.allclose(rescale_derivative(values, mode), numeric, atol=1e-5)


class TestForward:
    def test_identity_circuit_splits_probability(self):
        cfg = MultiVqcConfig(n_features=2, n_classes=2, n_vqcs=1, encoding="RX",
                             ansatz="basic", n_layers=1, reuploading=False)
        model = MultiVqcModel(cfg)
        store = model.new_store()
        trace = model.forward_batch(store, np.array([[0.0, 0.0]]))
        assert np.allclose(trace.scores[0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(trace.probabilities[0], [0.5, 0.5], atol=1e-12)

    def test_second_stage_receives_pi_rescaled_inputs(self):
        cfg = MultiVqcConfig(n_features=2, n_classes=2, n_vqcs=2, encoding="RX",
                             ansatz="basic", n_layers=1, reuploading=False,
                             rescale=Rescale.PI)
        model = MultiVqcModel(cfg)
        store = model.new_store()
        stage_inputs = [inputs for inputs, _, _ in
                        model.iter_stages(store, np.array([[0.0, 0.0]]))]
        assert np.allclose(stage_inputs[1][0], [np.pi, np.pi], atol=1e-10)

    def test_scores_stay_in_expectation_bounds(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            model, store = random_model(rng)
            X = rng.uniform(-np.pi, np.pi, (4, model.config.n_features))
            trace = model.forward_batch(store, X)
            assert np.all(trace.scores >= -1.0 - 1e-12)
            assert np.all(trace.scores <= 1.0 + 1e-12)
            assert np.allclose(trace.probabilities.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(trace.probabilities >= 0.0)

    def test_three_stage_chain_matches_dense_oracle(self):
        rng = np.random.default_rng(33)
        for n_vqcs in (1, 2, 3):
            model, store = random_model(rng, n_vqcs=n_vqcs, n_features=2)
            X = rng.uniform(0, np.pi, (3, 2))
            trace = model.forward_batch(store, X)
            ref = oracles.oracle_chain_scores(model, store, X)
            assert np.max(np.abs(trace.scores - ref)) < 1e-10

    def test_single_vqc_degenerates_to_direct_run(self):
        rng = np.random.default_rng(34)
        cfg = MultiVqcConfig(n_features=3, n_classes=2, n_vqcs=1, encoding="RY",
                             ansatz="strongly", n_layers=2, reuploading=True)
        model = MultiVqcModel(cfg)
        store = model.new_store(rng)
        X = rng.uniform(0, np.pi, (5, 3))
        trace = model.forward_batch(store, X)
        amps = run_circuit_batch(3, model.stage_gates[0], params=store.values,
                                 features=X)
        direct = expectations_z_batch(amps, range(2), 3)
        assert np.array_equal(trace.scores, direct)

    def test_swapping_readout_qubits_swaps_scores(self):
        rng = np.random.default_rng(35)
        model, store = random_model(rng, n_vqcs=1, n_features=2)
        X = rng.uniform(0, np.pi, (4, 2))

        def relabel(gate):
            swap = {0: 1, 1: 0}
            return GateOp(
                kind=gate.kind,
                target=swap[gate.target],
                control=None if gate.control is None else swap[gate.control],
                angle=gate.angle,
                param_id=gate.param_id,
                feature_id=gate.feature_id,
            )

        # Relabeling qubits conjugates the circuit by the swap permutation,
        # so measuring the swapped qubits reads off the original scores.
        swapped_gates = tuple(relabel(g) for g in model.stage_gates[0])
        amps = run_circuit_batch(2, swapped_gates, params=store.values, features=X)
        swapped_scores = expectations_z_batch(amps, [1, 0], 2)
        trace = model.forward_batch(store, X)
        assert np.allclose(trace.scores, swapped_scores, atol=1e-12)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(36)
        model, store = random_model(rng, n_vqcs=2)
        x = rng.uniform(0, np.pi, (1, model.config.n_features))
        first = model.forward_batch(store, x)
        second = model.forward_batch(store, x)
        assert np.array_equal(first.scores, second.scores)
        assert np.array_equal(first.probabilities, second.probabilities)

    def test_predict_is_argmax(self):
        rng = np.random.default_rng(37)
        model, store = random_model(rng)
        X = rng.uniform(0, np.pi, (6, model.config.n_features))
        trace = model.forward_batch(store, X)
        assert np.array_equal(model.predict_batch(store, X),
                              np.argmax(trace.probabilities, axis=1))

    def test_width_mismatch_rejected(self):
        model = MultiVqcModel(MultiVqcConfig(n_features=3))
        with pytest.raises(ConfigError):
            model.forward_batch(model.new_store(), np.zeros((2, 4)))

    def test_wrong_store_shape_rejected(self):
        model = MultiVqcModel(MultiVqcConfig(n_features=3, n_layers=2))
        bad = ParamStore((1,), values=np.zeros(1))
        with pytest.raises(ConfigError):
            model.forward_batch(bad, np.zeros((1, 3)))


class TestSoftmaxAndLoss:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(38)
        scores = rng.normal(size=(10, 2))
        probs = softmax(scores)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_stable_for_large_scores(self):
        probs = softmax(np.array([[1000.0, 999.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] > probs[0, 1]

    def test_equal_scores_give_half(self):
        assert np.allclose(softmax(np.array([[0.3, 0.3]])), [[0.5, 0.5]])

    def test_nll_weights_scale_loss(self):
        scores = np.array([[0.5, -0.5]])
        base = nll_from_scores(scores, [0], np.array([1.0, 1.0]))
        double = nll_from_scores(scores, [0], np.array([2.0, 1.0]))
        assert double[0] == pytest.approx(2.0 * base[0], rel=1e-12)


class TestSerialization:
    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(39)
        model, store = random_model(rng, n_vqcs=3)
        doc = model_to_json_dict(model.config, store)
        text = json.dumps(doc, sort_keys=True)
        model2, store2 = model_from_json_dict(json.loads(text))
        assert model2.config == model.config
        assert np.array_equal(store2.values, store.values)

    def test_round_trip_with_layer_tuple(self):
        cfg = MultiVqcConfig(n_features=3, n_vqcs=2, n_layers=(2, 1))
        store = MultiVqcModel(cfg).new_store(np.random.default_rng(2))
        doc = json.loads(json.dumps(model_to_json_dict(cfg, store)))
        model2, store2 = model_from_json_dict(doc)
        assert model2.config.n_layers == (2, 1)
        assert np.array_equal(store2.values, store.values)

    def test_format_tag_checked(self):
        with pytest.raises(ConfigError):
            model_from_json_dict({"format": "something/9", "config": {}})

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigError):
            model_from_json_dict({"format": MODEL_FORMAT, "config": {"n_features": 3},
                                  "param_counts": [1], "params": "oops"})

    def test_save_load_file(self, tmp_path):
        rng = np.random.default_rng(40)
        model, store = random_model(rng)
        path = tmp_path / "model.json"
        save_model(str(path), model.config, store)
        model2, store2 = load_model(str(path))
        assert model2.config == model.config
        assert np.array_equal(store2.values, store.values)

    def test_forward_identical_after_round_trip(self):
        rng = np.random.default_rng(41)
        model, store = random_model(rng, n_vqcs=2)
        doc = json.loads(json.dumps(model_to_json_dict(model.config, store)))
        model2, store2 = model_from_json_dict(doc)
        X = rng.uniform(0, np.pi, (3, model.config.n_features))
        assert np.array_equal(model.forward_batch(store, X).scores,
                              model2.forward_batch(store2, X).scores)

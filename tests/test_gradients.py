import itertools

import numpy as np
import pytest

from multivqc import core, gradients, model as model_module
from multivqc.core import GateKind, cnot, rotation
from multivqc.errors import NumericalError
from multivqc.gradients import (
    SHIFT,
    batch_loss,
    batch_loss_gradient,
    score_cotangent,
    stage_input_jacobian,
    stage_parameter_jacobian,
)
from multivqc.model import MultiVqcConfig, MultiVqcModel, softmax
from multivqc.params import ParamStore
from multivqc.templates import VqcConfig, build_vqc

import oracles
from test_core import random_gate_list


def random_chain(rng, n_vqcs=None):
    cfg = MultiVqcConfig(
        n_features=int(rng.integers(2, 4)),
        n_classes=2,
        n_vqcs=int(n_vqcs if n_vqcs is not None else rng.integers(1, 4)),
        encoding="RX" if rng.integers(0, 2) else "RY",
        ansatz="basic" if rng.integers(0, 2) else "strongly",
        n_layers=int(rng.integers(1, 3)),
        reuploading=bool(rng.integers(0, 2)),
    )
    model = MultiVqcModel(cfg)
    store = model.new_store(rng)
    X = rng.uniform(0.0, np.pi, size=(int(rng.integers(1, 4)), cfg.n_features))
    y = rng.integers(0, 2, size=X.shape[0])
    weights = rng.uniform(0.2, 1.8, size=2)
    return model, store, X, y, weights


class TestExpectationGradient:
    def test_single_ry_matches_minus_sine(self):
        gates = [rotation(GateKind.RY, 0, param_id=0)]
        for theta in np.linspace(-np.pi, np.pi, 9):
            grad = oracles.expectation_gradient(2, gates, np.array([theta]), None, 0)
            assert grad[0] == pytest.approx(-np.sin(theta), abs=1e-12)

    def test_stationary_at_zero(self):
        gates = [rotation(GateKind.RY, 0, param_id=0)]
        grad = oracles.expectation_gradient(2, gates, np.array([0.0]), None, 0)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_strongly_entangling_matches_finite_difference(self):
        rng = np.random.default_rng(50)
        cfg = VqcConfig(n_qubits=3, encoding="RY", ansatz="strongly", n_layers=2)
        gates, n_params = build_vqc(cfg)
        params = rng.uniform(0, 2 * np.pi, n_params)
        features = rng.uniform(0, np.pi, 3)

        for qubit in range(3):
            grad = oracles.expectation_gradient(3, gates, params, features, qubit)

            def expectation(values, q=qubit):
                state = oracles.oracle_state(3, gates, params=values,
                                             features=features)
                return oracles.oracle_z_expectation(state, q, 3)

            numeric = oracles.fd_gradient(expectation, params)
            assert np.max(np.abs(grad - numeric)) < 1e-6

    def test_unmeasured_unentangled_param_has_zero_gradient(self):
        # Qubit 1 never touches qubit 0 and is not measured, so its rotation
        # parameter cannot influence the readout.
        gates = [
            rotation(GateKind.RY, 0, feature_id=0),
            rotation(GateKind.RX, 1, param_id=0),
            rotation(GateKind.RY, 0, param_id=1),
        ]
        rng = np.random.default_rng(51)
        for _ in range(10):
            params = rng.uniform(0, 2 * np.pi, 2)
            features = rng.uniform(0, np.pi, 1)
            grad = oracles.expectation_gradient(2, gates, params, features, 0)
            assert abs(grad[0]) < 1e-12

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(52)
        cfg = VqcConfig(n_qubits=2, ansatz="strongly", n_layers=2)
        gates, n_params = build_vqc(cfg)
        params = rng.uniform(0, 2 * np.pi, n_params)
        features = rng.uniform(0, np.pi, 2)
        first = oracles.expectation_gradient(2, gates, params, features, 1)
        second = oracles.expectation_gradient(2, gates, params, features, 1)
        assert np.array_equal(first, second)


class TestScoreCotangent:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(53)
        scores = rng.normal(size=(12, 2))
        probs = softmax(scores)
        labels = rng.integers(0, 2, 12)
        weights = rng.uniform(0.1, 2.0, 2)
        cot = score_cotangent(probs, labels, weights)
        assert np.max(np.abs(cot.sum(axis=1))) < 1e-10

    def test_correct_sign_and_weighting(self):
        probs = np.array([[0.7, 0.3]])
        cot = score_cotangent(probs, np.array([0]), np.array([2.0, 1.0]))
        assert np.allclose(cot, [[2.0 * (0.7 - 1.0), 2.0 * 0.3]])


class TestLossGradient:
    def test_matches_finite_difference_across_chain_shapes(self):
        rng = np.random.default_rng(54)
        checked = 0
        for _ in range(30):
            model, store, X, y, weights = random_chain(rng)
            loss, grad = batch_loss_gradient(model, store, X, y, weights)
            numeric = oracles.fd_gradient(
                lambda values: batch_loss(model, ParamStore(store.counts, values),
                                          X, y, weights),
                store.values)
            assert np.max(np.abs(grad - numeric)) < 1e-6
            checked += 1
        assert checked == 30

    @pytest.mark.parametrize("n_vqcs", [1, 2, 3])
    def test_matches_independent_oracle_gradient(self, n_vqcs):
        rng = np.random.default_rng(55 + n_vqcs)
        model, store, X, y, weights = random_chain(rng, n_vqcs=n_vqcs)

        def loss_at(values):
            scores = oracles.oracle_chain_scores(
                model, ParamStore(store.counts, values), X)
            probs = oracles.oracle_softmax(scores)
            picked = probs[np.arange(len(y)), y]
            w = weights[np.asarray(y)]
            return float(np.mean(-w * np.log(picked)))

        loss, grad = batch_loss_gradient(model, store, X, y, weights)
        assert loss == pytest.approx(loss_at(store.values), abs=1e-10)
        numeric = oracles.fd_gradient(loss_at, store.values)
        assert np.max(np.abs(grad - numeric)) < 1e-6

    def test_single_vqc_composes_cotangent_with_circuit_gradients(self):
        rng = np.random.default_rng(58)
        model, store, X, y, weights = random_chain(rng, n_vqcs=1)
        x = X[:1]
        label = np.asarray(y[:1])
        loss, grad = batch_loss_gradient(model, store, x, label, weights)
        trace = model.forward_batch(store, x)
        cot = score_cotangent(trace.probabilities, label, weights)
        expected = np.zeros_like(grad)
        for c in range(2):
            per_class = oracles.expectation_gradient(
                model.config.n_features, model.stage_gates[0], store.values,
                x[0], c)
            expected += cot[0, c] * per_class
        assert np.allclose(grad, expected, atol=1e-10)

    def test_shared_score_direction_cancels_in_mirrored_batch(self):
        rng = np.random.default_rng(59)
        model, store, X, _, _ = random_chain(rng, n_vqcs=1)
        x = X[:1]
        both = np.vstack([x, x])
        labels = np.array([0, 1])
        equal_weights = np.array([1.0, 1.0])
        loss, grad = batch_loss_gradient(model, store, both, labels, equal_weights)
        trace = model.forward_batch(store, x)
        p0 = trace.probabilities[0, 0]
        per_class = [
            oracles.expectation_gradient(model.config.n_features, model.stage_gates[0],
                                         store.values, x[0], c)
            for c in range(2)
        ]
        # Summed cotangent is proportional to (1, -1): the shared direction
        # J0 + J1 drops out of the batch gradient entirely.
        expected = (p0 - 0.5) * (per_class[0] - per_class[1])
        assert np.allclose(grad, expected, atol=1e-10)

    def test_gradient_layout_matches_store(self):
        rng = np.random.default_rng(60)
        model, store, X, y, weights = random_chain(rng, n_vqcs=3)
        _, grad = batch_loss_gradient(model, store, X, y, weights)
        assert grad.shape == (store.total,)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(62)
        model, store, X, y, weights = random_chain(rng, n_vqcs=3)
        _, first = batch_loss_gradient(model, store, X, y, weights)
        _, second = batch_loss_gradient(model, store, X, y, weights)
        assert np.array_equal(first, second)

    def test_non_finite_parameters_raise_with_circuit_index(self):
        rng = np.random.default_rng(63)
        model, store, X, y, weights = random_chain(rng, n_vqcs=2)
        store.values[0] = np.nan
        with pytest.raises(NumericalError, match="circuit 0"):
            batch_loss_gradient(model, store, X, y, weights)

    def test_batch_loss_agrees_with_gradient_return(self):
        rng = np.random.default_rng(64)
        model, store, X, y, weights = random_chain(rng)
        loss_only = batch_loss(model, store, X, y, weights)
        loss_with_grad, _ = batch_loss_gradient(model, store, X, y, weights)
        assert loss_only == loss_with_grad


class TestStageJacobians:
    def test_parameter_jacobian_matches_per_parameter_shift(self):
        rng = np.random.default_rng(65)
        model, store, X, _, _ = random_chain(rng, n_vqcs=2)
        stage_params = store.slice_for(0).copy()
        jac = stage_parameter_jacobian(model, 0, X, stage_params)
        cfg = model.stages[0]

        def stage_expectations(values):
            amps = core.run_circuit_batch(cfg.n_qubits, model.stage_gates[0],
                                          params=values, features=X)
            return core.expectations_z_batch(amps, range(cfg.n_measured), cfg.n_qubits)

        for p in range(stage_params.shape[0]):
            up = stage_params.copy()
            up[p] += SHIFT
            down = stage_params.copy()
            down[p] -= SHIFT
            expected = 0.5 * (stage_expectations(up) - stage_expectations(down))
            assert np.allclose(jac[:, :, p], expected, atol=1e-13)

    def test_input_jacobian_matches_central_difference(self):
        # With reuploading each input angle feeds several gates, whose shifts
        # the Jacobian must sum.
        rng = np.random.default_rng(66)
        cfg = MultiVqcConfig(n_features=3, n_classes=2, n_vqcs=2, ansatz="strongly",
                             n_layers=2, reuploading=True)
        model = MultiVqcModel(cfg)
        store = model.new_store(rng)
        stage_inputs = [inputs for inputs, _, _ in
                        model.iter_stages(store, rng.uniform(0.0, np.pi, size=(4, 3)))]
        h = 1e-5
        for stage in range(2):
            inputs = stage_inputs[stage]
            stage_params = store.slice_for(stage)
            gates = model.stage_gates[stage]
            stage_cfg = model.stages[stage]
            assert sum(g.feature_id == 0 for g in gates) == 2
            jac = stage_input_jacobian(model, stage, inputs, stage_params)

            def stage_expectations(angles):
                amps = core.run_circuit_batch(stage_cfg.n_qubits, gates,
                                              params=stage_params, features=angles)
                return core.expectations_z_batch(amps, range(stage_cfg.n_measured),
                                                 stage_cfg.n_qubits)

            for f in range(3):
                step = np.zeros_like(inputs)
                step[:, f] = h
                expected = (stage_expectations(inputs + step)
                            - stage_expectations(inputs - step)) / (2 * h)
                assert np.max(np.abs(jac[:, :, f] - expected)) < 1e-8


class TestAdjointGradient:
    def test_matches_shift_rule_reference_across_shapes(self):
        # Every encoding x ansatz x reuploading x rescale x chain length,
        # with random feature, class, layer and batch counts per case.
        rng = np.random.default_rng(2009)
        worst = 0.0
        cases = list(itertools.product(("RX", "RY"), ("basic", "strongly"), (True, False),
                                       ("pi", "arccos", "identity"), (1, 2, 3)))
        for encoding, ansatz, reuploading, rescale, n_vqcs in cases:
            n_features = int(rng.integers(2, 7))
            n_classes = int(rng.integers(2, n_features + 1))
            cfg = MultiVqcConfig(
                n_features=n_features, n_classes=n_classes, n_vqcs=n_vqcs,
                encoding=encoding, ansatz=ansatz, n_layers=int(rng.integers(1, 3)),
                reuploading=reuploading, rescale=rescale,
            )
            model = MultiVqcModel(cfg)
            store = model.new_store(rng)
            X = rng.uniform(0.0, np.pi, size=(int(rng.integers(1, 17)), n_features))
            y = rng.integers(0, n_classes, size=X.shape[0])
            weights = rng.uniform(0.2, 1.8, size=n_classes)
            _, grad = batch_loss_gradient(model, store, X, y, weights)
            reference = oracles.shift_rule_loss_gradient(model, store, X, y, weights)
            worst = max(worst, float(np.max(np.abs(grad - reference))))
        assert len(cases) == 72
        assert worst < 1e-12

    def test_matches_shift_rule_reference_at_eight_qubits(self):
        rng = np.random.default_rng(2010)
        cfg = MultiVqcConfig(n_features=8, n_classes=3, n_vqcs=3, ansatz="strongly",
                             n_layers=2, rescale="arccos")
        model = MultiVqcModel(cfg)
        store = model.new_store(rng)
        X = rng.uniform(0.0, np.pi, size=(4, 8))
        y = rng.integers(0, 3, size=4)
        weights = rng.uniform(0.2, 1.8, size=3)
        _, grad = batch_loss_gradient(model, store, X, y, weights)
        reference = oracles.shift_rule_loss_gradient(model, store, X, y, weights)
        assert store.total == 144
        assert np.max(np.abs(grad - reference)) < 1e-12

    def test_one_circuit_run_per_stage_and_no_shifted_runs(self, monkeypatch):
        # Guards the work shape: the gradient reuses the forward states and
        # never falls back to O(parameters) shifted circuit runs. The model
        # runs its compiled tables, which return (state, expectations).
        rows = {"model": [], "gradients": [], "blocks": []}
        runners = {"model": (core.run_compiled, lambda out: out[1].shape[0]),
                   "gradients": (core.run_circuit_batch, lambda out: out.shape[0]),
                   "blocks": (gradients.run_circuit_blocks, lambda out: out.shape[0])}

        def counting(name):
            def wrapper(*args, **kwargs):
                runner, batch_of = runners[name]
                out = runner(*args, **kwargs)
                rows[name].append(batch_of(out))
                return out
            return wrapper

        monkeypatch.setattr(model_module, "run_compiled", counting("model"))
        monkeypatch.setattr(gradients, "run_circuit_batch", counting("gradients"))
        monkeypatch.setattr(gradients, "run_circuit_blocks", counting("blocks"))
        rng = np.random.default_rng(2011)
        model, store, X, y, weights = random_chain(rng, n_vqcs=3)
        batch_loss_gradient(model, store, X, y, weights)
        assert rows == {"model": [X.shape[0]] * 3, "gradients": [], "blocks": []}

    @staticmethod
    def count_per_gate_kernels(monkeypatch) -> list:
        calls = []

        def counting(kernel):
            def wrapper(*args, **kwargs):
                calls.append(kernel.__name__)
                return kernel(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(core, "apply_rotation_batch", counting(core.apply_rotation_batch))
        monkeypatch.setattr(core, "apply_cnot_batch", counting(core.apply_cnot_batch))
        return calls

    def test_forward_uses_no_per_gate_kernel_and_compiles_once(self, monkeypatch):
        # The forward runs compiled segments: the per-gate kernels are only
        # references, and a gate list seen before is not compiled again.
        calls = self.count_per_gate_kernels(monkeypatch)
        config = MultiVqcConfig(n_features=8, n_classes=2, n_vqcs=3, ansatz="strongly",
                                n_layers=2)
        rng = np.random.default_rng(2012)
        first = MultiVqcModel(config)
        store = first.new_store(rng)
        X = rng.uniform(0.0, np.pi, size=(5, 8))
        scores = first.forward_batch(store, X).scores
        assert calls == []
        misses = core._compile.cache_info().misses
        second = MultiVqcModel(config)
        assert np.array_equal(second.forward_batch(store, X).scores, scores)
        assert core._compile.cache_info().misses == misses

    def test_gradient_step_uses_no_per_gate_kernel_and_no_compile(self, monkeypatch):
        # The reverse sweep undoes whole segments on the table the model
        # compiled when it was built.
        calls = self.count_per_gate_kernels(monkeypatch)
        rng = np.random.default_rng(2013)
        model = MultiVqcModel(MultiVqcConfig(n_features=8, n_classes=2, n_vqcs=3,
                                             ansatz="strongly", n_layers=2))
        store = model.new_store(rng)
        X = rng.uniform(0.0, np.pi, size=(5, 8))
        misses = core._compile.cache_info().misses
        batch_loss_gradient(model, store, X, rng.integers(0, 2, size=5), np.ones(2))
        assert calls == []
        assert core._compile.cache_info().misses == misses

    def test_repeated_calls_of_one_shape_reuse_the_workspace(self):
        # Every kernel writes into one grow-only workspace: a second forward
        # or gradient step of a shape already seen allocates no new buffer.
        rng = np.random.default_rng(2014)
        model = MultiVqcModel(MultiVqcConfig(n_features=8, n_classes=2, n_vqcs=3,
                                             ansatz="strongly", n_layers=2))
        store = model.new_store(rng)
        X = rng.uniform(0.0, np.pi, size=(179, 8))
        y = rng.integers(0, 2, size=179)
        for step in (lambda: model.predict_batch(store, X),
                     lambda: batch_loss_gradient(model, store, X, y, np.ones(2))):
            step()
            buffer = core._WORKSPACE.buffer
            step()
            assert core._WORKSPACE.buffer is buffer

    @pytest.mark.parametrize("batch", [1, 3])
    def test_results_never_alias_the_workspace(self, batch, monkeypatch):
        # At batch 1 a transposed (2**n, 1) workspace view is already
        # contiguous, so only an explicit copy keeps a result out of it.
        rng = np.random.default_rng(2015 + batch)
        model = MultiVqcModel(MultiVqcConfig(n_features=3, n_classes=2, n_vqcs=3,
                                             ansatz="strongly", n_layers=2))
        store = model.new_store(rng)
        X = rng.uniform(0.0, np.pi, size=(batch, 3))
        y = rng.integers(0, 2, size=batch)
        gates = model.stage_gates[0]
        first = core.run_circuit_batch(3, gates, params=store.slice_for(0), features=X)
        kept = first.copy()
        core.run_circuit_batch(3, [rotation(GateKind.RY, 0, angle=0.3), cnot(0, 2)])
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, core._WORKSPACE.buffer)

        # Each state the gradient step keeps for its sweep is the forward's
        # state of that circuit, although later circuits and sweeps ran since.
        # A first step grows the workspace, so the references and the checked
        # step below all run in the buffer the check looks at.
        batch_loss_gradient(model, store, X, y, np.ones(2))
        inputs = [x for x, _, _ in model.iter_stages(store, X)]
        expected = [core.run_circuit_batch(3, model.stage_gates[k], params=store.slice_for(k),
                                           features=inputs[k]).T for k in range(3)]
        swept = []

        def checking(circuit, params, features, final, cotangent, input_gradient=True):
            k = 2 - len(swept)
            assert not np.shares_memory(final, core._WORKSPACE.buffer)
            swept.append(np.array_equal(final, expected[k]))
            grad, input_grad = core.adjoint_gradient(circuit, params, features, final,
                                                     cotangent, input_gradient)
            for out in (grad, input_grad):
                assert out is None or not np.shares_memory(out, core._WORKSPACE.buffer)
            return grad, input_grad

        monkeypatch.setattr(gradients, "adjoint_gradient", checking)
        batch_loss_gradient(model, store, X, y, np.ones(2))
        assert swept == [True, True, True]

    @pytest.mark.parametrize("n_qubits", range(1, 9))
    def test_random_gate_lists_match_shift_reference(self, n_qubits):
        # Segment shapes no template builds: CNOTs on any pair, CNOT runs
        # back to back, CNOT-only and CNOT-free lists, a list of fixed-angle
        # rotations only (nothing to differentiate, at 1 qubit too), one
        # param_id on two gates, and feature gates after parameter gates in
        # one chain, which sends the sweep through per-row suffixes. Every
        # n_measured and both input_gradient settings, against the shift rule.
        rng = np.random.default_rng(80 + n_qubits)
        RX, RY, RZ = GateKind.RX, GateKind.RY, GateKind.RZ
        last = n_qubits - 1
        qubits = range(n_qubits)
        circuits = [
            [rotation(RZ, last, param_id=0), rotation(RY, last, feature_id=1),
             rotation(RX, last, param_id=0), rotation(RY, last, param_id=2),
             rotation(RX, last, feature_id=0), rotation(RZ, 0, param_id=1)],
            [rotation(RY, q, param_id=q % 3) for q in range(n_qubits)]
            + [rotation(RX, 0, feature_id=2), rotation(RZ, 0, param_id=0)],
        ]
        if n_qubits > 1:
            circuits += [
                [cnot(0, last), cnot(last, 0)],
                [rotation(RY, 0, param_id=1), cnot(0, last), cnot(last, 0),
                 rotation(RX, last, feature_id=2), rotation(RZ, last, param_id=0),
                 cnot(last, 0), cnot(0, last), rotation(RY, 0, feature_id=0),
                 rotation(RX, 0, param_id=2), cnot(0, last)],
            ]
        circuits += [random_gate_list(rng, n_qubits, int(rng.integers(1, 30)), 3, 3)
                     for _ in range(6 if n_qubits < 7 else 3)]
        circuits.append([rotation(kind, q, angle=0.4 + q) for q in qubits for kind in (RX, RZ)])
        for gates in circuits:
            params = rng.uniform(-np.pi, 2 * np.pi, 3)
            X = rng.uniform(-np.pi, np.pi, size=(int(rng.integers(1, 5)), 3))
            final = core.run_circuit_batch(n_qubits, gates, params=params, features=X)
            jac_p = gradients._shift_jacobian(n_qubits, gates, params, X,
                                              [g.param_id for g in gates], 3, qubits)
            jac_x = gradients._shift_jacobian(n_qubits, gates, params, X,
                                              [g.feature_id for g in gates], 3, qubits)
            circuit = core._compile(n_qubits, tuple(gates))
            for n_measured in range(1, n_qubits + 1):
                cot = rng.normal(size=(X.shape[0], n_measured))
                for input_gradient in (False, True):
                    grad, input_grad = core.adjoint_gradient(circuit, params, X, final.T, cot,
                                                             input_gradient)
                    expected = np.einsum("bm,bmp->p", cot, jac_p[:, :n_measured])
                    assert np.max(np.abs(grad - expected)) < 1e-12
                    if input_gradient:
                        expected = np.einsum("bm,bmn->bn", cot, jac_x[:, :n_measured])
                        assert np.max(np.abs(input_grad - expected)) < 1e-12
                    else:
                        assert input_grad is None

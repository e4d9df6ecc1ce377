import concurrent.futures
import json
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from multivqc import training
from multivqc.errors import ConfigError, DataError
from multivqc.metrics import Metrics, evaluate
from multivqc.model import MultiVqcConfig, MultiVqcModel, Rescale, nll_from_scores
from multivqc.pipeline import Dataset, split
from multivqc.templates import Ansatz, Encoding
from multivqc.training import (
    Adam,
    ClassWeights,
    SWEEP_CSV_COLUMNS,
    SweepCell,
    SweepRow,
    TrainConfig,
    build_grid,
    cell_job,
    cell_seed,
    compute_class_weights,
    keep_best,
    rank_rows,
    run_cell,
    run_cells,
    select_layers,
    sweep_row_from_json,
    sweep_row_record,
    sweep_rows_to_json_dict,
    train,
    train_report_to_json_dict,
)


def angle_split(n=100, seed=4, split_seed=0):
    """Class 0 sits near (0, pi) in angle space, class 1 near (pi, 0), so
    the first readout qubit separates the classes once trained."""
    rng = np.random.default_rng(seed)
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    low = rng.uniform(0.05, 0.5, size=n)
    high = rng.uniform(2.6, 3.1, size=n)
    low2 = rng.uniform(0.05, 0.5, size=n)
    high2 = rng.uniform(2.6, 3.1, size=n)
    x0 = np.where(labels == 0, low, high)
    x1 = np.where(labels == 0, high2, low2)
    data = Dataset("angles", np.column_stack([x0, x1]), labels, ("a0", "a1"))
    return split(data, (0.6, 0.2, 0.2), seed=split_seed)


def cell_jobs(cells, data, tcfg):
    """One sweep job per grid cell, at the default rescale and at most 2 layers."""
    return [partial(cell_job, cell, data, tcfg, Rescale.PI, 2) for cell in cells]


def toy_config(n_vqcs=1, layers=1):
    return MultiVqcConfig(
        n_features=2, n_classes=2, n_vqcs=n_vqcs, encoding=Encoding.RY,
        ansatz=Ansatz.BASIC, n_layers=layers, reuploading=False,
        rescale=Rescale.PI,
    )


class TestClassWeights:
    def test_one_third_minority_weighted_by_majority_share(self):
        labels = np.array([0] * 203 + [1] * 96)
        weights = compute_class_weights(labels)
        assert weights.weight_class1 == pytest.approx(0.68, abs=0.005)
        assert weights.weight_class0 == pytest.approx(0.32, abs=0.005)
        assert weights.weight_class1 == pytest.approx(203 / 299, rel=1e-14)
        assert weights.weight_class0 == pytest.approx(96 / 299, rel=1e-14)

    def test_balanced_labels_get_half_each(self):
        weights = compute_class_weights(np.array([0, 1] * 25))
        assert weights.weight_class0 == 0.5
        assert weights.weight_class1 == 0.5

    def test_62_percent_positive_case(self):
        labels = np.array([0] * 38 + [1] * 62)
        weights = compute_class_weights(labels)
        assert weights.weight_class1 == pytest.approx(0.38, abs=1e-12)
        assert weights.weight_class0 == pytest.approx(0.62, abs=1e-12)

    def test_class_mass_equal_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            count0 = int(rng.integers(1, 500))
            count1 = int(rng.integers(1, 500))
            labels = np.array([0] * count0 + [1] * count1)
            weights = compute_class_weights(labels)
            assert weights.weight_class0 * count0 == weights.weight_class1 * count1
            assert weights.weight_class0 > 0.0
            assert weights.weight_class1 > 0.0

    def test_minority_class_weighted_heavier(self):
        weights = compute_class_weights(np.array([0] * 90 + [1] * 10))
        assert weights.weight_class1 > weights.weight_class0

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            compute_class_weights(np.zeros(10, dtype=int))


class TestWeightedLoss:
    # Scores log(p) make the softmax inside nll_from_scores return p itself.
    def test_even_probabilities_give_log_two(self):
        weights = ClassWeights(1.0, 1.0).as_array()
        loss = nll_from_scores(np.log([[0.5, 0.5]]), np.array([1]), weights)[0]
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_probability_floor_keeps_loss_finite(self):
        weights = ClassWeights(1.0, 1.0).as_array()
        eps = 1e-12
        loss = nll_from_scores(np.log([[eps, 1.0 - eps]]), np.array([0]), weights)[0]
        assert loss == pytest.approx(-np.log(1e-12), abs=1e-6)
        with np.errstate(divide="ignore"):
            scores = np.log([[1.0, 0.0]])
        zero = nll_from_scores(scores, np.array([1]), weights)[0]
        assert np.isfinite(zero)
        assert zero == pytest.approx(-np.log(1e-12), abs=1e-6)

    def test_loss_linear_in_weight(self):
        scores = np.log([[0.5, 0.5]])
        balanced = nll_from_scores(scores, np.array([0]), np.array([1.0, 1.0]))[0]
        weights = ClassWeights(0.68, 0.32).as_array()
        scaled = nll_from_scores(scores, np.array([0]), weights)[0]
        assert scaled == pytest.approx(0.68 * balanced, rel=1e-12)
        scaled1 = nll_from_scores(scores, np.array([1]), weights)[0]
        assert scaled1 == pytest.approx(0.32 * balanced, rel=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_epochs": 0},
        {"patience": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
        {"batch_size": 0},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_defaults_valid(self):
        tcfg = TrainConfig()
        assert tcfg.max_epochs >= 1 and tcfg.learning_rate > 0


class TestAdam:
    def test_zero_gradient_is_identity(self):
        adam = Adam(3, learning_rate=0.1)
        values = np.array([1.0, -2.0, 0.5])
        stepped = adam.step(values, np.zeros(3))
        assert np.array_equal(stepped, values)

    def test_first_step_moves_by_learning_rate(self):
        adam = Adam(2, learning_rate=0.05)
        values = np.zeros(2)
        stepped = adam.step(values, np.array([2.0, -0.3]))
        assert np.allclose(stepped, [-0.05, 0.05], atol=1e-6)

    def test_minimizes_quadratic(self):
        adam = Adam(1, learning_rate=0.1)
        x = np.array([0.0])
        for _ in range(500):
            x = adam.step(x, 2.0 * (x - 3.0))
        assert abs(x[0] - 3.0) < 0.05


def _rounds(losses, stops):
    """(loss, snapshot) rounds whose snapshot is the round's index. If the
    rule is to stop at the last loss, drawing one more round fails."""
    for index, loss in enumerate(losses):
        yield loss, index
    if stops:
        raise AssertionError("keep_best drew a round after it should have stopped")


NAN = float("nan")


class TestKeepBest:
    @pytest.mark.parametrize("losses, patience, expected", [
        # A tie is not an improvement and does not reset the streak.
        ([3.0, 2.0, 2.0, 2.0], 2, (1, 1, True)),
        # An improvement resets the streak.
        ([3.0, 2.0, 2.0, 1.0, 5.0], 2, (3, 3, False)),
        # The first of equal minima wins.
        ([2.0, 1.0, 4.0, 1.0, 5.0], 9, (1, 1, False)),
        # Stops exactly after `patience` bad rounds; nothing past them is drawn.
        ([1.0, 2.0, 3.0], 2, (0, 0, True)),
        ([5.0, 1.0, 2.0, 0.5, 0.7, 0.6, 0.9], 3, (3, 3, True)),
        ([1.0, NAN, NAN], 2, (0, 0, True)),
        # No round improves on infinity: the initial snapshot comes back.
        ([NAN, NAN, NAN], 5, (-1, "initial", False)),
        ([], 1, (-1, "initial", False)),
        # A stall that ends on the last round still reports stopped.
        ([1.0, 1.5, 1.2], 2, (0, 0, True)),
    ])
    def test_rule(self, losses, patience, expected):
        assert keep_best(_rounds(losses, expected[2]), patience, "initial") == expected


class TestTrain:
    def test_learns_separable_angles(self):
        parts = angle_split()
        tcfg = TrainConfig(max_epochs=30, patience=10, learning_rate=0.1,
                           batch_size=8, seed=0)
        report = train(toy_config(), parts, tcfg)
        best = report.epochs[report.best_epoch]
        assert best.train_metrics.f1 >= 0.9
        assert best.val_metrics.f1 >= 0.8

    def test_slow_descent_strictly_decreases_early(self):
        parts = angle_split()
        tcfg = TrainConfig(max_epochs=6, patience=20, learning_rate=0.02,
                           batch_size=8, seed=0)
        report = train(toy_config(), parts, tcfg)
        first = [r.train_loss for r in report.epochs[:6]]
        assert all(a > b for a, b in zip(first[:5], first[1:]))

    def test_same_seed_reproduces_bitwise(self):
        parts = angle_split()
        tcfg = TrainConfig(max_epochs=4, patience=10, learning_rate=0.1,
                           batch_size=8, seed=7)
        first = train(toy_config(), parts, tcfg)
        second = train(toy_config(), parts, tcfg)
        assert np.array_equal(first.final_params.values, second.final_params.values)
        assert first.best_epoch == second.best_epoch
        assert [r.val_loss for r in first.epochs] == [r.val_loss for r in second.epochs]

    def test_best_epoch_is_first_validation_minimum(self):
        parts = angle_split()
        tcfg = TrainConfig(max_epochs=12, patience=20, learning_rate=0.1,
                           batch_size=8, seed=3)
        report = train(toy_config(), parts, tcfg)
        val_losses = [r.val_loss for r in report.epochs]
        assert report.best_epoch == int(np.argmin(val_losses))
        assert report.best_val_loss == min(val_losses)

    def test_early_stop_bookkeeping(self):
        parts = angle_split()
        tcfg = TrainConfig(max_epochs=60, patience=3, learning_rate=0.3,
                           batch_size=30, seed=1)
        report = train(toy_config(), parts, tcfg)
        assert len(report.epochs) <= tcfg.max_epochs
        if report.stopped_early:
            assert len(report.epochs) == report.best_epoch + tcfg.patience + 1
            tail = [r.val_loss for r in report.epochs[report.best_epoch + 1:]]
            assert all(v >= report.best_val_loss for v in tail)
        else:
            assert len(report.epochs) == tcfg.max_epochs

    def test_epochs_are_contiguous_from_zero(self):
        parts = angle_split()
        tcfg = TrainConfig(max_epochs=5, patience=10, learning_rate=0.1,
                           batch_size=16, seed=2)
        report = train(toy_config(), parts, tcfg)
        assert [r.epoch for r in report.epochs] == list(range(len(report.epochs)))

    def test_feature_width_mismatch_rejected(self):
        parts = angle_split()
        wide = MultiVqcConfig(n_features=3, n_classes=2, n_vqcs=1,
                              encoding=Encoding.RY, ansatz=Ansatz.BASIC,
                              n_layers=1, reuploading=False, rescale=Rescale.PI)
        with pytest.raises(DataError):
            train(wide, parts, TrainConfig())

    def test_returned_params_belong_to_best_epoch(self):
        parts = angle_split()
        tcfg = TrainConfig(max_epochs=8, patience=20, learning_rate=0.15,
                           batch_size=8, seed=9)
        report = train(toy_config(), parts, tcfg)
        from multivqc.model import MultiVqcModel, nll_from_scores
        model = MultiVqcModel(toy_config())
        weights = compute_class_weights(parts.train.labels).as_array()
        trace = model.forward_batch(report.final_params, parts.validation.features)
        loss = float(nll_from_scores(trace.scores, parts.validation.labels,
                                     weights).mean())
        assert loss == pytest.approx(report.best_val_loss, abs=1e-12)


class TestSelectLayers:
    def test_search_bookkeeping(self):
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=3, patience=2, learning_rate=0.1,
                           batch_size=12, seed=2)
        report = select_layers(toy_config(), parts, tcfg, max_layers=5)
        assert report.tried_layer_counts[0] == 1
        assert list(report.tried_layer_counts) == list(
            range(1, len(report.tried_layer_counts) + 1))
        assert len(report.validation_losses) == len(report.tried_layer_counts)
        losses = np.array(report.validation_losses)
        assert report.chosen_layers == report.tried_layer_counts[int(np.argmin(losses))]
        assert report.best_report.best_val_loss == losses.min()

    def test_stops_after_stall_or_cap(self):
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=3, patience=2, learning_rate=0.1,
                           batch_size=12, seed=2)
        report = select_layers(toy_config(), parts, tcfg, max_layers=6)
        stall_limit = 2  # two features, so two qubits
        if "unimproved" in report.stop_reason:
            tail = report.validation_losses[-stall_limit:]
            best = min(report.validation_losses)
            assert all(v >= best for v in tail)
            assert len(report.tried_layer_counts) < 6 or report.chosen_layers <= 4
        else:
            assert len(report.tried_layer_counts) == 6

    def test_layer_cap_respected(self):
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=2, patience=2, learning_rate=0.1,
                           batch_size=12, seed=6)
        report = select_layers(toy_config(), parts, tcfg, max_layers=2)
        assert report.tried_layer_counts == (1, 2)
        assert report.chosen_layers in (1, 2)


class TestSweepGrid:
    def test_grid_size_and_index_order(self):
        grid = build_grid((4, 6))
        assert len(grid) == 2 * 3 * 2 * 2 * 2
        assert [cell.index for cell in grid] == list(range(len(grid)))

    def test_first_cells_follow_nesting_order(self):
        grid = build_grid((4,), (1, 2))
        assert grid[0] == SweepCell(0, 4, 1, Encoding.RX, Ansatz.BASIC, True)
        assert grid[1] == SweepCell(1, 4, 1, Encoding.RX, Ansatz.BASIC, False)
        assert grid[2] == SweepCell(2, 4, 1, Encoding.RX, Ansatz.STRONGLY, True)
        assert grid[4] == SweepCell(4, 4, 1, Encoding.RY, Ansatz.BASIC, True)
        assert grid[8] == SweepCell(8, 4, 2, Encoding.RX, Ansatz.BASIC, True)

    def test_feature_counts_vary_slowest(self):
        grid = build_grid((4, 6), (1,))
        assert all(cell.features == 4 for cell in grid[:8])
        assert all(cell.features == 6 for cell in grid[8:])

    def test_cell_seed_deterministic_and_distinct(self):
        assert cell_seed(7, 3) == cell_seed(7, 3)
        seeds = {cell_seed(0, i) for i in range(50)}
        assert len(seeds) == 50
        assert cell_seed(0, 1) != cell_seed(1, 1)
        assert 0 <= cell_seed(0, 0) < 2 ** 32


def make_row(cell, f1, n_params=10, n_vqcs=1, status="ok"):
    metrics = Metrics(f1, f1, f1)
    return SweepRow(
        cell=cell, model="multivqc", features=2, n_vqcs=n_vqcs, encoding="RY",
        ansatz="basic", reuploading=True, layers=1, n_params=n_params,
        val_loss=0.5 if status == "ok" else float("inf"),
        train=metrics, validation=metrics, test=metrics, status=status,
        error="" if status == "ok" else "boom",
    )


class TestSweepRows:
    def test_run_cell_success_path(self):
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=2, patience=1, learning_rate=0.1,
                           batch_size=12, seed=3)
        cell = SweepCell(5, 2, 1, Encoding.RY, Ansatz.BASIC, False)
        row = run_cell(cell, parts, tcfg, max_layers=2)
        assert row.status == "ok"
        assert row.cell == 5
        assert row.layers in (1, 2)
        assert row.n_params > 0
        assert np.isfinite(row.val_loss)
        assert len(row.val_curve) >= 1
        assert 0.0 <= row.validation.f1 <= 1.0
        model = MultiVqcModel(toy_config(layers=row.layers))
        store = select_layers(toy_config(), parts, replace(tcfg, seed=cell_seed(tcfg.seed, cell.index)),
                              max_layers=2).best_report.final_params
        assert (row.train, row.validation) == tuple(
            evaluate(model.predict_batch(store, part.features), part.labels)
            for part in (parts.train, parts.validation))

    def test_run_cell_failure_captured_in_row(self):
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=2, patience=1, learning_rate=0.1,
                           batch_size=12, seed=3)
        cell = SweepCell(9, 3, 1, Encoding.RY, Ansatz.BASIC, False)
        row = run_cell(cell, parts, tcfg, max_layers=2)
        assert row.status == "failed"
        assert row.error != ""
        assert row.layers is None
        assert row.val_loss == float("inf")

    def test_run_cells_parallel_matches_serial(self):
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=2, patience=1, learning_rate=0.1,
                           batch_size=12, seed=3)
        cells = build_grid((2,), (1,))[:4]
        serial = run_cells(cell_jobs(cells, parts, tcfg), max_workers=1)
        parallel = run_cells(cell_jobs(cells, parts, tcfg), max_workers=2)
        assert serial == parallel
        assert [row.cell for row in serial] == [cell.index for cell in cells]

    def test_run_cells_pool_is_capped_at_usable_cpus_and_pending_cells(self, monkeypatch,
                                                                        capsys):
        # A stand-in pool records its size and maps serially: no process starts.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return map(func, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=2, patience=1, learning_rate=0.1,
                           batch_size=12, seed=3)
        cells = build_grid((2,), (1,))[:3]
        serial = run_cells(cell_jobs(cells, parts, tcfg), max_workers=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run_cells(cell_jobs(cells, parts, tcfg), max_workers=5000) == serial
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sweep.workers=5000 capped at 2" in err
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert run_cells(cell_jobs(cells, parts, tcfg), max_workers=5000) == serial
        assert capsys.readouterr().err == ""
        assert sizes == [2, 3]

    def test_rank_rows_orders_by_f1_then_size(self):
        rows = [
            make_row(0, 0.8),
            make_row(1, 0.9),
            make_row(2, 0.0, status="failed"),
            make_row(3, 0.9, n_params=5),
            make_row(4, 0.9, n_params=5, n_vqcs=2),
        ]
        ranked = rank_rows(rows)
        assert [row.cell for row in ranked] == [3, 4, 1, 0, 2]
        assert ranked[-1].status == "failed"

    def test_record_columns_match_csv_header(self):
        record = sweep_row_record(1, make_row(0, 0.75))
        assert tuple(record.keys()) == SWEEP_CSV_COLUMNS

    def test_record_blanks_missing_values(self):
        record = sweep_row_record(2, make_row(1, 0.0, status="failed"))
        assert record["val_loss"] == ""
        none_row = SweepRow(
            cell=0, model="baseline", features=2, n_vqcs=None, encoding=None,
            ansatz=None, reuploading=None, layers=None, n_params=3,
            val_loss=0.4, train=Metrics(1, 1, 1), validation=Metrics(1, 1, 1),
            test=Metrics(1, 1, 1), status="ok",
        )
        record = sweep_row_record(3, none_row)
        assert record["n_vqcs"] == ""
        assert record["encoding"] == ""
        assert record["layers"] == ""

    def test_json_round_trip_restores_rows(self):
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=2, patience=1, learning_rate=0.1,
                           batch_size=12, seed=3)
        cells = build_grid((2,), (1,))[:2]
        rows = run_cells(cell_jobs(cells, parts, tcfg))
        # A failed row, and a row whose test metrics hit the 0/0 convention.
        rows.append(run_cell(SweepCell(9, 3, 1, Encoding.RY, Ansatz.BASIC, False), parts, tcfg,
                             max_layers=2))
        rows.append(replace(rows[0], cell=10, test=evaluate(np.zeros(4, dtype=np.int64),
                                                            np.array([0, 1, 0, 1]))))
        assert rows[2].status == "failed" and rows[3].test.precision == 0.0
        payload = json.loads(json.dumps(sweep_rows_to_json_dict(rows, base_seed=3)))
        assert payload["format"] == "multivqc-sweep/1"
        assert payload["seed"] == 3
        restored = sorted((sweep_row_from_json(r) for r in payload["rows"]),
                          key=lambda r: r.cell)
        assert restored == sorted(rows, key=lambda r: r.cell)

    def test_from_json_rejects_unreadable_records(self):
        record = json.loads(json.dumps(
            sweep_rows_to_json_dict([make_row(0, 0.5)], base_seed=0)["rows"][0]))
        assert sweep_row_from_json(record) == make_row(0, 0.5)
        for key in ("cell", "error", "val_curve"):
            with pytest.raises(ConfigError):
                sweep_row_from_json({k: v for k, v in record.items() if k != key})
        for bad in (None, [1, 2], {**record, "layers": "x"},
                    {**record, "reuploading": "false"}, {**record, "reuploading": 1},
                    {**record, "n_vqcs": 1.7}, {**record, "status": 7}):
            with pytest.raises(ConfigError):
                sweep_row_from_json(bad)

    def test_ranks_start_at_one(self):
        payload = sweep_rows_to_json_dict([make_row(0, 0.5), make_row(1, 0.7)],
                                          base_seed=0)
        assert [r["rank"] for r in payload["rows"]] == [1, 2]
        assert payload["rows"][0]["cell"] == 1


class TestTrainReportJson:
    def test_report_serialization_shape(self):
        parts = angle_split(n=60)
        tcfg = TrainConfig(max_epochs=3, patience=5, learning_rate=0.1,
                           batch_size=12, seed=4)
        config = toy_config()
        weights = compute_class_weights(parts.train.labels)
        report = train(config, parts, tcfg)
        payload = json.loads(json.dumps(
            train_report_to_json_dict(report, config, tcfg, weights)))
        assert payload["format"] == "multivqc-train-report/1"
        assert payload["model_config"]["n_features"] == 2
        assert payload["train_config"]["seed"] == 4
        assert payload["best_epoch"] == report.best_epoch
        assert len(payload["epochs"]) == len(report.epochs)
        first = payload["epochs"][0]
        assert {"epoch", "train_loss", "val_loss", "train_f1", "val_f1"} <= set(first)
        assert payload["class_weights"] == [weights.weight_class0,
                                            weights.weight_class1]

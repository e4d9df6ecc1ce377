import json

import numpy as np
import pytest

from multivqc.core import GateKind, expectations_z_batch, rotation, run_circuit_batch
from multivqc.errors import ConfigError, DataError, PipelineStateError
from multivqc.pipeline import (
    ANGLE_RANGES,
    Dataset,
    Pipeline,
    _to_range,
    explained_variance_table,
    fit_pca,
    load_csv,
    load_schema,
    split,
    transform_pca,
)

import oracles


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC_SCHEMA = {"name": "toy", "label_column": "label"}


class TestLoadCsv:
    def test_reads_features_and_labels(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv",
                         "a,b,label\n1.5,2.0,1.0\n3.0,4.5,0\n")
        data = load_csv(path, BASIC_SCHEMA)
        assert data.feature_names == ("a", "b")
        assert np.array_equal(data.features, [[1.5, 2.0], [3.0, 4.5]])
        assert np.array_equal(data.labels, [1, 0])

    def test_label_mapping_applied(self, tmp_path):
        path = write_csv(tmp_path / "mapped.csv",
                         "x,diag\n1.0,M\n2.0,B\n3.0,M\n")
        schema = {"name": "m", "label_column": "diag",
                  "label_mapping": {"M": 1, "B": 0}}
        data = load_csv(path, schema)
        assert np.array_equal(data.labels, [1, 0, 1])

    def test_unmapped_label_fails_with_row_number(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "x,diag\n1.0,M\n2.0,Q\n")
        schema = {"name": "m", "label_column": "diag",
                  "label_mapping": {"M": 1, "B": 0}}
        with pytest.raises(DataError, match=":3"):
            load_csv(path, schema)

    def test_drop_columns_removed(self, tmp_path):
        path = write_csv(tmp_path / "withid.csv",
                         "id,x,label\n7,1.0,0\n8,2.0,1\n")
        schema = {"name": "d", "label_column": "label", "drop_columns": ["id"]}
        data = load_csv(path, schema)
        assert data.feature_names == ("x",)

    @pytest.mark.parametrize("label", ["0.6", "1.9", "2", "inf"])
    def test_label_other_than_0_or_1_fails_with_row_number(self, tmp_path, label):
        path = write_csv(tmp_path / "toy.csv", f"a,label\n1.0,0\n2.0,{label}\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(path, BASIC_SCHEMA)

    def test_parse_failure_reports_row(self, tmp_path):
        path = write_csv(tmp_path / "broken.csv", "a,label\n1.0,0\nnope,1\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(path, BASIC_SCHEMA)

    def test_short_row_reports_row(self, tmp_path):
        path = write_csv(tmp_path / "short.csv", "a,b,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(path, BASIC_SCHEMA)

    def test_missing_label_column_fails(self, tmp_path):
        path = write_csv(tmp_path / "nolabel.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path, BASIC_SCHEMA)

    def test_missing_file_fails(self):
        with pytest.raises(DataError):
            load_csv("/definitely/not/here.csv", BASIC_SCHEMA)

    def test_profile_mismatch_warns_not_fails(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", "a,label\n1,0\n2,1\n")
        schema = dict(BASIC_SCHEMA, expected_rows=50, expected_class1=30,
                      expected_features=4)
        with pytest.warns(UserWarning):
            data = load_csv(path, schema)
        assert data.n_samples == 2

    def test_misspelled_schema_key_is_refused(self, tmp_path):
        path = write_csv(tmp_path / "withid.csv", "id,x,label\n7,1.0,0\n8,2.0,1\n")
        with pytest.raises(ConfigError, match="'drop_column'"):
            load_csv(path, dict(BASIC_SCHEMA, drop_column=["id"]))

    def test_schema_file_round_trip(self, tmp_path):
        schema_path = tmp_path / "toy.schema.json"
        schema_path.write_text(json.dumps(BASIC_SCHEMA), encoding="utf-8")
        assert load_schema(str(schema_path))["label_column"] == "label"

    def test_schema_missing_keys_rejected(self, tmp_path):
        schema_path = tmp_path / "bad.schema.json"
        schema_path.write_text(json.dumps({"name": "x"}), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_schema(str(schema_path))


def scaling_step(train, values):
    """``values`` through the scaling step of a Pipeline fitted on ``train``."""
    scaler = Pipeline(n_components=1).fit(train).fitted["scaler"]
    return _to_range(np.asarray(values)[:, scaler["kept"]], scaler["mins"],
                     scaler["maxs"], 0.0, 1.0)


class TestMinMaxScaler:
    """Pipeline's min-max scaling step: the range map onto [0, 1]."""

    def test_affine_map_to_unit_interval(self):
        column = np.array([[2.0], [4.0], [6.0]])
        out = scaling_step(column, column)
        assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_unit_range_column_unchanged(self):
        column = np.array([[0.0], [0.25], [1.0]])
        assert np.allclose(scaling_step(column, column), column)

    def test_out_of_range_values_clipped(self):
        out = scaling_step(np.array([[0.0], [10.0]]), np.array([[-5.0], [15.0]]))
        assert np.array_equal(out[:, 0], [0.0, 1.0])

    def test_constant_column_dropped_with_warning(self):
        train = np.array([[1.0, 3.0], [1.0, 5.0]])
        with pytest.warns(UserWarning, match="constant"):
            out = scaling_step(train, train)
        assert out.shape == (2, 1)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(PipelineStateError):
            Pipeline(n_components=1).transform(np.zeros((2, 2)))


class TestFitPca:
    def test_diagonal_line_recovers_direction(self):
        rng = np.random.default_rng(80)
        t = rng.normal(size=400)
        points = np.column_stack([t, t]) + 0.01 * rng.normal(size=(400, 2))
        model = fit_pca(points, 1)
        direction = model.components[0]
        assert np.allclose(np.abs(direction), [np.sqrt(0.5), np.sqrt(0.5)], atol=0.02)
        assert model.explained_variance_ratio[0] > 0.99

    def test_isotropic_sample_spreads_ratios(self):
        rng = np.random.default_rng(81)
        sample = rng.normal(size=(4000, 4))
        model = fit_pca(sample, 4)
        assert np.allclose(model.explained_variance_ratio, 0.25, atol=0.03)

    def test_sign_convention_dominant_entry_positive(self):
        rng = np.random.default_rng(82)
        sample = rng.normal(size=(50, 5)) @ rng.normal(size=(5, 5))
        model = fit_pca(sample, 5)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(83)
        sample = rng.normal(size=(60, 6))
        model = fit_pca(sample, 6)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_ratios_nonincreasing_bounded(self):
        rng = np.random.default_rng(84)
        sample = rng.normal(size=(80, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        model = fit_pca(sample, 5)
        ratios = model.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-12)
        assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0)
        assert ratios.sum() <= 1.0 + 1e-10

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(85)
        for _ in range(10):
            sample = rng.normal(size=(40, 4)) @ rng.normal(size=(4, 4))
            model = fit_pca(sample, 4)
            mean, ref_components, ref_ratios = oracles.eigh_pca(sample, 4)
            assert np.allclose(model.mean, mean, atol=1e-12)
            assert np.allclose(model.explained_variance_ratio, ref_ratios,
                               atol=1e-8)
            for ours, theirs in zip(model.components, ref_components):
                fixed = theirs if theirs[np.argmax(np.abs(theirs))] > 0 else -theirs
                assert np.allclose(ours, fixed, atol=1e-8)

    def test_repeated_eigenvalues_still_orthonormal(self):
        rng = np.random.default_rng(86)
        base = rng.normal(size=(300, 2))
        sample = np.column_stack([base, base @ np.array([[0, -1], [1, 0]])])
        model = fit_pca(sample, 4)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_component_count_range_enforced(self):
        sample = np.random.default_rng(87).normal(size=(10, 3))
        with pytest.raises(ConfigError):
            fit_pca(sample, 0)
        with pytest.raises(ConfigError):
            fit_pca(sample, 4)

    def test_too_few_samples_rejected(self):
        sample = np.random.default_rng(88).normal(size=(3, 3))
        with pytest.raises(DataError):
            fit_pca(sample, 3)

    def test_all_constant_features_rejected(self):
        with pytest.raises(DataError):
            fit_pca(np.ones((10, 2)), 1)


class TestTransformPca:
    def test_mean_row_maps_to_zero(self):
        rng = np.random.default_rng(89)
        sample = rng.normal(size=(30, 3))
        model = fit_pca(sample, 3)
        out = transform_pca(model, model.mean[None, :])
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_axis_aligned_data_round_trips(self):
        rng = np.random.default_rng(90)
        sample = rng.normal(size=(200, 3)) * np.array([5.0, 2.0, 1.0])
        model = fit_pca(sample, 3)
        projected = transform_pca(model, sample)
        reconstructed = projected @ model.components + model.mean
        assert np.max(np.abs(reconstructed - sample)) < 1e-8

    def test_full_rank_reconstruction_error_small(self):
        rng = np.random.default_rng(91)
        sample = rng.normal(size=(50, 6)) @ rng.normal(size=(6, 6))
        model = fit_pca(sample, 6)
        projected = transform_pca(model, sample)
        reconstructed = projected @ model.components + model.mean
        assert np.max(np.abs(reconstructed - sample)) < 1e-8

    def test_width_mismatch_rejected(self):
        model = fit_pca(np.random.default_rng(92).normal(size=(20, 3)), 2)
        with pytest.raises(DataError):
            transform_pca(model, np.zeros((2, 4)))

    def test_variance_table_cumulative_nondecreasing(self):
        rng = np.random.default_rng(93)
        sample = rng.normal(size=(60, 5)) * np.array([3, 2, 1, 1, 0.2])
        table = explained_variance_table(sample)
        assert table.shape == (5, 2)
        assert np.all(np.diff(table[:, 1]) >= -1e-12)
        assert table[-1, 1] == pytest.approx(1.0, abs=1e-10)


class TestAngleEncoder:
    """Pipeline's encoding step: the range map onto an angle range."""

    def test_span_maps_to_range_endpoints(self):
        out = _to_range(np.array([[-3.0], [5.0], [1.0]]), np.array([-3.0]),
                        np.array([5.0]), *ANGLE_RANGES["0_pi"])
        assert out[0, 0] == pytest.approx(0.0)
        assert out[1, 0] == pytest.approx(np.pi)
        assert out[2, 0] == pytest.approx(np.pi / 2.0)

    def test_constant_column_maps_to_midpoint(self):
        out = _to_range(np.array([[2.5], [9.0]]), np.array([2.5]), np.array([2.5]),
                        *ANGLE_RANGES["0_pi"])
        assert np.allclose(out[:, 0], np.pi / 2.0)

    def test_out_of_range_clipped(self):
        out = _to_range(np.array([[-2.0], [3.0]]), np.array([0.0]), np.array([1.0]),
                        *ANGLE_RANGES["0_pi"])
        assert out[0, 0] == 0.0
        assert out[1, 0] == pytest.approx(np.pi)

    @pytest.mark.parametrize("range_name", sorted(ANGLE_RANGES))
    def test_named_ranges_hit_their_endpoints(self, range_name):
        low, high = ANGLE_RANGES[range_name]
        train = np.random.default_rng(97).normal(size=(20, 3))
        out = Pipeline(n_components=1, angle_range=(low, high)).fit(train).transform(train)
        assert out.min() == pytest.approx(low)
        assert out.max() == pytest.approx(high)

    def test_zero_angle_leaves_qubit_in_ground_state(self):
        angle = _to_range(np.array([[0.0]]), np.array([0.0]), np.array([1.0]),
                          *ANGLE_RANGES["0_pi"])[0, 0]
        gates = [rotation(GateKind.RX, 0, feature_id=0)]
        amps = run_circuit_batch(2, gates, features=np.array([[angle]]))
        assert expectations_z_batch(amps, [0], 2)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigError):
            Pipeline(n_components=1, angle_range=(np.pi, 0.0))


class TestPipeline:
    def test_out_of_order_fitting_rejected(self):
        pipe = Pipeline(n_components=2)
        with pytest.raises(PipelineStateError):
            pipe.transform(np.zeros((1, 3)))

    def test_fit_transform_stays_in_angle_range(self):
        rng = np.random.default_rng(94)
        train = rng.normal(size=(50, 4))
        pipe = Pipeline(n_components=2).fit(train)
        out = pipe.transform(rng.normal(size=(20, 4)) * 3.0)
        assert out.shape == (20, 2)
        assert np.all(out >= 0.0) and np.all(out <= np.pi)

    def test_train_statistics_only_leakage_guard(self):
        rng = np.random.default_rng(95)
        train = rng.normal(size=(40, 3))
        test = rng.normal(size=(10, 3)) + 8.0  # far outside the train range
        fitted_on_train = Pipeline(n_components=2).fit(train)
        fitted_with_test = Pipeline(n_components=2).fit(np.vstack([train, test]))
        probe = train[:5]
        a = fitted_on_train.transform(probe)
        b = fitted_with_test.transform(probe)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_json_round_trip_preserves_transform_exactly(self):
        rng = np.random.default_rng(96)
        train = rng.normal(size=(30, 4))
        pipe = Pipeline(n_components=3).fit(train)
        payload = json.loads(json.dumps(pipe.to_json_dict()))
        restored = Pipeline.from_json_dict(payload)
        probe = rng.normal(size=(8, 4))
        assert np.array_equal(pipe.transform(probe), restored.transform(probe))

    def test_json_layout_is_pinned(self):
        rng = np.random.default_rng(98)
        train = np.column_stack([rng.normal(size=(30, 4)), np.ones(30)])
        with pytest.warns(UserWarning, match="constant"):
            pipe = Pipeline(n_components=3, angle_range=(-1.0, 2.0)).fit(train)
        payload = pipe.to_json_dict()
        assert list(payload) == ["format", "n_components", "angle_range",
                                 "scaler", "pca", "encoder"]
        assert payload["format"] == "multivqc-pipeline/1"
        assert payload["n_components"] == 3
        assert payload["angle_range"] == [-1.0, 2.0]
        lengths = {section: {name: len(values) for name, values in payload[section].items()}
                   for section in ("scaler", "pca", "encoder")}
        assert lengths == {
            "scaler": {"mins": 4, "maxs": 4, "kept": 5},
            "pca": {"mean": 4, "components": 3, "explained_variance_ratio": 3},
            "encoder": {"mins": 3, "maxs": 3},
        }
        assert [len(row) for row in payload["pca"]["components"]] == [4, 4, 4]
        text = json.dumps(payload)
        assert json.dumps(Pipeline.from_json_dict(json.loads(text)).to_json_dict()) == text

    def test_unfitted_pipeline_not_serializable(self):
        with pytest.raises(PipelineStateError):
            Pipeline(n_components=2).to_json_dict()

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(ConfigError):
            Pipeline.from_json_dict({"format": "other/1"})


def toy_dataset(n=100, positives=62, seed=7):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=int)
    labels[:positives] = 1
    labels = labels[rng.permutation(n)]
    features = rng.normal(size=(n, 3))
    return Dataset("toy", features, labels, ("f0", "f1", "f2"))


class TestSplit:
    def test_sizes_and_stratification(self):
        data = toy_dataset()
        parts = split(data, (0.6, 0.2, 0.2), seed=0)
        assert parts.train.n_samples == 60
        assert parts.validation.n_samples == 20
        assert parts.test.n_samples == 20
        assert parts.train.class_counts()[1] in (37, 38)
        assert parts.validation.class_counts()[1] in (12, 13)
        assert parts.test.class_counts()[1] in (12, 13)

    def test_partition_disjoint_and_exhaustive(self):
        data = toy_dataset()
        parts = split(data, (0.6, 0.2, 0.2), seed=3)
        stacked = np.vstack([parts.train.features, parts.validation.features,
                             parts.test.features])
        assert stacked.shape[0] == data.n_samples
        seen = {tuple(row) for row in stacked}
        assert len(seen) == data.n_samples

    def test_same_seed_identical_membership(self):
        data = toy_dataset()
        a = split(data, (0.6, 0.2, 0.2), seed=11)
        b = split(data, (0.6, 0.2, 0.2), seed=11)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_different_seed_changes_membership(self):
        data = toy_dataset()
        a = split(data, (0.6, 0.2, 0.2), seed=1)
        b = split(data, (0.6, 0.2, 0.2), seed=2)
        assert not np.array_equal(a.train.features, b.train.features)

    def test_zero_fraction_rejected(self):
        with pytest.raises(ConfigError):
            split(toy_dataset(), (0.5, 0.5, 0.0), seed=0)

    def test_non_unit_sum_rejected(self):
        with pytest.raises(ConfigError):
            split(toy_dataset(), (0.6, 0.2, 0.3), seed=0)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(9)
        data = Dataset("one", rng.normal(size=(20, 2)), np.ones(20, dtype=int),
                       ("a", "b"))
        with pytest.raises(DataError):
            split(data, (0.6, 0.2, 0.2), seed=0)

    def test_tiny_minority_rejected_when_split_cannot_hold_it(self):
        rng = np.random.default_rng(10)
        labels = np.zeros(30, dtype=int)
        labels[0] = 1
        data = Dataset("tiny", rng.normal(size=(30, 2)), labels, ("a", "b"))
        with pytest.raises(DataError):
            split(data, (0.6, 0.2, 0.2), seed=0)

    def test_per_class_proportion_within_one_sample(self):
        data = toy_dataset(n=97, positives=41)
        parts = split(data, (0.6, 0.2, 0.2), seed=5)
        for frac, part in zip((0.6, 0.2, 0.2),
                              (parts.train, parts.validation, parts.test)):
            ideal = 41 * frac
            assert abs(part.class_counts()[1] - ideal) <= 1.0

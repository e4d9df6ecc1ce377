import csv
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from multivqc import cli, training
from multivqc.cli import (
    DEFAULT_CONFIG,
    LEAVES,
    OUTPUT_DIR_ENV,
    load_run_config,
    main,
    parse_overrides,
)
from multivqc.errors import ConfigError, NumericalError
from multivqc.model import (
    MODEL_LEAVES,
    MultiVqcConfig,
    MultiVqcModel,
    model_from_json_dict,
    save_model,
)
from multivqc.pipeline import PIPELINE_LEAVES, SCHEMA_LEAVES, Pipeline

BUNDLED = Path(cli.__file__).parent / "bundled"

FAST_TRAIN = [
    "--n-components=2",
    "--train.max-epochs=3",
    "--train.patience=3",
    "--train.learning-rate=0.1",
]

# Its best epoch (3 of 0-5) is neither the first nor the last.
MIDDLE_BEST_TRAIN = [
    "--dataset=diabetes",
    "--model.n-vqcs=2",
    "--model.ansatz=strongly",
    "--train.patience=2",
    "--train.learning-rate=0.1",
]

FAST_SWEEP = [
    "--sweep.feature-counts=[2]",
    "--sweep.vqc-counts=[1]",
    "--sweep.max-layers=2",
    "--train.max-epochs=2",
    "--train.patience=1",
    "--train.learning-rate=0.1",
]


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    target = tmp_path / "out"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    monkeypatch.delenv("MULTIVQC_DATA_DIR", raising=False)
    return target


# One value of each JSON type, plus the numbers no leaf accepts. JSON reads
# NaN and 1e400 as float NaN and infinity.
WRONG_VALUES = {"string": "x", "bool": True, "null": None, "list": [1],
                "object": {"a": 1}, "400-digit int": 10 ** 400,
                "NaN": float("nan"), "1e400": float("inf")}


def _rejects(check, name, value) -> bool:
    try:
        check(name, value)
    except ConfigError:
        return True
    return False


# Every (leaf, wrong value) pair that the leaf's own check rejects, so a new
# leaf in cli.LEAVES is covered without a test edit.
REJECTED_LEAF_VALUES = [
    pytest.param(path, value, id=f"{path}={label}")
    for path, (_, check) in LEAVES.items()
    for label, value in WRONG_VALUES.items() if _rejects(check, path, value)
]
# The same pairs for the leaf tables of the two saved documents eval reads,
# each with the reader that checks it.
SAVED_DOCUMENTS = {"model.json": (MODEL_LEAVES, model_from_json_dict),
                   "pipeline.json": (PIPELINE_LEAVES, Pipeline.from_json_dict)}
SAVED_LEAVES = [pytest.param(name, path, id=f"{name}:{path}")
                for name, (table, _) in SAVED_DOCUMENTS.items() for path in table]
REJECTED_SAVED_VALUES = [
    pytest.param(name, path, value, id=f"{name}:{path}={label}")
    for name, (table, _) in SAVED_DOCUMENTS.items() for path, check in table.items()
    for label, value in WRONG_VALUES.items() if _rejects(check, path, value)
]
REJECTED_SCHEMA_VALUES = [
    pytest.param(key, value, id=f"{key}={label}")
    for key, check in SCHEMA_LEAVES.items()
    for label, value in WRONG_VALUES.items() if _rejects(check, key, value)
]


def _with_leaf(payload: dict, path: str, value) -> dict:
    """A copy of ``payload`` with the leaf at the dotted ``path`` set to ``value``."""
    payload = json.loads(json.dumps(payload))
    *sections, key = path.split(".")
    node = payload
    for section in sections:
        node = node[section]
    node[key] = value
    return payload


def _nested(path: str, value) -> dict:
    """{"a": {"b": value}} for the dotted path "a.b"."""
    *sections, key = path.split(".")
    node = {key: value}
    for section in reversed(sections):
        node = {section: node}
    return node


def _assert_one_error_line(captured, *names: str) -> None:
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "Traceback" not in captured.err + captured.out
    assert all(name in lines[0] for name in names), lines[0]


def _prostate_schema_with(**edits) -> list:
    """pca-report argv on the bundled prostate CSV, ending in the ``edits``
    that ``_write_prostate_schema`` turns into a schema path."""
    return ["pca-report", f"--dataset={BUNDLED / 'prostate.csv'}", "--schema", edits]


def _write_prostate_schema(tmp_path, edits: dict) -> str:
    schema = json.loads((BUNDLED / "prostate.schema.json").read_text()) | edits
    path = tmp_path / "edited.schema.json"
    path.write_text(json.dumps(schema), encoding="utf-8")
    return str(path)


class TestOverrideParsing:
    def test_space_separated_value(self):
        parsed = parse_overrides(["--train.learning-rate", "0.05"])
        assert parsed == {"train": {"learning_rate": 0.05}}

    def test_equals_form_and_int(self):
        assert parse_overrides(["--model.n-vqcs=3"]) == {"model": {"n_vqcs": 3}}

    def test_plain_string_value(self):
        assert parse_overrides(["--dataset", "diabetes"]) == {"dataset": "diabetes"}

    def test_json_bool_and_list(self):
        parsed = parse_overrides(["--model.reuploading=false",
                                  "--sweep.feature-counts=[2,3]"])
        assert parsed["model"]["reuploading"] is False
        assert parsed["sweep"]["feature_counts"] == [2, 3]

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_overrides(["--train.seed"])

    def test_positional_token_rejected(self):
        with pytest.raises(ConfigError):
            parse_overrides(["seed=3"])

    def test_empty_key_segment_rejected(self):
        with pytest.raises(ConfigError):
            parse_overrides(["--train..seed=1"])


class TestRunConfig:
    def test_defaults_returned_without_inputs(self):
        config = load_run_config(None, [])
        assert config == DEFAULT_CONFIG

    def test_defaults_are_plain_json(self):
        # repr, not ==: an enum member such as Encoding.RY equals its value "RY".
        assert repr(json.loads(json.dumps(DEFAULT_CONFIG))) == repr(DEFAULT_CONFIG)

    def test_override_wins_over_default(self):
        config = load_run_config(None, ["--train.seed=9", "--dataset=diabetes"])
        assert config["train"]["seed"] == 9
        assert config["dataset"] == "diabetes"
        assert config["train"]["batch_size"] == DEFAULT_CONFIG["train"]["batch_size"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_run_config(None, ["--learning-rate=0.1"])

    def test_config_file_merged_then_overridden(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_components": 4, "train": {"seed": 5}}),
                        encoding="utf-8")
        config = load_run_config(str(path), ["--train.seed=6"])
        assert config["n_components"] == 4
        assert config["train"]["seed"] == 6

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_run_config(str(path), [])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_run_config("/no/such/config.json", [])

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"surprise": 1}), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_run_config(str(path), [])

    @pytest.mark.parametrize("path", list(LEAVES))
    def test_every_leaf_accepts_its_default_and_rejects_most_wrong_values(self, path):
        default, check = LEAVES[path]
        assert not _rejects(check, path, default)
        assert sum(_rejects(check, path, v) for v in WRONG_VALUES.values()) >= 6

    def test_readme_documents_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Defaults:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULT_CONFIG

    def test_readme_names_every_schema_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Schema keys:", 1)[1].split("\n\n", 2)[1]
        named = {key for line in block.splitlines() if line.startswith("- ")
                 for key in re.findall(r"`(\w+)`", line.split(" (", 1)[0])}
        assert named == set(SCHEMA_LEAVES)


class TestExitCodes:
    def test_unknown_subcommand_is_config_error(self, capsys):
        assert main(["bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_override_is_config_error(self, out_dir):
        assert main(["pca-report", "--bad-key=1"]) == 1

    def test_csv_path_without_schema_is_config_error(self, out_dir, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,label\n1,0\n2,1\n", encoding="utf-8")
        assert main(["pca-report", "--dataset", str(csv_path)]) == 1

    def test_broken_csv_is_data_error(self, out_dir, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,b,label\n1,2,0\n1,oops,1\n3,4,1\n",
                            encoding="utf-8")
        schema_path = tmp_path / "data.schema.json"
        schema_path.write_text(json.dumps({"name": "toy", "label_column": "label"}),
                               encoding="utf-8")
        code = main(["pca-report", "--dataset", str(csv_path),
                     "--schema", str(schema_path)])
        assert code == 2
        assert ":3" in capsys.readouterr().err

    def test_all_cells_failing_is_numerical_error(self, out_dir, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericalError("non-finite loss")
        monkeypatch.setattr(training, "select_layers", diverge)  # every cell fails
        code = main(["sweep", *FAST_SWEEP, "--sweep.include-baseline=false"])
        assert code == 3

    def test_numerical_failure_in_train_names_its_batch(self, out_dir, capsys, monkeypatch):
        calls = []
        step = training.batch_loss_gradient

        def fail_second_step(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NumericalError("non-finite loss gradient")
            return step(*args)
        monkeypatch.setattr(training, "batch_loss_gradient", fail_second_step)
        assert main(["train", *FAST_TRAIN]) == 3
        _assert_one_error_line(capsys.readouterr(), "epoch 0, batch 1", "parameter norm")

    def test_successful_run_returns_zero(self, out_dir):
        assert main(["pca-report", "--dataset", "prostate"]) == 0

    @pytest.mark.parametrize("argv", [
        ["train", "--train.max-epochs=0"],
        ["sweep", *FAST_SWEEP, "--train.patience=0"],
        ["baseline", "--train.batch-size=0"],
        ["train", "--train.learning-rate=1e400"],
        ["baseline", f"--train.learning-rate={10 ** 400}"],
        ["train", *FAST_TRAIN, '--angle-range=[1, "x"]'],
        ["train", '--train.max-epochs="x"'],
        ["train", '--n-components="3"'],
        ["train", "--model.encoding=foo"],
        ["sweep", *FAST_SWEEP, '--sweep.max-layers="x"'],
        ["train", *FAST_TRAIN, "--model.reuploading", "False"],
        ["train", '--split.seed="x"'],
        ["train", "--split.seed=-1"],
        ["train", "--split.seed=1.5"],
        ["train", '--split.fractions="abc"'],
        ["train", "--split.fractions=[0.6,0.2,null]"],
        ["train", *FAST_TRAIN, "--angle-range=[1,2,3]"],
        ["train", *FAST_TRAIN, '--angle-range={"a":1}'],
        ["train", *FAST_TRAIN, "--angle-range=[0,1e309]"],
        ["train", *FAST_TRAIN, f"--angle-range=[0,{10 ** 400}]"],
        ["train", f"--split.fractions=[0.6,0.2,{10 ** 400}]"],
        ["train", *FAST_TRAIN, "--output-dir=5"],
        ["train", "--dataset=x.csv", "--schema=5"],
        ["train", "--dataset=5", f"--schema={BUNDLED / 'prostate.schema.json'}"],
        ["pca-report", "--dataset=prostate", "--schema=/nonexistent.json"],
        ["sweep", "--sweep.feature-counts=[]"],
        ["sweep", "--sweep.vqc-counts=[]", "--sweep.include-baseline=false"],
        _prostate_schema_with(label_mapping={"M": "x", "B": 0}),
        _prostate_schema_with(label_mapping={"M": True, "B": 0}),
        _prostate_schema_with(label_mapping=["M"]),
        _prostate_schema_with(label_mapping=None),
        _prostate_schema_with(drop_columns=5),
        _prostate_schema_with(drop_columns=["id", 3]),
        _prostate_schema_with(name=5),
        _prostate_schema_with(label_column=["diagnosis_result"]),
        _prostate_schema_with(expected_rows="100"),
        _prostate_schema_with(expected_features=8.0),
        _prostate_schema_with(expected_class1=True),
        _prostate_schema_with(name="../escaped"),
        _prostate_schema_with(name="a\\b"),
        _prostate_schema_with(name=""),
        _prostate_schema_with(name="."),
        _prostate_schema_with(name=".."),
        ["baseline", "--model.n-vqcs=0"],
        ["sweep", *FAST_SWEEP, "--model.encoding=foo"],
        ["pca-report", "--train.max-epochs=x"],
        ["train", "--schema=5"],
        ["pca-report", "--angle-range=[2,1]"],
        ["sweep", *FAST_SWEEP, "--sweep.feature-counts=[2,2]"],
        ["sweep", *FAST_SWEEP, "--sweep.vqc-counts=[1,1]"],
        ["sweep", *FAST_SWEEP, "--sweep.feature-counts=[1]"],
        ["sweep", *FAST_SWEEP, "--sweep.feature-counts=[9]"],
        ["sweep", *FAST_SWEEP, "--workers=0"],
        ["pca-report", f"--train.max-epochs={10 ** 400}"],
        ["pca-report", f"--model.n-layers=[1,{10 ** 400}]"],
        _prostate_schema_with(expected_rows=-1),
    ])
    def test_bad_training_settings_are_config_errors(self, out_dir, tmp_path, capsys, argv):
        if isinstance(argv[-1], dict):
            argv = [*argv[:-1], _write_prostate_schema(tmp_path, argv[-1])]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", REJECTED_LEAF_VALUES)
    def test_every_command_rejects_a_wrong_leaf(self, out_dir, tmp_path, capsys, path, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_nested(path, value)), encoding="utf-8")
        for command in ("pca-report", "train", "sweep", "baseline"):
            assert main([command, "--config", str(config)]) == 1
            _assert_one_error_line(capsys.readouterr(), path)
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", REJECTED_SCHEMA_VALUES)
    def test_every_schema_key_rejects_a_wrong_value(self, out_dir, tmp_path, capsys,
                                                     key, value):
        schema = _write_prostate_schema(tmp_path, {key: value})
        assert main(["pca-report", f"--dataset={BUNDLED / 'prostate.csv'}",
                     "--schema", schema]) == 1
        _assert_one_error_line(capsys.readouterr(), repr(key))

    @pytest.mark.parametrize("edit, key", [
        (lambda schema: {("drop_column" if k == "drop_columns" else k): v
                         for k, v in schema.items()}, "'drop_column'"),
        (lambda schema: {**schema, "bogus": 1}, "'bogus'"),
    ], ids=["misspelled_drop_columns", "unknown_key"])
    def test_unknown_schema_key_is_refused_before_data_loads(self, out_dir, tmp_path,
                                                             monkeypatch, capsys, edit, key):
        # With the id column dropped by a misspelled key, it would become a feature.
        lines = (BUNDLED / "prostate.csv").read_text().splitlines()
        data = tmp_path / "with_id.csv"
        data.write_text("".join(f"{i or 'id'},{line}\n" for i, line in enumerate(lines)))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(edit(json.loads(
            (BUNDLED / "prostate.schema.json").read_text()))), encoding="utf-8")

        def must_not_run(*args, **kwargs):
            raise AssertionError("data loaded before the schema check")
        monkeypatch.setattr(cli, "load_csv", must_not_run)
        assert main(["pca-report", f"--dataset={data}", "--schema", str(schema)]) == 1
        _assert_one_error_line(capsys.readouterr(), "unknown key", key)

    def test_error_names_the_dotted_leaf(self, out_dir, capsys):
        assert main(["train", "--model.n-vqcs.x=1"]) == 1
        assert capsys.readouterr().err == (
            "error: model.n_vqcs must be an integer >= 1, got {'x': 1}\n")

    def test_sweep_feature_count_is_refused_before_data_loads(self, out_dir, monkeypatch,
                                                              capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("data loaded or a cell ran before the check")
        monkeypatch.setattr(cli, "load_csv", must_not_run)
        monkeypatch.setattr(cli, "run_cells", must_not_run)
        assert main(["sweep", *FAST_SWEEP, "--sweep.feature-counts=[3,1]"]) == 1
        _assert_one_error_line(capsys.readouterr(), "sweep.feature_counts")

    def test_one_feature_without_circuits_is_a_logreg_sweep(self, out_dir):
        assert main(["sweep", *FAST_SWEEP, "--sweep.feature-counts=[1]",
                     "--sweep.vqc-counts=[]"]) == 0
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["model"], r["features"], r["status"]) for r in rows] == [("logreg", "1", "ok")]

    def test_schema_label_outside_0_1_is_data_error(self, out_dir, tmp_path):
        schema = _write_prostate_schema(tmp_path, {"label_mapping": {"M": 2, "B": 0}})
        assert main(["pca-report", f"--dataset={BUNDLED / 'prostate.csv'}",
                     "--schema", schema]) == 2

    def test_schema_label_beyond_int64_is_data_error_naming_row(self, out_dir, tmp_path, capsys):
        schema = _write_prostate_schema(tmp_path, {"label_mapping": {"M": 10**30, "B": 0}})
        assert main(["pca-report", f"--dataset={BUNDLED / 'prostate.csv'}",
                     "--schema", schema]) == 2
        assert "prostate.csv:2: label 'M' maps to 10" in capsys.readouterr().err


def _remove_model(run_dir):
    (run_dir / "model.json").unlink()


def _corrupt_run_config(run_dir):
    (run_dir / "resolved_config.json").write_text("{truncated", encoding="utf-8")


def _drop_run_config_object(run_dir):
    (run_dir / "resolved_config.json").write_text("[]", encoding="utf-8")


def _drop_run_config_key(run_dir):
    path = run_dir / "resolved_config.json"
    payload = json.loads(path.read_text())
    del payload["config"]["dataset"]
    path.write_text(json.dumps(payload), encoding="utf-8")


def _drop_pipeline_key(run_dir):
    path = run_dir / "pipeline.json"
    payload = json.loads(path.read_text())
    del payload["n_components"]
    path.write_text(json.dumps(payload), encoding="utf-8")


def _edit_pipeline(run_dir, section, name, edit):
    path = run_dir / "pipeline.json"
    payload = json.loads(path.read_text())
    payload[section][name] = edit(payload[section][name])
    path.write_text(json.dumps(payload), encoding="utf-8")


def _truncate_scaler_kept(run_dir):
    _edit_pipeline(run_dir, "scaler", "kept", lambda kept: kept[:3])


def _truncate_encoder_mins(run_dir):
    _edit_pipeline(run_dir, "encoder", "mins", lambda mins: mins[:-1])


def _cut_pca_components(run_dir):
    _edit_pipeline(run_dir, "pca", "components", lambda rows: [row[:5] for row in rows])


def _scalar_scaler_mins(run_dir):
    _edit_pipeline(run_dir, "scaler", "mins", lambda mins: 5)


def _nan_encoder_max(run_dir):
    _edit_pipeline(run_dir, "encoder", "maxs", lambda maxs: [float("nan"), *maxs[1:]])


def _nan_pca_mean(run_dir):
    _edit_pipeline(run_dir, "pca", "mean", lambda mean: [float("nan"), *mean[1:]])


def _edit_key(run_dir, name, key, edit):
    path = run_dir / name
    payload = json.loads(path.read_text())
    payload[key] = edit(payload[key])
    path.write_text(json.dumps(payload), encoding="utf-8")


def _infinite_angle_range(run_dir):
    _edit_key(run_dir, "pipeline.json", "angle_range", lambda _: [0.0, float("inf")])


def _three_number_angle_range(run_dir):
    _edit_key(run_dir, "pipeline.json", "angle_range", lambda _: [0.0, 1.0, 2.0])


def _unknown_named_angle_range(run_dir):
    _edit_key(run_dir, "pipeline.json", "angle_range", lambda _: "zero")
    return "'zero'"  # the error names the value as written, not its characters


def _nan_model_param(run_dir):
    _edit_key(run_dir, "model.json", "params", lambda params: [float("nan"), *params[1:]])


def _string_model_param(run_dir):
    _edit_key(run_dir, "model.json", "params", lambda params: ["0.5", *params[1:]])


def _string_n_components(run_dir):
    _edit_key(run_dir, "pipeline.json", "n_components", str)


def _fractional_n_components(run_dir):
    _edit_key(run_dir, "pipeline.json", "n_components", lambda count: count + 0.5)


def _first_max_at_its_min(fitted: dict) -> dict:
    return {**fitted, "maxs": [fitted["mins"][0], *fitted["maxs"][1:]]}


def _constant_kept_scaler_column(run_dir):
    _edit_key(run_dir, "pipeline.json", "scaler", _first_max_at_its_min)
    return "min >= max"


def _huge_pca_components(run_dir):
    _edit_pipeline(run_dir, "pca", "components",
                   lambda rows: [[1e308 * v for v in row] for row in rows])
    return "orthonormal"


def _doubled_component_row(run_dir):
    _edit_pipeline(run_dir, "pca", "components",
                   lambda rows: [[2.0 * v for v in rows[0]], *rows[1:]])
    return "orthonormal"


def _add_bogus_key(run_dir, name):
    path = run_dir / name
    path.write_text(json.dumps({**json.loads(path.read_text()), "bogus": 1}), encoding="utf-8")
    return "unknown key 'bogus'"


def _unknown_pipeline_key(run_dir):
    return _add_bogus_key(run_dir, "pipeline.json")


def _unknown_model_key(run_dir):
    return _add_bogus_key(run_dir, "model.json")


def _unknown_model_config_key(run_dir):
    _edit_key(run_dir, "model.json", "config", lambda config: {**config, "bogus": 1})
    return "'config.bogus'"


def _unknown_run_config_leaf(run_dir):
    _edit_key(run_dir, "resolved_config.json", "config",
              lambda config: _with_leaf(config, "train.bogus", 1))
    return "'train.bogus'"


def _mismatched_run_config_components(run_dir):
    _edit_key(run_dir, "resolved_config.json", "config",
              lambda config: {**config, "n_components": 5})
    return "disagree"


def _model_of_another_ansatz(run_dir):
    _edit_key(run_dir, "model.json", "config", lambda config: {**config, "ansatz": "strongly"})
    return "config-derived layout"


def _inverted_encoder_column(run_dir):
    _edit_key(run_dir, "pipeline.json", "encoder",
              lambda fitted: {**fitted, "maxs": [fitted["mins"][0] - 1.0, *fitted["maxs"][1:]]})
    return "min > max"


def _model_of_another_width(run_dir):
    config = MultiVqcConfig(n_features=3)
    save_model(str(run_dir / "model.json"), config,
               MultiVqcModel(config).new_store(np.random.default_rng(0)))
    return "disagree"


class TestEvalUnreadableRun:
    @pytest.mark.parametrize("damage", [_remove_model, _corrupt_run_config,
                                        _drop_run_config_object, _drop_run_config_key,
                                        _drop_pipeline_key, _truncate_scaler_kept,
                                        _truncate_encoder_mins, _cut_pca_components,
                                        _scalar_scaler_mins, _nan_encoder_max,
                                        _nan_pca_mean, _infinite_angle_range,
                                        _three_number_angle_range, _nan_model_param,
                                        _string_model_param, _string_n_components,
                                        _fractional_n_components, _unknown_named_angle_range,
                                        _constant_kept_scaler_column, _huge_pca_components,
                                        _doubled_component_row, _unknown_pipeline_key,
                                        _unknown_model_key, _unknown_model_config_key,
                                        _unknown_run_config_leaf,
                                        _mismatched_run_config_components,
                                        _model_of_another_width, _model_of_another_ansatz,
                                        _inverted_encoder_column])
    def test_damaged_artifact_is_config_error(self, out_dir, capsys, damage):
        assert main(["train", *FAST_TRAIN]) == 0
        named = damage(out_dir)
        capsys.readouterr()
        assert main(["eval", "--run-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert named is None or named in captured.err
        _assert_one_error_line(captured)
        assert not (out_dir / "eval_metrics.csv").exists()

    def test_dataset_of_another_width_is_data_error(self, out_dir, capsys):
        assert main(["train", *FAST_TRAIN]) == 0
        path = out_dir / "resolved_config.json"
        payload = json.loads(path.read_text())
        payload["config"]["dataset"] = "heart_failure"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["eval", "--run-dir", str(out_dir)]) == 2
        assert "fitted on 8 feature columns, got 12" in capsys.readouterr().err


@pytest.fixture(scope="class")
def trained_run(tmp_path_factory):
    """One FAST_TRAIN run directory, shared read-only by a test class."""
    run_dir = tmp_path_factory.mktemp("trained")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(OUTPUT_DIR_ENV, str(run_dir))
        patch.delenv("MULTIVQC_DATA_DIR", raising=False)
        assert main(["train", *FAST_TRAIN]) == 0
    return run_dir


class TestEvalChecksRunConfig:
    @pytest.mark.parametrize("path", list(LEAVES))
    def test_wrong_leaf_in_resolved_config_is_config_error(self, trained_run, tmp_path,
                                                           capsys, path):
        _, check = LEAVES[path]
        rejected = [v for v in WRONG_VALUES.values() if _rejects(check, path, v)]
        assert rejected
        for value in rejected:
            run_dir = tmp_path / "run"
            shutil.copytree(trained_run, run_dir)
            resolved = run_dir / "resolved_config.json"
            payload = json.loads(resolved.read_text())
            *sections, key = path.split(".")
            node = payload["config"]
            for section in sections:
                node = node[section]
            node[key] = value
            resolved.write_text(json.dumps(payload), encoding="utf-8")
            assert main(["eval", "--run-dir", str(run_dir)]) == 1
            _assert_one_error_line(capsys.readouterr(), path)
            assert not (run_dir / "eval_metrics.csv").exists()
            shutil.rmtree(run_dir)

    def test_missing_leaf_is_named(self, trained_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_run, run_dir)
        resolved = run_dir / "resolved_config.json"
        payload = json.loads(resolved.read_text())
        del payload["config"]["train"]["seed"]
        resolved.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["eval", "--run-dir", str(run_dir)]) == 1
        _assert_one_error_line(capsys.readouterr(), "lacks key 'train.seed'")


class TestEvalChecksSavedDocuments:
    @pytest.mark.parametrize("name, path, value", REJECTED_SAVED_VALUES)
    def test_reader_rejects_a_wrong_leaf(self, trained_run, name, path, value):
        _, read = SAVED_DOCUMENTS[name]
        payload = json.loads((trained_run / name).read_text())
        with pytest.raises(ConfigError, match=re.escape(path)):
            read(_with_leaf(payload, path, value))

    @pytest.mark.parametrize("name, path", SAVED_LEAVES)
    def test_wrong_leaf_in_saved_document_is_config_error(self, trained_run, tmp_path,
                                                          capsys, name, path):
        table, _ = SAVED_DOCUMENTS[name]
        rejected = [v for v in WRONG_VALUES.values() if _rejects(table[path], path, v)]
        assert rejected
        payload = json.loads((trained_run / name).read_text())
        for value in rejected:
            run_dir = tmp_path / "run"
            shutil.copytree(trained_run, run_dir)
            (run_dir / name).write_text(json.dumps(_with_leaf(payload, path, value)),
                                        encoding="utf-8")
            assert main(["eval", "--run-dir", str(run_dir)]) == 1
            captured = capsys.readouterr()
            _assert_one_error_line(captured, path)
            assert captured.out == ""  # no dataset was loaded
            assert not (run_dir / "eval_metrics.csv").exists()
            shutil.rmtree(run_dir)

    def test_encoder_column_with_min_equal_to_max_is_accepted(self, trained_run, tmp_path):
        # A constant component is fitted with min == max and encodes to the
        # midpoint, so unlike a kept scaler column it is a valid document.
        run_dir = tmp_path / "run"
        shutil.copytree(trained_run, run_dir)
        _edit_key(run_dir, "pipeline.json", "encoder", _first_max_at_its_min)
        assert main(["eval", "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "eval_metrics.csv").is_file()


class _Unprintable:
    def __str__(self):
        raise OSError("device lost")


def _dump_then_fail(obj, fh, **kwargs):
    fh.write('{"half": ')
    raise OSError("device lost")


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        lambda path: cli._write_json(path, {"a": [1, 2, 3]}),
        lambda path: save_model(str(path), MultiVqcConfig(n_features=2),
                                MultiVqcModel(MultiVqcConfig(n_features=2))
                                .new_store(np.random.default_rng(0))),
        lambda path: cli._write_csv(path, ("a",), [{"a": 1}, {"a": _Unprintable()}]),
    ], ids=["write_json", "save_model", "write_csv"])
    def test_failed_write_keeps_old_bytes_and_leaves_no_temp_file(self, tmp_path,
                                                                  monkeypatch, write):
        target = tmp_path / "artifact"
        target.write_bytes(b"old bytes\n")
        monkeypatch.setattr(json, "dump", _dump_then_fail)
        with pytest.raises(OSError, match="device lost"):
            write(target)
        assert target.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_write_replaces_the_old_file(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_bytes(b"old bytes\n")
        cli._write_json(target, {"b": 1, "a": [2]})
        assert target.read_bytes() == b'{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


class TestPcaReport:
    def test_writes_table_and_notes_synthetic_source(self, out_dir, capsys):
        assert main(["pca-report", "--dataset", "prostate"]) == 0
        stdout = capsys.readouterr().out
        assert "synthetic stand-in" in stdout
        assert "MULTIVQC_DATA_DIR" in stdout
        with open(out_dir / "pca_report_prostate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert rows[0]["dataset"] == "prostate"
        assert float(rows[-1]["cumulative"]) == pytest.approx(1.0, abs=1e-9)
        ratios = [float(r["variance_ratio"]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


class TestTrainEval:
    def test_train_writes_artifacts(self, out_dir, capsys):
        assert main(["train", *FAST_TRAIN]) == 0
        for name in ("resolved_config.json", "model.json", "pipeline.json",
                     "train_report.json", "metrics.csv"):
            assert (out_dir / name).is_file()
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["split"] for r in rows] == ["train", "validation", "test"]
        assert all(0.0 <= float(r["f1"]) <= 1.0 for r in rows)
        report = json.loads((out_dir / "train_report.json").read_text())
        assert report["train_config"]["max_epochs"] == 3
        assert len(report["epochs"]) <= 3

    def test_eval_reproduces_train_metrics(self, out_dir):
        assert main(["train", *FAST_TRAIN]) == 0
        assert main(["eval", "--run-dir", str(out_dir)]) == 0
        train_bytes = (out_dir / "metrics.csv").read_bytes()
        eval_bytes = (out_dir / "eval_metrics.csv").read_bytes()
        assert train_bytes == eval_bytes

    def test_eval_reads_a_named_angle_range_as_a_config_file_does(self, out_dir):
        assert main(["train", *FAST_TRAIN]) == 0  # the default range, 0_pi
        _edit_key(out_dir, "pipeline.json", "angle_range", lambda _: "0_pi")
        assert main(["eval", "--run-dir", str(out_dir)]) == 0
        assert (out_dir / "eval_metrics.csv").read_bytes() == \
            (out_dir / "metrics.csv").read_bytes()

    def test_eval_reproduces_metrics_of_a_middle_best_epoch(self, out_dir):
        assert main(["train", *MIDDLE_BEST_TRAIN]) == 0
        report = json.loads((out_dir / "train_report.json").read_text())
        best_epoch = report["best_epoch"]
        assert 0 < best_epoch < len(report["epochs"]) - 1
        # Every other epoch differs in train and validation F1, so metrics.csv
        # written from any epoch but the best one would differ from eval's.
        f1s = [(e["train_f1"], e["val_f1"]) for e in report["epochs"]]
        assert all(f1[0] != f1s[best_epoch][0] and f1[1] != f1s[best_epoch][1]
                   for i, f1 in enumerate(f1s) if i != best_epoch)
        assert main(["eval", "--run-dir", str(out_dir)]) == 0
        train_bytes = (out_dir / "metrics.csv").read_bytes()
        eval_bytes = (out_dir / "eval_metrics.csv").read_bytes()
        assert train_bytes == eval_bytes

    def test_eval_without_run_dir_fails_cleanly(self, tmp_path):
        assert main(["eval", "--run-dir", str(tmp_path / "missing")]) == 1

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MULTIVQC_DATA_DIR", raising=False)
        outputs = []
        for run in ("first", "second"):
            target = tmp_path / run
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
            assert main(["train", *FAST_TRAIN]) == 0
            outputs.append(target)
        for name in ("model.json", "train_report.json", "metrics.csv",
                     "pipeline.json"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


class TestBaseline:
    def test_writes_metrics_and_report(self, out_dir):
        assert main(["baseline", *FAST_TRAIN]) == 0
        with open(out_dir / "baseline_metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["split"] for r in rows] == ["train", "validation", "test"]
        report = json.loads((out_dir / "baseline_report.json").read_text())
        assert 0 <= report["best_epoch"] < len(report["val_losses"])


# FAST_SWEEP's grid is cells 0-7; cell 8 is its logistic baseline.
def _incomplete_marker(cells_dir):
    (cells_dir / "cell_0000.json").write_text('{"base_seed": 0}', encoding="utf-8")


def _baseline_other_seed(cells_dir):
    marker = cells_dir / "cell_0008.json"
    payload = json.loads(marker.read_text())
    payload["base_seed"] = 999
    payload["row"]["test_f1"] = 0.123
    marker.write_text(json.dumps(payload), encoding="utf-8")


def _grid_marker_on_baseline(cells_dir):
    (cells_dir / "cell_0008.json").write_bytes((cells_dir / "cell_0000.json").read_bytes())


def _non_object_marker(cells_dir):
    (cells_dir / "cell_0003.json").write_text("[1, 2]", encoding="utf-8")


def _false_base_seed(cells_dir):
    marker = cells_dir / "cell_0002.json"
    payload = json.loads(marker.read_text())
    assert payload["base_seed"] == 0
    payload["base_seed"] = False
    marker.write_text(json.dumps(payload), encoding="utf-8")


def _unknown_marker_key(cells_dir):
    marker = cells_dir / "cell_0002.json"
    payload = json.loads(marker.read_text())
    marker.write_text(json.dumps({**payload, "bogus": 1}), encoding="utf-8")


class TestSweep:
    def test_sweep_writes_ranked_tables(self, out_dir):
        assert main(["sweep", *FAST_SWEEP]) == 0
        assert (out_dir / "sweep.csv").is_file()
        assert (out_dir / "sweep.json").is_file()
        assert (out_dir / "summary.csv").is_file()
        markers = sorted((out_dir / "cells").glob("cell_*.json"))
        assert len(markers) == 9  # 8 grid cells plus the classical baseline
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert [int(r["rank"]) for r in rows] == list(range(1, 10))
        assert {r["model"] for r in rows} == {"multivqc", "logreg"}
        payload = json.loads((out_dir / "sweep.json").read_text())
        assert payload["format"] == "multivqc-sweep/1"
        assert len(payload["rows"]) == 9

    def test_resume_reuses_markers_and_matches_bytes(self, out_dir):
        assert main(["sweep", *FAST_SWEEP]) == 0
        names = ("sweep.csv", "sweep.json", "summary.csv",
                 "cells/cell_0002.json", "cells/cell_0008.json")
        first = {name: (out_dir / name).read_bytes() for name in names}
        for name in names:
            (out_dir / name).unlink()
        assert main(["sweep", "--resume", *FAST_SWEEP]) == 0
        assert {name: (out_dir / name).read_bytes() for name in names} == first

    def test_fresh_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MULTIVQC_DATA_DIR", raising=False)
        outputs = []
        for run in ("first", "second"):
            target = tmp_path / run
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
            assert main(["sweep", *FAST_SWEEP]) == 0
            outputs.append(target)
        assert (outputs[0] / "sweep.csv").read_bytes() == \
            (outputs[1] / "sweep.csv").read_bytes()
        assert (outputs[0] / "summary.csv").read_bytes() == \
            (outputs[1] / "summary.csv").read_bytes()

    def test_interrupted_sweep_resumes_without_redoing_finished_rows(self, out_dir, tmp_path,
                                                                     monkeypatch):
        run_cell, calls = training.run_cell, []

        def counted_run_cell(*args, **kwargs):
            calls.append(args[0].index)
            if calls == [0, 1, 2, 3]:  # the first sweep stops in its fourth cell
                raise RuntimeError("sweep stopped")
            return run_cell(*args, **kwargs)
        monkeypatch.setattr(training, "run_cell", counted_run_cell)
        with pytest.raises(RuntimeError, match="sweep stopped"):
            main(["sweep", *FAST_SWEEP])
        assert sorted(path.name for path in (out_dir / "cells").iterdir()) == \
            ["cell_0000.json", "cell_0001.json", "cell_0002.json"]
        assert not list(out_dir.rglob("*.tmp"))
        calls.clear()
        assert main(["sweep", "--resume", *FAST_SWEEP]) == 0
        assert calls == [3, 4, 5, 6, 7]

        monkeypatch.setattr(training, "run_cell", run_cell)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "whole"))
        assert main(["sweep", *FAST_SWEEP]) == 0
        for name in ("sweep.csv", "sweep.json", "summary.csv"):
            assert (out_dir / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_pooled_jobs_pickle_while_run_cell_is_wrapped(self, tmp_path, monkeypatch):
        # The benchmark's tracer replaces training.run_cell with a wrapper
        # like this one before the sweep builds its jobs.
        monkeypatch.delenv("MULTIVQC_DATA_DIR", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        run_cell = training.run_cell

        def wrapper(*args, **kwargs):
            return run_cell(*args, **kwargs)
        tables = []
        for run, workers in (("serial", "1"), ("pooled", "2")):
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / run))
            if workers == "2":
                monkeypatch.setattr(training, "run_cell", wrapper)
            assert main(["sweep", "--workers", workers, *FAST_SWEEP]) == 0
            tables.append((tmp_path / run / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("damage", [_incomplete_marker, _baseline_other_seed,
                                        _grid_marker_on_baseline, _non_object_marker,
                                        _false_base_seed, _unknown_marker_key])
    def test_resume_rejects_markers_from_other_seed(self, out_dir, capsys,
                                                    monkeypatch, damage):
        assert main(["sweep", *FAST_SWEEP]) == 0
        cells_dir = out_dir / "cells"
        (cells_dir / "cell_0001.json").unlink()
        damage(cells_dir)

        def must_not_run(*args, **kwargs):
            raise AssertionError("a cell ran before every marker was checked")
        monkeypatch.setattr(cli, "run_cells", must_not_run)
        monkeypatch.setattr(cli, "fit_logreg", must_not_run)
        capsys.readouterr()
        assert main(["sweep", "--resume", *FAST_SWEEP]) == 1
        assert "error:" in capsys.readouterr().err

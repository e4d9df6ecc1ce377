import shutil
import warnings
from pathlib import Path, PurePosixPath

import numpy as np
import pytest

import standins
from multivqc.datasets import (
    DATA_DIR_ENV,
    DATASET_NAMES,
    EXTERNAL_FILENAMES,
    bundled_dir,
    resolve_dataset,
)
from multivqc.errors import ConfigError
from multivqc.pipeline import load_csv

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROFILES = {
    "heart_failure": (299, 12, 96),
    "diabetes": (768, 8, 268),
    "prostate": (100, 8, 62),
}


def load_dataset(name):
    resolved = resolve_dataset(name)
    return load_csv(str(resolved.csv_path), resolved.schema), resolved.source


class TestStandInGeneration:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_regeneration_matches_bundled_bytes(self, name):
        bundled = (bundled_dir() / f"{name}.csv").read_text(encoding="utf-8")
        assert standins.generate_csv_text(name) == bundled

    def test_write_bundled_reproduces_all_files(self, tmp_path):
        written = standins.write_bundled(tmp_path)
        assert [path.name for path in written] == [f"{n}.csv" for n in DATASET_NAMES]
        for path in written:
            assert path.read_bytes() == (bundled_dir() / path.name).read_bytes()

    def test_generation_deterministic(self):
        assert standins.generate_csv_text("prostate") == standins.generate_csv_text("prostate")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            standins.generate_csv_text("wine")


class TestBundledFiles:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_schema_counts_agree_with_csv(self, name, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            data, _ = load_dataset(name)
        assert data.name == name

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_bundled_files_are_package_data(self, name):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["multivqc"]
        for filename in (f"{name}.csv", f"{name}.schema.json"):
            assert (bundled_dir() / filename).is_file()
            relative = PurePosixPath("bundled", filename)
            assert any(relative.match(pattern) for pattern in patterns), filename


class TestLoadDataset:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_shapes_and_class_balance(self, name, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        data, source = load_dataset(name)
        rows, features, positives = PROFILES[name]
        assert source == "bundled-synthetic"
        assert data.n_samples == rows
        assert data.n_features == features
        assert data.class_counts() == (rows - positives, positives)
        assert set(np.unique(data.labels)) <= {0, 1}
        assert np.all(np.isfinite(data.features))

    def test_prostate_feature_names(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        data, _ = load_dataset("prostate")
        assert data.feature_names == (
            "radius", "texture", "perimeter", "area", "smoothness",
            "compactness", "symmetry", "fractal_dimension",
        )

    def test_heart_failure_has_followup_time_column(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        data, _ = load_dataset("heart_failure")
        assert "time" in data.feature_names
        assert "age" in data.feature_names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            resolve_dataset("mystery")


class TestResolveDataset:
    def test_bundled_used_without_env(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        resolved = resolve_dataset("diabetes")
        assert resolved.source == "bundled-synthetic"
        assert resolved.csv_path == bundled_dir() / "diabetes.csv"
        assert resolved.schema["name"] == "diabetes"
        assert resolved.schema["label_column"] == "Outcome"

    def test_env_dir_with_known_filename_wins(self, tmp_path, monkeypatch):
        external_name = EXTERNAL_FILENAMES["prostate"][0]
        shutil.copyfile(bundled_dir() / "prostate.csv", tmp_path / external_name)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        resolved = resolve_dataset("prostate")
        assert resolved.source == "external"
        assert resolved.csv_path == tmp_path / external_name
        data, source = load_dataset("prostate")
        assert source == "external"
        assert data.n_samples == 100

    def test_empty_env_dir_falls_back_to_bundled(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        resolved = resolve_dataset("heart_failure")
        assert resolved.source == "bundled-synthetic"

    def test_env_dir_only_affects_matching_dataset(self, tmp_path, monkeypatch):
        shutil.copyfile(bundled_dir() / "diabetes.csv", tmp_path / "diabetes.csv")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert resolve_dataset("diabetes").source == "external"
        assert resolve_dataset("prostate").source == "bundled-synthetic"

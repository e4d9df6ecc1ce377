"""Built-in tabular datasets: names, bundled files, external-file resolution.

Three small clinical classification tables are used throughout: a heart
failure cohort (299 rows, 12 features, binary death label), a diabetes
cohort (768 rows, 8 features), and a prostate cancer cohort (100 rows,
8 features, M/B label). The widely published originals cannot be bundled
here, so the package ships deterministic synthetic stand-ins matching each
table's shape in ``bundled/<name>.csv``, next to the table's schema in
``bundled/<name>.schema.json``. A built-in dataset is plain data: its CSV
and schema are read by the same ``load_csv`` and ``load_schema`` that serve
a user's ``--dataset file.csv --schema file.json``.

If MULTIVQC_DATA_DIR points at a directory containing the real files, those
are used instead, with the bundled schema; ``resolve_dataset`` reports which
source it resolved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .pipeline import load_schema

DATASET_NAMES = ("heart_failure", "diabetes", "prostate")

# Filenames the real datasets are commonly distributed under, tried in order
# inside MULTIVQC_DATA_DIR before falling back to "<name>.csv".
EXTERNAL_FILENAMES: dict[str, tuple[str, ...]] = {
    "heart_failure": ("heart_failure_clinical_records_dataset.csv", "heart_failure.csv"),
    "diabetes": ("diabetes.csv", "pima_indians_diabetes.csv"),
    "prostate": ("Prostate_Cancer.csv", "prostate_cancer.csv", "prostate.csv"),
}

DATA_DIR_ENV = "MULTIVQC_DATA_DIR"


def bundled_dir() -> Path:
    return Path(__file__).parent / "bundled"


@dataclass(frozen=True)
class ResolvedDataset:
    csv_path: Path
    schema: dict
    source: str  # "external" or "bundled-synthetic"


def resolve_dataset(name: str) -> ResolvedDataset:
    """The bundled schema, with real files from MULTIVQC_DATA_DIR if present
    and otherwise the bundled synthetic stand-in."""
    if name not in DATASET_NAMES:
        raise ConfigError(f"unknown dataset {name!r}; options: {DATASET_NAMES}")
    schema = load_schema(str(bundled_dir() / f"{name}.schema.json"))
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        for filename in EXTERNAL_FILENAMES[name] + (f"{name}.csv",):
            candidate = Path(data_dir) / filename
            if candidate.is_file():
                return ResolvedDataset(candidate, schema, "external")
    bundled = bundled_dir() / f"{name}.csv"
    if not bundled.is_file():
        raise ConfigError(
            f"bundled dataset {bundled} is missing; reinstall the package"
        )
    return ResolvedDataset(bundled, schema, "bundled-synthetic")

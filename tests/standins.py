"""Generators of the bundled synthetic stand-in CSVs.

The package ships ``src/multivqc/bundled/<name>.csv`` as plain data; this
module is how those files were made. Each table matches its original's
shape: row count, feature count and names, value formats, class balance,
and a correlation structure that reproduces the original's concentrated PCA
variance profile. Generation is seeded and byte-reproducible, and
``tests/test_datasets.py`` checks that regenerating gives the bundled bytes.
The schema files next to the CSVs are hand-kept and not written here.

Regenerate the bundled CSVs from a checkout with
``PYTHONPATH=src python tests/standins.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from multivqc.datasets import DATASET_NAMES, bundled_dir
from multivqc.errors import ConfigError

_GEN_SEEDS = {"heart_failure": 20240517, "diabetes": 20240518, "prostate": 20240519}


def _shuffled_labels(rng: np.random.Generator, n: int, n_pos: int) -> np.ndarray:
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64),
                             np.zeros(n - n_pos, dtype=np.int64)])
    return labels[rng.permutation(n)]


def _binary_by_quantile(latent: np.ndarray, count_one: int) -> np.ndarray:
    """Threshold a latent so that exactly count_one entries are 1."""
    order = np.argsort(latent, kind="stable")
    out = np.zeros(latent.shape[0], dtype=np.int64)
    out[order[latent.shape[0] - count_one:]] = 1
    return out


def _int(v: np.ndarray) -> list[str]:
    return [str(int(x)) for x in np.rint(v)]


def _dec(v: np.ndarray, places: int) -> list[str]:
    return [format(x, f".{places}f") for x in v]


def _heart_failure_table() -> tuple[list[str], list[list[str]]]:
    rng = np.random.default_rng(_GEN_SEEDS["heart_failure"])
    n, n_pos = 299, 96
    labels = _shuffled_labels(rng, n, n_pos)
    sign = np.where(labels == 1, 1.0, -1.0)

    severity = 0.95 * sign + 0.62 * rng.standard_normal(n)
    frailty = 0.50 * sign + 0.88 * rng.standard_normal(n)
    habits = 0.75 * severity + 0.66 * rng.standard_normal(n)

    age = np.clip(61.0 + 8.0 * frailty + 2.5 * severity
                  + 2.0 * rng.standard_normal(n), 40, 95)
    ejection = np.clip(38.0 - 7.5 * severity + 3.0 * rng.standard_normal(n), 14, 80)
    creatinine = np.clip(1.38 + 0.50 * severity + 0.22 * rng.standard_normal(n),
                         0.5, 9.4)
    sodium = np.clip(136.6 - 1.9 * severity + 1.6 * rng.standard_normal(n), 113, 148)
    followup = np.clip(130.0 - 52.0 * severity - 18.0 * frailty
                       + 28.0 * rng.standard_normal(n), 4, 285)
    cpk = np.clip(np.exp(5.45 + 0.30 * severity + 0.95 * rng.standard_normal(n)),
                  23, 7861)
    platelets = np.clip(263000.0 + 26000.0 * severity
                        + 55000.0 * rng.standard_normal(n), 25000, 850000)

    anaemia = _binary_by_quantile(severity + 0.30 * rng.standard_normal(n), 129)
    diabetes = _binary_by_quantile(severity + 0.32 * rng.standard_normal(n), 125)
    pressure = _binary_by_quantile(severity + 0.34 * rng.standard_normal(n), 118)
    sex = _binary_by_quantile(habits + 0.30 * rng.standard_normal(n), 170)
    smoking = _binary_by_quantile(habits + 0.32 * rng.standard_normal(n), 160)

    header = ["age", "anaemia", "creatinine_phosphokinase", "diabetes",
              "ejection_fraction", "high_blood_pressure", "platelets",
              "serum_creatinine", "serum_sodium", "sex", "smoking", "time",
              "DEATH_EVENT"]
    columns = [_int(age), _int(anaemia), _int(cpk), _int(diabetes),
               _int(ejection), _int(pressure), _int(platelets),
               _dec(creatinine, 2), _int(sodium), _int(sex), _int(smoking),
               _int(followup), _int(labels)]
    return header, [list(row) for row in zip(*columns)]


def _diabetes_table() -> tuple[list[str], list[list[str]]]:
    rng = np.random.default_rng(_GEN_SEEDS["diabetes"])
    n, n_pos = 768, 268
    labels = _shuffled_labels(rng, n, n_pos)
    sign = np.where(labels == 1, 1.0, -1.0)

    metabolic = 0.92 * sign + 0.85 * rng.standard_normal(n)
    maturity = 0.35 * sign + 0.95 * rng.standard_normal(n)
    adiposity = 0.25 * sign + 0.95 * rng.standard_normal(n)

    glucose = np.clip(121.0 + 22.0 * metabolic + 6.0 * rng.standard_normal(n),
                      56, 199)
    insulin = np.clip(118.0 + 52.0 * metabolic + 24.0 * rng.standard_normal(n),
                      15, 846)
    bmi = np.clip(32.2 + 4.4 * adiposity + 1.6 * metabolic
                  + 1.2 * rng.standard_normal(n), 18.0, 67.1)
    skin = np.clip(29.0 + 6.6 * adiposity + 2.1 * metabolic
                   + 2.2 * rng.standard_normal(n), 7, 99)
    age = np.clip(33.2 + 9.8 * maturity + 2.6 * rng.standard_normal(n), 21, 81)
    pregnancies = np.clip(3.8 + 2.6 * maturity + 1.2 * rng.standard_normal(n),
                          0, 17)
    pressure = np.clip(72.2 + 4.4 * maturity + 2.8 * metabolic
                       + 2.2 * adiposity + 5.2 * rng.standard_normal(n), 24, 122)
    pedigree = np.clip(0.47 + 0.10 * metabolic + 0.16 * rng.standard_normal(n),
                       0.078, 2.42)

    header = ["Pregnancies", "Glucose", "BloodPressure", "SkinThickness",
              "Insulin", "BMI", "DiabetesPedigreeFunction", "Age", "Outcome"]
    columns = [_int(pregnancies), _int(glucose), _int(pressure), _int(skin),
               _int(insulin), _dec(bmi, 1), _dec(pedigree, 3), _int(age),
               _int(labels)]
    return header, [list(row) for row in zip(*columns)]


def _prostate_table() -> tuple[list[str], list[list[str]]]:
    rng = np.random.default_rng(_GEN_SEEDS["prostate"])
    n, n_pos = 100, 62
    labels = _shuffled_labels(rng, n, n_pos)
    sign = np.where(labels == 1, 1.0, -1.0)

    size = 0.95 * sign + 0.55 * rng.standard_normal(n)
    compact = 0.45 * sign + 0.85 * rng.standard_normal(n)
    grain = rng.standard_normal(n)
    smooth = rng.standard_normal(n)
    sym = rng.standard_normal(n)
    fractal = rng.standard_normal(n)

    def noise(scale: float) -> np.ndarray:
        return scale * rng.standard_normal(n)

    perimeter = np.clip(96.0 + 16.0 * size + noise(1.0), 52, 172)
    radius = np.clip(16.8 + 3.0 * size + noise(0.18), 9.0, 25.0)
    area = np.clip(700.0 + 210.0 * size + 36.0 * compact + noise(9.0), 202, 1878)
    texture = np.clip(18.2 + 3.4 * grain + noise(0.16), 11.0, 27.0)
    smoothness = np.clip(0.103 + 0.013 * smooth + noise(0.0009), 0.070, 0.143)
    compactness = np.clip(0.127 + 0.044 * compact + 0.010 * size + noise(0.0018),
                          0.038, 0.345)
    symmetry = np.clip(0.193 + 0.026 * sym + noise(0.0014), 0.135, 0.304)
    fractal_dim = np.clip(0.0645 + 0.0072 * fractal + noise(0.0004), 0.053, 0.097)

    header = ["diagnosis_result", "radius", "texture", "perimeter", "area",
              "smoothness", "compactness", "symmetry", "fractal_dimension"]
    diag = ["M" if y == 1 else "B" for y in labels]
    columns = [diag, _dec(radius, 1), _dec(texture, 1), _int(perimeter),
               _int(area), _dec(smoothness, 3), _dec(compactness, 3),
               _dec(symmetry, 3), _dec(fractal_dim, 3)]
    return header, [list(row) for row in zip(*columns)]


_GENERATORS = {
    "heart_failure": _heart_failure_table,
    "diabetes": _diabetes_table,
    "prostate": _prostate_table,
}


def generate_csv_text(name: str) -> str:
    if name not in _GENERATORS:
        raise ConfigError(f"unknown dataset {name!r}; options: {DATASET_NAMES}")
    header, rows = _GENERATORS[name]()
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_bundled(target_dir: str | Path | None = None) -> list[Path]:
    """Regenerate the stand-in CSVs into ``target_dir`` (default: the
    package's bundled directory)."""
    target = Path(target_dir) if target_dir is not None else bundled_dir()
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name in DATASET_NAMES:
        csv_path = target / f"{name}.csv"
        csv_path.write_text(generate_csv_text(name), encoding="utf-8")
        written.append(csv_path)
    return written


if __name__ == "__main__":
    for path in write_bundled():
        print(path)

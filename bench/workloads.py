"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs its
user-visible job through the multivqc CLI in ``job``, times one unit
operation through the public API in ``op``, and checks outputs against
references in ``checks``. Module attributes of multivqc are looked up at
call time so that the tracer's wrappers are seen.

Shared constants: the split fractions are the CLI default, and every
training disables early stopping (patience = max epochs) so the amount of
work per job is fixed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from multivqc import cli, datasets, gradients, model, params, pipeline, training

import oracle

FRACTIONS = (0.6, 0.2, 0.2)
FORWARD_TOL = 1e-12
# Central difference with h = 1e-6 in float64 is accurate to about 1e-10 here.
GRADIENT_H = 1e-6
GRADIENT_TOL = 1e-7


@dataclass
class JobResult:
    ok: bool
    fingerprint: bytes  # an artifact that must be byte-identical across jobs
    rows: int           # sample passes
    cells: int
    failed_cells: int = 0


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def load_split(name: str, seed: int):
    resolved = datasets.resolve_dataset(name)
    data = pipeline.load_csv(str(resolved.csv_path), resolved.schema)
    return data, pipeline.split(data, FRACTIONS, seed)


def encode(raw, pipe) -> pipeline.SplitDataset:
    def part(d):
        names = tuple(f"pc{i + 1}" for i in range(pipe.n_components))
        return pipeline.Dataset(d.name, pipe.transform(d.features), d.labels, names)
    return pipeline.SplitDataset(part(raw.train), part(raw.validation), part(raw.test),
                                 raw.fractions, raw.seed)


def cli_args(dataset: str, seed: int, out: Path, extra: dict) -> list[str]:
    args = [f"--dataset={dataset}", f"--split.seed={seed}", f"--train.seed={seed}",
            f"--output-dir={out}"]
    return args + [f"--{k}={json.dumps(v)}" for k, v in extra.items()]


def sample_rows(x: np.ndarray, seed: int, count: int) -> np.ndarray:
    return x[np.random.default_rng(seed).choice(len(x), size=count, replace=False)]


def forward_check(name: str, mdl, store, rows) -> tuple[str, bool, str]:
    err = oracle.max_forward_error(mdl, store, rows)
    return (name, err <= FORWARD_TOL, f"max |fast - dense| = {err:.3g} over {len(rows)} rows")


class TrainChain:
    """CLI ``train`` on diabetes: 3 PCs, 3 chained strongly circuits, L=2."""

    name = "train_chain"
    workers = 0
    epochs = 2
    batch = 16
    model_config = dict(n_features=3, n_vqcs=3, ansatz="strongly", n_layers=2)

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.argv = ["train", *cli_args("diabetes", seed, out / "train", {
            "n-components": 3, "model.n-vqcs": 3, "model.ansatz": "strongly",
            "model.n-layers": 2, "train.batch-size": self.batch,
            "train.max-epochs": self.epochs, "train.patience": self.epochs})]

    def setup(self) -> None:
        _, raw = load_split("diabetes", self.seed)
        pipe = pipeline.Pipeline(3).fit(raw.train.features)
        data = encode(raw, pipe)
        self.x, self.y = data.train.features, data.train.labels
        self.x_test = data.test.features
        self.weights = training.compute_class_weights(self.y).as_array()
        self.model = model.MultiVqcModel(model.MultiVqcConfig(**self.model_config))
        self.store = self.model.new_store(np.random.default_rng(self.seed))
        self.adam = training.Adam(self.store.total, 0.01)
        self.order = np.random.default_rng(self.seed + 1).permutation(len(self.y))

    def job(self) -> JobResult:
        ok = run_cli(self.argv) == 0
        artifact = (self.out / "train" / "model.json").read_bytes() if ok else b""
        return JobResult(ok, artifact, rows=len(self.y) * self.epochs, cells=1)

    def op(self, i: int):
        """One optimizer step (gradient + Adam) on a full batch of 16 rows."""
        idx = self.order[(i * self.batch + np.arange(self.batch)) % len(self.y)]
        before = self.store.values
        loss, grad = training.batch_loss_gradient(
            self.model, self.store, self.x[idx], self.y[idx], self.weights)
        self.store.values = self.adam.step(self.store.values, grad)
        return before, idx, loss, grad

    def check_op(self, i: int, out) -> bool:
        before, idx, loss, grad = out
        if i == 0:
            self.first_step = out
        return bool(np.isfinite(loss) and np.all(np.isfinite(grad)))

    def checks(self) -> list[tuple[str, bool, str]]:
        trained, store = model.load_model(str(self.out / "train" / "model.json"))
        results = [forward_check("forward matches dense oracle (trained model)", trained,
                                 store, sample_rows(self.x_test, self.seed, 8))]
        before, idx, _, grad = self.first_step
        counts = self.store.counts

        def loss(values):
            return gradients.batch_loss(self.model, params.ParamStore(counts, values),
                                        self.x[idx], self.y[idx], self.weights)

        reference = oracle.central_difference(loss, before, GRADIENT_H)
        err = float(np.max(np.abs(grad - reference)))
        results.append(("first-step gradient matches central difference",
                        err <= GRADIENT_TOL, f"max |shift - fd| = {err:.3g}"))
        return results


class InferWide:
    """CLI ``eval`` of all 299 heart_failure rows and ``predict_batch`` of
    the 179-row training split: 12 features to 8 PCs (8 qubits), 3 chained
    strongly circuits, L=2."""

    name = "infer_wide"
    workers = 0
    model_config = dict(n_features=8, n_vqcs=3, ansatz="strongly", n_layers=2)

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.run_dir = out / "run"
        self.argv = ["eval", f"--run-dir={self.run_dir}"]

    def setup(self) -> None:
        data, raw = load_split("heart_failure", self.seed)
        self.n_rows = data.n_samples
        pipe = pipeline.Pipeline(8).fit(raw.train.features)
        order = np.random.default_rng(self.seed + 1).permutation(raw.train.n_samples)
        self.x = pipe.transform(raw.train.features)[order]
        self.model = model.MultiVqcModel(model.MultiVqcConfig(**self.model_config))
        self.store = self.model.new_store(np.random.default_rng(self.seed))
        # The saved run that `eval` reads, in the formats `train` writes.
        self.run_dir.mkdir(parents=True, exist_ok=True)
        config = cli.load_run_config(None, cli_args("heart_failure", self.seed, self.run_dir, {
            "n-components": 8, "model.n-vqcs": 3, "model.ansatz": "strongly",
            "model.n-layers": 2}))
        (self.run_dir / "resolved_config.json").write_text(json.dumps({"config": config}))
        (self.run_dir / "pipeline.json").write_text(json.dumps(pipe.to_json_dict()))
        model.save_model(str(self.run_dir / "model.json"), self.model.config, self.store)

    def job(self) -> JobResult:
        ok = run_cli(self.argv) == 0
        artifact = (self.run_dir / "eval_metrics.csv").read_bytes() if ok else b""
        return JobResult(ok, artifact, rows=self.n_rows, cells=1)

    def op(self, i: int):
        """One predict_batch of the full training split (179 rows)."""
        return self.model.predict_batch(self.store, self.x)

    def check_op(self, i: int, out) -> bool:
        if i == 0:
            self.predictions = out
        return bool(np.array_equal(out, self.predictions))

    def checks(self) -> list[tuple[str, bool, str]]:
        picked = np.random.default_rng(self.seed).choice(len(self.x), size=4, replace=False)
        results = [forward_check("forward matches dense oracle", self.model, self.store,
                                 self.x[picked])]
        dense = [oracle.chain_expectations(self.model, self.store, row)[-1]
                 for row in self.x[picked]]
        agree = np.array_equal(np.argmax(dense, axis=1), self.predictions[picked])
        results.append(("predictions match dense oracle", bool(agree), "4 rows"))
        return results


class SweepGrid:
    """CLI ``sweep`` on prostate: features {2,3} x chains {1,2,3} x both
    encodings, ansatzes and reuploading settings (48 cells) plus the two
    logistic baselines, on a pool of 2 workers.

    With max_layers 2, no more than the smallest feature count, the layer
    search never stalls out, so every cell trains exactly 2 depths of
    ``epochs`` epochs each and the work per job is fixed."""

    name = "sweep_grid"
    workers = 2
    epochs = 2
    max_layers = 2
    feature_counts = (2, 3)
    vqc_counts = (1, 2, 3)

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.sweep_dir = out / "sweep"
        self.argv = ["sweep", *cli_args("prostate", seed, self.sweep_dir, {
            "sweep.feature-counts": list(self.feature_counts),
            "sweep.vqc-counts": list(self.vqc_counts),
            "sweep.max-layers": self.max_layers, "sweep.workers": self.workers,
            "sweep.include-baseline": True,
            "train.max-epochs": self.epochs, "train.patience": self.epochs})]

    def setup(self) -> None:
        _, raw = load_split("prostate", self.seed)
        self.data = {k: encode(raw, pipeline.Pipeline(k).fit(raw.train.features))
                     for k in self.feature_counts}
        self.grid = training.build_grid(self.feature_counts, self.vqc_counts)
        # The unit op is the grid's first cell: 2 features, one basic circuit,
        # like most of the grid's tiny cells. At about 20 ms per cell a run
        # times hundreds of them, enough for a steady 90th percentile.
        self.op_cell = self.grid[0]
        self.tcfg = training.TrainConfig(max_epochs=self.epochs, patience=self.epochs,
                                         seed=self.seed)

    def job(self) -> JobResult:
        shutil.rmtree(self.sweep_dir, ignore_errors=True)
        if run_cli(self.argv) != 0:
            return JobResult(False, b"", 0, 0)
        table = (self.sweep_dir / "sweep.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        self.table = {int(r["cell"]): r for r in rows}
        expected = len(self.grid) + len(self.feature_counts)
        failed = sum(r["status"] != "ok" for r in rows) + max(expected - len(rows), 0)
        n_train = len(self.data[self.feature_counts[0]].train.labels)
        passes = len(self.grid) * self.max_layers * self.epochs * n_train
        return JobResult(True, table, rows=passes, cells=expected, failed_cells=failed)

    def op(self, i: int):
        """One sweep cell (layer search + scoring) run serially in-process."""
        return training.run_cell(self.op_cell, self.data[self.op_cell.features], self.tcfg,
                                 max_layers=self.max_layers)

    def check_op(self, i: int, out) -> bool:
        if i == 0:
            self.cell_row = out
        return out.status == "ok" and out == self.cell_row

    def checks(self) -> list[tuple[str, bool, str]]:
        row = self.cell_row
        listed = self.table[row.cell]
        same = (float(listed["val_loss"]) == row.val_loss
                and int(listed["layers"]) == row.layers
                and float(listed["test_f1"]) == row.test.f1)
        return [("serial cell matches the pooled sweep's row", same, f"cell {row.cell}")]


WORKLOADS = {w.name: w for w in (TrainChain, InferWide, SweepGrid)}

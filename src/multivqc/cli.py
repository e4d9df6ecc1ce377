"""Command-line entry point.

Subcommands: pca-report, train, eval, sweep, baseline. Configuration is a
JSON file merged over built-in defaults, with dotted flag overrides such as
`--train.learning-rate 0.05` or `--model.n-vqcs=3`. Exit codes: 0 success,
1 configuration error, 2 data error, 3 numerical failure.

Every command checks every config leaf against ``LEAVES``, whether it reads
the leaf or not, and rejects any other key. ``eval`` checks the saved run's
config the same way, and pipeline.json and model.json against their own
leaf tables, before any data loads.

All artifacts are timestamp-free CSV/JSON with stable key ordering, so a
rerun with the same config and seed is byte-identical, and each is written
atomically. The output directory comes from the config (`output_dir`) unless
MULTIVQC_OUTPUT_DIR is set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from .baseline import fit_logreg, logreg_split_metrics, run_baseline
from .datasets import DATASET_NAMES, resolve_dataset
from .errors import (
    ConfigError,
    DataError,
    MultiVqcError,
    NumericalError,
    check_bool,
    check_document,
    check_equal,
    check_int,
    check_optional,
    check_str,
)
from .metrics import evaluate
from .model import (
    MAX_LAYERS,
    MODEL_CHECKS,
    MultiVqcConfig,
    MultiVqcModel,
    Rescale,
    load_model,
    save_model,
)
from .pipeline import (
    PIPELINE_CHECKS,
    Dataset,
    Pipeline,
    SplitDataset,
    explained_variance_table,
    load_csv,
    load_schema,
    open_atomic,
    read_json,
    split,
    write_json as _write_json,
)
from .training import (
    TRAIN_CHECKS,
    SweepRow,
    TrainConfig,
    build_grid,
    cell_job,
    check_counts,
    compute_class_weights,
    rank_rows,
    run_cells,
    sweep_row_from_json,
    sweep_row_record,
    sweep_row_to_json,
    sweep_rows_to_json_dict,
    SWEEP_CSV_COLUMNS,
    train,
    train_report_to_json_dict,
)

OUTPUT_DIR_ENV = "MULTIVQC_OUTPUT_DIR"


# Every config leaf: dotted path -> (default, check). DEFAULT_CONFIG is built
# from the defaults, and every command checks the config against CONFIG_LEAVES.
# A check takes the dotted path and the value and raises ConfigError naming
# the path. The model.* and train.* leaves are the MultiVqcConfig and
# TrainConfig fields, an enum default as its value; split runs its own checks.
LEAVES = {
    "dataset": ("prostate", check_str),
    "schema": (None, check_optional(check_str)),
    "n_components": (3, PIPELINE_CHECKS["n_components"]),
    "angle_range": ("0_pi", PIPELINE_CHECKS["angle_range"]),
    "split.fractions": ([0.6, 0.2, 0.2], PIPELINE_CHECKS["fractions"]),
    "split.seed": (0, PIPELINE_CHECKS["seed"]),
    **{f"{section}.{field.name}": (getattr(field.default, "value", field.default),
                                   checks[field.name])
       for section, owner, checks in (("model", MultiVqcConfig, MODEL_CHECKS),
                                       ("train", TrainConfig, TRAIN_CHECKS))
       for field in fields(owner) if field.name not in ("n_features", "n_classes")},
    "sweep.feature_counts": ([2, 3], check_counts),
    "sweep.vqc_counts": ([1, 2, 3], check_counts),
    # The layer search builds models of up to this many layers.
    "sweep.max_layers": (20, partial(check_int, low=1, high=MAX_LAYERS)),
    "sweep.workers": (1, partial(check_int, low=1)),
    "sweep.include_baseline": (True, check_bool),
    "output_dir": ("multivqc-out", check_str),
}


def _default_config() -> dict:
    config: dict = {}
    for path, (default, _) in LEAVES.items():
        section, _, key = path.rpartition(".")
        (config.setdefault(section, {}) if section else config)[key] = default
    return config


DEFAULT_CONFIG: dict = _default_config()
CONFIG_LEAVES = {path: check for path, (_, check) in LEAVES.items()}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message: str):
        raise ConfigError(message)


def _deep_merge(base: dict, overlay: dict) -> dict:
    """``overlay`` merged over ``base``; the merged config's check rejects the rest."""
    merged = dict(base)
    for key, value in overlay.items():
        both = isinstance(base.get(key), dict) and isinstance(value, dict)
        merged[key] = _deep_merge(base[key], value) if both else value
    return merged


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_overrides(tokens: list[str]) -> dict:
    """Turn `--a.b-c value` / `--a.b-c=value` pairs into a nested dict."""
    overrides: dict = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            key_text, value_text = body.split("=", 1)
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"override {token!r} is missing a value")
            key_text, value_text = body, tokens[i + 1]
            i += 1
        i += 1
        keys = [part.replace("-", "_") for part in key_text.split(".")]
        if not all(keys):
            raise ConfigError(f"malformed override key {key_text!r}")
        node = overrides
        for part in keys[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"conflicting overrides at {key_text!r}")
        node[keys[-1]] = _parse_override_value(value_text)
    return overrides


def load_run_config(config_path: str | None, override_tokens: list[str],
                    flags: dict | None = None) -> dict:
    """The defaults, with the config file, the dotted overrides and a
    command's own ``flags`` merged over them in that order, every leaf
    checked."""
    config = DEFAULT_CONFIG
    if config_path is not None:
        file_config = read_json(config_path, "config file")
        if not isinstance(file_config, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        config = _deep_merge(config, file_config)
    for overlay in (parse_overrides(override_tokens), flags or {}):
        config = _deep_merge(config, overlay)
    check_document(CONFIG_LEAVES, config, "config")
    return config


def _output_dir(config: dict) -> Path:
    path = Path(os.environ.get(OUTPUT_DIR_ENV) or config["output_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_raw_dataset(config: dict) -> tuple[Dataset, str, str]:
    """Returns (dataset, source description, resolved path)."""
    name_or_path = config["dataset"]
    if name_or_path in DATASET_NAMES:
        if config["schema"] is not None:
            raise ConfigError(f"dataset {name_or_path!r} is a built-in name with its own "
                              f"schema; 'schema' is only for a CSV path")
        resolved = resolve_dataset(name_or_path)
        dataset = load_csv(str(resolved.csv_path), resolved.schema)
        return dataset, resolved.source, str(resolved.csv_path)
    if config["schema"] is None:
        raise ConfigError(
            f"dataset {name_or_path!r} is not a built-in name "
            f"({', '.join(DATASET_NAMES)}); loading a CSV path needs 'schema'"
        )
    return load_csv(name_or_path, load_schema(config["schema"])), "external", name_or_path


def _announce_source(dataset: Dataset, source: str, path: str) -> None:
    print(f"dataset {dataset.name}: {dataset.n_samples} rows, "
          f"{dataset.n_features} features, class counts {dataset.class_counts()}")
    if source == "bundled-synthetic":
        print(f"NOTE: using the bundled synthetic stand-in at {path}; point "
              f"MULTIVQC_DATA_DIR at the real files to override")
    else:
        print(f"source: {path}")


def _load_split(config: dict) -> tuple[SplitDataset, str, str]:
    """Load and announce the configured dataset, then split it. Returns
    (raw split, source description, resolved path)."""
    dataset, source, path = _load_raw_dataset(config)
    _announce_source(dataset, source, path)
    raw = split(dataset, config["split"]["fractions"], config["split"]["seed"])
    return raw, source, path


def _write_csv(path: Path, columns: tuple[str, ...], records: list[dict]) -> None:
    with open_atomic(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


METRICS_CSV_COLUMNS = ("dataset", "n_components", "split_seed", "train_seed",
                       "split", "precision", "recall", "f1")


def _metrics_records(config: dict, dataset_name: str,
                     split_metrics) -> list[dict]:
    """Rows of a metrics CSV, from train, validation and test metrics."""
    return [{
        "dataset": dataset_name, "n_components": config["n_components"],
        "split_seed": config["split"]["seed"],
        "train_seed": config["train"]["seed"], "split": split_name,
        "precision": m.precision, "recall": m.recall, "f1": m.f1,
    } for split_name, m in zip(("train", "validation", "test"), split_metrics)]


def cmd_pca_report(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.overrides)
    dataset, source, path = _load_raw_dataset(config)
    _announce_source(dataset, source, path)
    table = explained_variance_table(dataset.features)
    print(f"{'component':>9}  {'variance':>10}  {'cumulative':>10}")
    records = []
    for i, (ratio, cum) in enumerate(table, start=1):
        print(f"{i:>9}  {ratio:>10.6f}  {cum:>10.6f}")
        records.append({"dataset": dataset.name, "component": i,
                        "variance_ratio": ratio, "cumulative": cum})
    out = _output_dir(config)
    _write_csv(out / f"pca_report_{dataset.name}.csv",
               ("dataset", "component", "variance_ratio", "cumulative"), records)
    print(f"wrote {out / f'pca_report_{dataset.name}.csv'}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.overrides)
    model_cfg = MultiVqcConfig(n_features=config["n_components"], n_classes=2,
                               **config["model"])
    tcfg = TrainConfig(**config["train"])
    raw_split, source, path = _load_split(config)
    pipe = Pipeline(config["n_components"], config["angle_range"]).fit(raw_split.train.features)
    encoded = pipe.encode(raw_split)
    report = train(model_cfg, encoded, tcfg)
    out = _output_dir(config)
    _write_json(out / "resolved_config.json", {"format": "multivqc-run-config/1",
                                                "config": config, "data_source": source,
                                                "dataset_path": path})
    save_model(str(out / "model.json"), model_cfg, report.final_params)
    _write_json(out / "pipeline.json", pipe.to_json_dict())
    _write_json(out / "train_report.json", train_report_to_json_dict(
        report, model_cfg, tcfg, compute_class_weights(encoded.train.labels)))
    best = report.epochs[report.best_epoch]
    test_metrics = evaluate(
        MultiVqcModel(model_cfg).predict_batch(report.final_params, encoded.test.features),
        encoded.test.labels)
    _write_csv(out / "metrics.csv", METRICS_CSV_COLUMNS, _metrics_records(
        config, raw_split.train.name,
        (best.train_metrics, best.val_metrics, test_metrics)))
    print(f"trained {model_cfg.n_vqcs} circuit(s) x {model_cfg.n_layers} layer(s): "
          f"best epoch {report.best_epoch}, val loss {best.val_loss:.6f}, "
          f"val F1 {best.val_metrics.f1:.4f}"
          f"{' (stopped early)' if report.stopped_early else ''}")
    print(f"test: precision {test_metrics.precision:.4f}, "
          f"recall {test_metrics.recall:.4f}, f1 {test_metrics.f1:.4f}")
    print(f"artifacts in {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    config_path = run_dir / "resolved_config.json"
    payload = read_json(config_path, "run config")
    if not isinstance(payload, dict) or "config" not in payload:
        raise ConfigError(f"run config {config_path} lacks key 'config'")
    config = payload["config"]
    check_document(CONFIG_LEAVES, config, f"run config {config_path}")
    pipe = Pipeline.from_json_dict(read_json(run_dir / "pipeline.json", "pipeline file"))
    model, store = load_model(str(run_dir / "model.json"))
    if not config["n_components"] == pipe.n_components == model.config.n_features:
        raise ConfigError(f"{config_path} (n_components {config['n_components']}), pipeline.json "
                          f"({pipe.n_components}) and model.json (config.n_features "
                          f"{model.config.n_features}) disagree")
    raw_split, _, _ = _load_split(config)
    data = pipe.encode(raw_split)
    split_metrics = [evaluate(model.predict_batch(store, part.features), part.labels)
                     for part in (data.train, data.validation, data.test)]
    records = _metrics_records(config, raw_split.train.name, split_metrics)
    _write_csv(run_dir / "eval_metrics.csv", METRICS_CSV_COLUMNS, records)
    for record in records:
        print(f"{record['split']}: precision {record['precision']:.4f}, "
              f"recall {record['recall']:.4f}, f1 {record['f1']:.4f}")
    print(f"wrote {run_dir / 'eval_metrics.csv'}")
    return 0


CELL_MARKER_FORMAT = "multivqc-sweep-cell/1"
SUMMARY_CSV_COLUMNS = ("features", "group", "model", "encoding", "ansatz",
                       "reuploading", "layers", "val_f1", "test_f1",
                       "test_precision", "test_recall")


def _read_marker(path: Path, base_seed: int, index: int, identity: tuple) -> SweepRow:
    """The row a finished cell's marker holds. The marker must have the cell
    marker format and the sweep's seed, and its row must be complete and be
    the cell expected at ``index``; any other marker is a ConfigError."""
    payload = read_json(path, "sweep cell marker")
    try:
        row = check_document({"format": partial(check_equal, expected=CELL_MARKER_FORMAT),
                              "base_seed": partial(check_equal, expected=base_seed),
                              "row": lambda _, record: sweep_row_from_json(record)},
                             payload, "marker")["row"]
        if (row.cell, row.model, row.features, row.n_vqcs, row.encoding, row.ansatz,
                row.reuploading) != (index, *identity):
            raise ConfigError(f"its row is not cell {index} of this grid")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}; clear {path.parent} to start over") from None
    return row


def _run_and_mark(job, path: Path, base_seed: int) -> SweepRow:
    """Run one sweep row's job and write the row's marker from the process
    that ran it, so a stopped sweep keeps the marker of every row it finished."""
    row = job()
    _write_json(path, {"format": CELL_MARKER_FORMAT, "base_seed": base_seed,
                       "row": sweep_row_to_json(row)})
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.overrides, {} if args.workers is None
                             else {"sweep": {"workers": args.workers}})
    sweep_cfg = config["sweep"]
    feature_counts = tuple(sweep_cfg["feature_counts"])
    tcfg = TrainConfig(**config["train"])
    grid = build_grid(feature_counts, tuple(sweep_cfg["vqc_counts"]))
    # Every row of the table by cell index, as (model, features, n_vqcs, encoding,
    # ansatz, reuploading): the grid cells, then a logistic baseline per width.
    expected = {cell.index: ("multivqc", cell.features, cell.n_vqcs,
                             cell.encoding.value, cell.ansatz.value, cell.reuploading)
                for cell in grid}
    if sweep_cfg["include_baseline"]:
        expected.update((len(grid) + offset, ("logreg", k, None, None, None, None))
                        for offset, k in enumerate(feature_counts))
    if not expected:
        raise ConfigError("the sweep has no rows to run: sweep.feature_counts is empty, "
                          "or sweep.vqc_counts is empty and include_baseline is false")
    raw_split, _, _ = _load_split(config)
    datasets_by_width = {k: Pipeline(k, config["angle_range"]).fit(raw_split.train.features)
                         .encode(raw_split) for k in feature_counts}

    out = _output_dir(config)
    (out / "cells").mkdir(exist_ok=True)
    markers = {index: out / "cells" / f"cell_{index:04d}.json" for index in expected}
    done = {index: _read_marker(markers[index], tcfg.seed, index, identity)
            for index, identity in expected.items() if args.resume and markers[index].is_file()}
    print(f"sweep: {len(expected)} rows ({len(done)} already done, "
          f"{len(expected) - len(done)} to run), {sweep_cfg['workers']} worker(s)")
    rescale = Rescale(config["model"]["rescale"])
    jobs = []
    for index, (model, k, *_) in expected.items():
        if index not in done:
            job = (partial(run_baseline, index, datasets_by_width[k], tcfg) if model == "logreg"
                   else partial(cell_job, grid[index], datasets_by_width[k], tcfg, rescale,
                                sweep_cfg["max_layers"]))
            jobs.append(partial(_run_and_mark, job, markers[index], tcfg.seed))
    rows = [*done.values(), *run_cells(jobs, max_workers=sweep_cfg["workers"])]

    ok_rows = [r for r in rows if r.status == "ok"]
    if not ok_rows:
        raise NumericalError(f"every sweep cell failed, e.g. cell {rows[0].cell}: "
                             f"{rows[0].error}; see cells/*.json")
    ranked = rank_rows(rows)
    _write_csv(out / "sweep.csv", SWEEP_CSV_COLUMNS,
               [sweep_row_record(rank, row)
                for rank, row in enumerate(ranked, start=1)])
    _write_json(out / "sweep.json", sweep_rows_to_json_dict(rows, tcfg.seed))

    # The best row of a group is its first ok row in rank order.
    summary: dict[tuple, dict] = {}
    for row in ranked:
        group = row.model if row.model != "multivqc" else str(row.n_vqcs)
        if row.status == "ok" and (row.features, group) not in summary:
            summary[row.features, group] = {**sweep_row_record(0, row), "group": group}
    _write_csv(out / "summary.csv", SUMMARY_CSV_COLUMNS,
               [{column: summary[key][column] for column in SUMMARY_CSV_COLUMNS}
                for key in sorted(summary)])
    failed = len(rows) - len(ok_rows)
    top = ranked[0]
    print(f"sweep complete: {len(ok_rows)} ok, {failed} failed; best "
          f"val F1 {top.validation.f1:.4f} "
          f"(model={top.model}, features={top.features}, n_vqcs={top.n_vqcs}, "
          f"enc={top.encoding}, ansatz={top.ansatz}, layers={top.layers})")
    print(f"wrote {out / 'sweep.csv'}, {out / 'sweep.json'}, {out / 'summary.csv'}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.overrides)
    raw_split, source, _ = _load_split(config)
    encoded = Pipeline(config["n_components"], config["angle_range"]).fit(
        raw_split.train.features).encode(raw_split)
    tcfg = TrainConfig(**config["train"])
    report = fit_logreg(encoded, tcfg=tcfg)
    out = _output_dir(config)
    split_metrics = logreg_split_metrics(report.model, encoded)
    m_test = split_metrics[2]
    _write_csv(out / "baseline_metrics.csv", METRICS_CSV_COLUMNS,
               _metrics_records(config, raw_split.train.name, split_metrics))
    _write_json(out / "baseline_report.json", {
        "format": "multivqc-baseline-report/1",
        "config": config, "data_source": source,
        "weights": report.model.weights.tolist(), "bias": report.model.bias,
        "best_epoch": report.best_epoch, "stopped_early": report.stopped_early,
        "train_losses": list(report.train_losses),
        "val_losses": list(report.val_losses),
    })
    print(f"logreg best epoch {report.best_epoch}: "
          f"test precision {m_test.precision:.4f}, recall {m_test.recall:.4f}, "
          f"f1 {m_test.f1:.4f}")
    print(f"artifacts in {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="multivqc",
                     description="Chained variational circuit classifiers on "
                                 "small tabular datasets")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_pca = sub.add_parser("pca-report",
                           help="explained-variance table for a dataset")
    p_pca.add_argument("--config", default=None)
    p_pca.set_defaults(func=cmd_pca_report)

    p_train = sub.add_parser("train", help="train one model and write artifacts")
    p_train.add_argument("--config", default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="re-evaluate a saved training run")
    p_eval.add_argument("--run-dir", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="hyperparameter grid sweep")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip cells with completed markers")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_base = sub.add_parser("baseline", help="class-weighted logistic regression")
    p_base.add_argument("--config", default=None)
    p_base.set_defaults(func=cmd_baseline)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        args.overrides = extra
        if not hasattr(args, "func"):
            raise ConfigError("a subcommand is required")
        return args.func(args)
    except MultiVqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DataError) else 3 if isinstance(exc, NumericalError) else 1


if __name__ == "__main__":
    sys.exit(main())

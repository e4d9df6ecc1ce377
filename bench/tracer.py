"""Spans around the calls one multivqc layer makes into the next.

The tracer replaces module-level names (and a few class attributes) with
timing wrappers, so multivqc itself is unchanged. A span is (id, parent id,
name, start, end, n), where ``n`` is a per-site count: rows, bytes or
epochs. Spans stay in memory. Sweep pool workers are forked with the
wrappers in place; each writes its own spans to a file when it exits and the
parent merges them. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def _kernel_bytes(args, kwargs, out) -> int:
    # Computed from array sizes: the input plus the output state of one call.
    return args[0].nbytes + out.nbytes


def _out_rows(args, kwargs, out) -> int:
    return out.shape[0]


def _feature_rows(args, kwargs, out) -> int:
    # forward_batch(self, store, features) and batch_loss_gradient(model, store, features, ...)
    return len(args[2] if len(args) > 2 else kwargs["features"])


def _epochs(args, kwargs, out) -> int:
    return len(out.epochs)


def _file_bytes(args, kwargs, out) -> int:
    return os.path.getsize(args[0])


# (module[:class], attribute, span name, count). Each entry is a name through
# which one layer calls the next, patched where the caller looks it up.
SITES = (
    ("multivqc.core", "apply_rotation_batch", "core.rotation", _kernel_bytes),
    ("multivqc.core", "apply_cnot_batch", "core.cnot", _kernel_bytes),
    ("multivqc.model", "expectations_z_batch", "core.expect", _kernel_bytes),
    ("multivqc.gradients", "expectations_z_batch", "core.expect", _kernel_bytes),
    ("multivqc.model", "run_circuit_batch", "core.runner", _out_rows),
    ("multivqc.gradients", "run_circuit_batch", "core.runner", _out_rows),
    ("multivqc.gradients", "run_circuit_blocks", "core.runner", _out_rows),
    ("multivqc.model:MultiVqcModel", "forward_batch", "model.forward", _feature_rows),
    ("multivqc.training", "batch_loss_gradient", "gradients.step", _feature_rows),
    ("multivqc.gradients", "stage_parameter_jacobian", "gradients.param_jac", None),
    ("multivqc.gradients", "stage_input_jacobian", "gradients.input_jac", None),
    ("multivqc.training", "_evaluate_split", "training.eval", None),
    ("multivqc.training", "train", "training.train", _epochs),
    ("multivqc.cli", "train", "training.train", _epochs),
    ("multivqc.training:Adam", "step", "training.adam", None),
    ("multivqc.training", "run_cell", "training.cell", None),
    ("multivqc.cli", "run_cells", "training.pool", None),
    ("multivqc.cli", "fit_logreg", "baseline.fit", None),
    ("multivqc.cli", "main", "cli.main", None),
    ("multivqc.cli", "_write_json", "cli.write", _file_bytes),
    ("multivqc.cli", "_write_csv", "cli.write", _file_bytes),
    ("multivqc.cli", "save_model", "cli.write", _file_bytes),
    ("multivqc.pipeline", "load_csv", "pipeline.load", None),
    ("multivqc.cli", "load_csv", "pipeline.load", None),
    ("multivqc.pipeline:Pipeline", "fit", "pipeline.fit", None),
    ("multivqc.pipeline:Pipeline", "transform", "pipeline.transform", None),
    ("multivqc.training", "evaluate", "metrics.evaluate", None),
    ("multivqc.cli", "evaluate", "metrics.evaluate", None),
    ("multivqc.baseline", "evaluate", "metrics.evaluate", None),
)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 1
        self.pid = os.getpid()
        self._patched: list[tuple] = []
        self._taken = 0
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _wrap(self, func, name: str, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, parent, name, start, end,
                          count(args, kwargs, out) if count else 0))
            return out

        return wrapper

    def install(self) -> None:
        for path, attr, name, count in SITES:
            owner = _owner(path)
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _after_fork(self) -> None:
        # In a forked pool worker: drop the parent's spans and write this
        # process's own spans when the worker exits.
        del self.spans[:]
        self.stack[:] = [0]
        self.pid = os.getpid()
        multiprocessing.util.Finalize(self, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        with open(self.worker_dir / f"spans-{self.pid}.json", "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def take(self) -> list[tuple]:
        """Spans recorded since the last call, this process's and those of
        workers that have exited, each prefixed with its process id."""
        spans = [(self.pid, *s) for s in self.spans[self._taken:]]
        self._taken = len(self.spans)
        for path in sorted(self.worker_dir.glob("spans-*.json")):
            pid = int(path.stem.split("-")[1])
            with open(path, encoding="utf-8") as fh:
                spans.extend((pid, *s) for s in json.load(fh))
            path.unlink()
        return spans


def phase_sums(spans: list[tuple]) -> Counter:
    """Additive per-layer sums over one phase (set-up or one job)."""
    covered = defaultdict(float)
    parents = {}
    for pid, sid, parent, name, start, end, n in spans:
        covered[pid, parent] += end - start
        parents[pid, sid] = (parent, name)
    sums = Counter()
    for pid, sid, parent, name, start, end, n in spans:
        busy = end - start
        sums[name + ".calls"] += 1
        sums[name + ".n"] += n
        sums[name + ".busy_s"] += busy
        sums[name + ".self_s"] += busy - covered[pid, sid]
        if name == "core.runner":
            while parent:
                parent, above = parents[pid, parent]
                if above == "gradients.step":
                    sums["gradients.runner_rows.n"] += n
                    break
    return sums


def exact_counts(sums: Counter) -> dict:
    """The counts in one phase's sums; they must repeat exactly per job."""
    return {k: v for k, v in sums.items() if k.endswith((".calls", ".n"))}


# Per-layer metrics that are plain sums over spans, by the sum each reads.
ADDITIVE = {name: name for name in (
    "gradients.step.busy_s", "gradients.param_jac.busy_s", "gradients.input_jac.busy_s",
    "core.rotation.calls", "core.rotation.busy_s", "core.cnot.calls", "core.cnot.busy_s",
    "core.expect.calls", "core.expect.busy_s", "core.runner.calls", "core.runner.self_s",
    "model.forward.calls", "model.forward.self_s", "training.eval.busy_s",
    "training.adam.busy_s", "training.cell.calls", "baseline.fit.busy_s",
    "pipeline.load.busy_s", "pipeline.fit.busy_s", "pipeline.transform.busy_s",
    "metrics.evaluate.calls",
)}
ADDITIVE.update({
    "core.runner.rows": "core.runner.n",
    "model.forward.rows": "model.forward.n",
    "training.epochs": "training.train.n",
    "training.trains": "training.train.calls",
    "cli.artifact_bytes": "cli.write.n",
    "cli.artifact_files": "cli.write.calls",
})


def durations(spans: list[tuple], name: str) -> list[float]:
    return [end - start for _, _, _, span, start, end, _ in spans if span == name]


def layer_metrics(setup: Counter, jobs: list[Counter], cells: list[float],
                  workers: int) -> dict:
    """Per-layer metrics for one set-up plus one job, from the set-up's sums,
    each traced job's sums and every traced sweep cell's busy time."""
    total = sum(jobs, Counter())

    def one(key: str) -> float:
        return setup[key] + total[key] / len(jobs)

    out = {name: one(key) for name, key in ADDITIVE.items()}
    out["core.bytes_computed"] = sum(one(f"core.{k}.n") for k in ("rotation", "cnot", "expect"))
    out["cli.self_s"] = one("cli.main.self_s") + one("cli.write.self_s")
    samples = total["gradients.step.n"]
    out["gradients.circuit_rows_per_sample"] = (
        total["gradients.runner_rows.n"] / samples if samples else 0.0)
    out["training.cell.busy_s_p50"] = float(np.median(cells)) if cells else 0.0
    out["training.cell.busy_s_max"] = max(cells, default=0.0)
    capacity = workers * total["training.pool.busy_s"]
    out["training.pool.idle_s"] = (
        (capacity - total["training.cell.busy_s"]) / len(jobs) if capacity else 0.0)
    out["training.pool.efficiency"] = total["training.cell.busy_s"] / capacity if capacity else 0.0
    return out

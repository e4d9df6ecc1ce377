"""Layered benchmark for multivqc.

    python3 bench/run.py --workload train_chain --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports multivqc from ./src and
writes scratch files under ./.bench_out. It prints one line per metric,
the correctness checks and the machine facts, and, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced run. See bench/README.md.
"""

import os

# One BLAS thread per process, pinned before numpy loads: the parent plus the
# sweep's pool workers then never run more threads than processes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Whatever the caller's environment says, use the bundled datasets and the
# output directories that the benchmark passes to the CLI.
for _var in ("MULTIVQC_DATA_DIR", "MULTIVQC_OUTPUT_DIR"):
    os.environ.pop(_var, None)

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Jobs and unit ops alternate over the whole run, so that a slow spell of a
# shared machine falls on both alike. A round is one job and then unit ops
# for (1 - JOB_SHARE) / JOB_SHARE of the job's time, at least OPS_PER_ROUND.
JOB_SHARE = 0.6
OPS_PER_ROUND = 2
MIN_ROUNDS = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "cells_per_min": "cells/min",
    "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gradients.step.busy_s": "s", "gradients.param_jac.busy_s": "s",
    "gradients.input_jac.busy_s": "s", "gradients.circuit_rows_per_sample": "rows/sample",
    "core.rotation.calls": "count", "core.rotation.busy_s": "s",
    "core.cnot.calls": "count", "core.cnot.busy_s": "s",
    "core.expect.calls": "count", "core.expect.busy_s": "s",
    "core.bytes_computed": "bytes",
    "core.runner.calls": "count", "core.runner.rows": "rows", "core.runner.self_s": "s",
    "model.forward.calls": "count", "model.forward.rows": "rows", "model.forward.self_s": "s",
    "training.eval.busy_s": "s", "training.epochs": "count", "training.trains": "count",
    "training.adam.busy_s": "s", "training.cell.calls": "count",
    "training.cell.busy_s_p50": "s", "training.cell.busy_s_max": "s",
    "training.pool.idle_s": "s", "training.pool.efficiency": "ratio",
    "baseline.fit.busy_s": "s", "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "cli.artifact_files": "count",
    "pipeline.load.busy_s": "s", "pipeline.fit.busy_s": "s", "pipeline.transform.busy_s": "s",
    "metrics.evaluate.calls": "count", "trace.overhead_ratio": "ratio",
}

FAILED = object()


class Tally:
    """Attempted and failed units: jobs, the cells each job finishes, unit
    ops, set-up probes and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool, units: int = 1, failed: int | None = None) -> bool:
        self.attempted += units
        self.failed += (0 if ok else units) if failed is None else failed
        return ok

    def call(self, label: str, fn, *args):
        """Run ``fn`` at the benchmark's boundary: an exception is reported
        and counted as one failed unit, and FAILED is returned."""
        try:
            return fn(*args)
        except Exception:
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            self.count(False)
            return FAILED

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.count(ok)
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))


def run_job(wl, tally: Tally):
    """Run the workload's job once; returns (wall time, result) if it
    succeeded, else None."""
    start = time.perf_counter()
    res = tally.call("job", wl.job)
    wall = time.perf_counter() - start
    if res is FAILED:
        return None
    tally.count(res.ok)
    tally.count(True, units=res.cells, failed=res.failed_cells)
    return (wall, res) if res.ok else None


def run_ops(wl, tally: Tally, seconds: float, minimum: int, first: int = 0):
    """Repeat the workload's unit op, numbering ops from ``first``; returns
    the times of the ops that passed their check and the next op number."""
    times = []
    deadline = time.perf_counter() + seconds
    i = first
    while i < first + minimum or time.perf_counter() < deadline:
        start = time.perf_counter()
        out = tally.call("op", wl.op, i)
        elapsed = time.perf_counter() - start
        if out is not FAILED:
            ok = tally.call("op check", wl.check_op, i, out)
            if ok is not FAILED and tally.count(ok):
                times.append(elapsed)
        i += 1
    return times, i


def probe_setup(args, run_dir: Path) -> list[float]:
    """Set-up time of fresh processes: interpreter start, imports, dataset
    load, split, pipeline fit and model build, up to the first timed op."""
    samples = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(run_dir / f"probe-{k}")]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"FAILED set-up probe {k}: timed out", file=sys.stderr)
            continue
        if proc.returncode == 0:
            samples.append(float(proc.stdout.split()[-1]) - start)
        else:
            sys.stderr.write(proc.stderr)
    return samples


def peak_rss_mb(workers: int) -> float:
    """Parent's peak RSS plus, for each pool worker, the largest worker's
    peak. Pages shared after fork count once per process, so this bounds the
    process tree's peak from above."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def median(values) -> float:
    return float(np.median(values))


def machine_facts(wl, seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads_per_process": BLAS_THREADS, "processes": 1 + wl.workers,
        "sweep_workers": wl.workers, "seed": seed, "src_py_lines": src_lines,
    }


def end_to_end(args, wl, tally: Tally, run_dir: Path, facts: dict):
    """Untraced run: rounds of one job and some unit ops, then set-up probes."""
    wl.setup()
    warm = run_job(wl, tally)
    walls, timed, ops = [], [], []
    deadline = time.perf_counter() + args.seconds
    rounds = next_op = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        done = run_job(wl, tally)
        if done:
            walls.append(done[0])
            timed.append(done[1])
        budget = (done[0] if done else 0.0) * (1.0 - JOB_SHARE) / JOB_SHARE
        times, next_op = run_ops(wl, tally, budget, OPS_PER_ROUND, first=next_op)
        ops += times
        rounds += 1
    results = ([warm[1]] if warm else []) + timed
    rss = peak_rss_mb(wl.workers)
    setups = probe_setup(args, run_dir)
    tally.count(len(setups) == SETUP_PROBES, units=SETUP_PROBES,
                failed=SETUP_PROBES - len(setups))
    if not (walls and ops and setups):
        return {}, results
    facts["samples"] = {"jobs": len(walls), "ops": len(ops), "setup_probes": len(setups)}
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "rows_per_s": median([r.rows / w for r, w in zip(timed, walls)]),
        "cells_per_min": median([60.0 * r.cells / w for r, w in zip(timed, walls)]),
        "op_ms_p50": 1e3 * median(ops),
        "op_ms_p90": 1e3 * float(np.percentile(ops, 90)),
        "peak_rss_mb": rss,
    }, results


def traced(args, wl, tally: Tally, run_dir: Path, facts: dict):
    """Traced run: a traced set-up, then rounds of one untraced and one
    traced job, so that both see the same process history. Each traced
    job's spans are summed as soon as it ends; only the set-up's and the
    first job's spans are kept, and written to the trace file."""
    tr = tracing.Tracer(run_dir)
    tr.install()
    try:
        wl.setup()
    finally:
        setup_spans = tr.take()
        tr.uninstall()
    results, plain, walls, first_job, job_sums, cells = [], [], [], [], [], []
    run_job(wl, tally)  # warm-up
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        done = run_job(wl, tally)
        if done:
            plain.append(done[0])
            results.append(done[1])
        tr.install()
        try:
            done = run_job(wl, tally)
        finally:
            tr.uninstall()
        spans = tr.take()
        if not first_job:
            first_job.extend(spans)
        job_sums.append(tracing.phase_sums(spans))
        cells.extend(tracing.durations(spans, "training.cell"))
        if done:
            walls.append(done[0])
            results.append(done[1])
        rounds += 1
    run_ops(wl, tally, 0.0, 2)  # the outputs that the checks use
    counts = [tracing.exact_counts(sums) for sums in job_sums]
    tally.check("per-layer counters repeat exactly across traced jobs",
                len(counts) >= 2 and all(c == counts[0] for c in counts),
                f"{len(counts)} jobs")
    with open(OUT / f"trace-{wl.name}.json", "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_spans, "first_job": first_job}, fh)
    facts["samples"] = {"untraced_jobs": len(plain), "traced_jobs": len(walls)}
    if not (plain and walls):
        return {}, results
    metrics = tracing.layer_metrics(tracing.phase_sums(setup_spans), job_sums, cells,
                                    wl.workers)
    metrics["trace.overhead_ratio"] = median(walls) / median(plain)
    return metrics, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "multivqc" / "__init__.py").is_file():
        print(f"error: no multivqc sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import multivqc
    if Path(multivqc.__file__).resolve().parent != (SRC / "multivqc").resolve():
        print(f"error: imported multivqc from {multivqc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    if args.setup_probe is not None:
        cls(args.seed, Path(args.setup_probe)).setup()
        print(time.monotonic())
        return 0

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    wl = cls(args.seed, run_dir)
    facts = machine_facts(wl, args.seed)
    try:
        if args.trace:
            metrics, results = traced(args, wl, tally, run_dir, facts)
            units = PER_LAYER
        else:
            metrics, results = end_to_end(args, wl, tally, run_dir, facts)
            units = END_TO_END
        if results:
            tally.check("job artifacts byte-identical across jobs",
                        all(r.fingerprint == results[0].fingerprint for r in results),
                        f"{len(results)} jobs")
            checks = tally.call("checks", wl.checks)
            for name, ok, detail in [] if checks is FAILED else checks:
                tally.check(name, ok, detail)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = tally.failed == 0 and set(metrics) == set(units)
    facts["failed_ratio"] = tally.failed / max(tally.attempted, 1)
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:36s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": max(tally.attempted, 1), "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

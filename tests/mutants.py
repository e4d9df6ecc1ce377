"""Mutants the test suite must kill: run ``python tests/mutants.py``.

Each mutant replaces one exact piece of source text with a broken version
and names the tests that must then fail. The script applies each mutant to
its own temporary copy of the repository, runs only the named tests there
and prints ``killed`` when every one of them fails, else ``survived``. It
exits 1 if any mutant survives, and stops with an error if a mutant's old
text no longer occurs exactly once: a refactor that moves the code carries
its mutants forward.

Pytest does not collect this file, so the tier-1 suite does not run the
mutants; ``tests/test_mutants.py`` checks in tier-1 that each old text still
occurs once and each named test still exists.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORE = "src/multivqc/core.py"
ADJOINT = "tests/test_gradients.py::TestAdjointGradient::"
SHIFT_LISTS = ADJOINT + "test_random_gate_lists_match_shift_reference"
SHIFT_SHAPES = ADJOINT + "test_matches_shift_rule_reference_across_shapes"
ORACLE_LISTS = "tests/test_core.py::TestCompiledRunner::test_random_gate_lists_match_oracle"
CLI = "src/multivqc/cli.py"
SWEEP = "tests/test_cli.py::TestSweep::"
INTERRUPTED = SWEEP + "test_interrupted_sweep_resumes_without_redoing_finished_rows"
WRAPPED = SWEEP + "test_pooled_jobs_pickle_while_run_cell_is_wrapped"
MARKER_DAMAGE = SWEEP + "test_resume_rejects_markers_from_other_seed"
EVAL_DAMAGE = "tests/test_cli.py::TestEvalUnreadableRun::test_damaged_artifact_is_config_error"
BAD_SETTINGS = "tests/test_cli.py::TestExitCodes::test_bad_training_settings_are_config_errors"
ROW_RECORDS = "tests/test_training.py::TestSweepRows::test_from_json_rejects_unreadable_records"
GRID_DIGEST = "tests/test_grid_digest.py::TestGridDigest::test_template_grid_numerics_are_unchanged"
PIPELINE = "src/multivqc/pipeline.py"

# (name, file, old text, new text, tests that must fail)
MUTANTS = [
    ("undo gathers through the CNOT permutation instead of scattering", CORE,
     "        spare[circuit.perms[k - 1]] = stacked\n",
     "        np.take(stacked, circuit.perms[k - 1], axis=0, out=spare, mode=\"clip\")\n",
     (SHIFT_LISTS,)),
    ("parameter cells indexed run-major in the position-major table", CORE,
     "    slots = [(i, g.param_id) for i, g in enumerate(cells)\n",
     "    slots = [(i % len(runs) * shape[0] + i // len(runs), g.param_id)\n"
     "             for i, g in enumerate(cells)\n",
     (ORACLE_LISTS, SHIFT_LISTS, SHIFT_SHAPES)),
    ("padding cells at angle 1", CORE,
     "        angles=np.array([0.0 if g is None or g.angle is None else g.angle\n",
     "        angles=np.array([1.0 if g is None else 0.0 if g.angle is None else g.angle\n",
     (ORACLE_LISTS, SHIFT_LISTS, SHIFT_SHAPES)),
    ("suffix products multiplied in the wrong order", CORE,
     "        full = _product(full, mats[:, i])\n",
     "        full = _product(mats[:, i], full)\n",
     (SHIFT_LISTS, SHIFT_SHAPES)),
    ("first segment holds chains only for the qubits a gate touches", CORE,
     "    segments: list[dict] = [{q: [] for q in range(n_qubits)}]\n",
     "    segments: list[dict] = [{}]\n",
     (ORACLE_LISTS, SHIFT_LISTS)),
    ("sweep stops one segment early", CORE,
     "    for k in range(len(circuit.segments) - 1, -1, -1):\n",
     "    for k in range(len(circuit.segments) - 1, 0, -1):\n",
     (SHIFT_LISTS, SHIFT_SHAPES)),
    ("walk never crosses a feature gate at a chain's start", CORE,
     "            if r == 0 and (lead or not input_gradient):\n",
     "            if r == 0:\n",
     (SHIFT_LISTS, SHIFT_SHAPES)),
    ("environment conjugated as u^H (m u), re-associated", CORE,
     "    return _product(_product(_dagger(u), m), u)\n",
     "    return _product(_dagger(u), _product(m, u))\n",
     (GRID_DIGEST,)),
    ("sweep markers written in a loop after every row is done", CLI,
     "            jobs.append(partial(_run_and_mark, job, markers[index], tcfg.seed))\n"
     "    rows = [*done.values(), *run_cells(jobs, max_workers=sweep_cfg[\"workers\"])]\n",
     "            jobs.append(job)\n"
     "    fresh = run_cells(jobs, max_workers=sweep_cfg[\"workers\"])\n"
     "    for row in fresh:\n"
     "        _write_json(markers[row.cell], {\"format\": CELL_MARKER_FORMAT,\n"
     "                                        \"base_seed\": tcfg.seed,\n"
     "                                        \"row\": sweep_row_to_json(row)})\n"
     "    rows = [*done.values(), *fresh]\n",
     (INTERRUPTED,)),
    ("grid job holds run_cell as it was when the job was built", CLI,
     "                   else partial(cell_job, grid[index], datasets_by_width[k], tcfg, rescale,\n"
     "                                sweep_cfg[\"max_layers\"]))\n",
     "                   else partial(sys.modules[\"multivqc.training\"].run_cell,\n"
     "                                grid[index], datasets_by_width[k], tcfg, rescale,\n"
     "                                max_layers=sweep_cfg[\"max_layers\"]))\n",
     (WRAPPED,)),
    ("pipeline.json component rows not checked for orthonormality", PIPELINE,
     "        if not np.all(np.abs(gram - np.eye(pipe.n_components)) <= 1e-9):\n",
     "        if False:\n",
     (EVAL_DAMAGE + "[_huge_pca_components]", EVAL_DAMAGE + "[_doubled_component_row]")),
    ("document checker accepts keys its table does not name", "src/multivqc/errors.py",
     "            elif parts not in leaves:\n"
     "                raise ConfigError(f\"{where} has unknown key {'.'.join(parts)!r}\")\n",
     "",
     (EVAL_DAMAGE + "[_unknown_pipeline_key]", EVAL_DAMAGE + "[_unknown_model_key]",
      EVAL_DAMAGE + "[_unknown_model_config_key]", EVAL_DAMAGE + "[_unknown_run_config_leaf]",
      MARKER_DAMAGE + "[_unknown_marker_key]")),
    ("marker seed compared with ==, so false passes for seed 0", CLI,
     "                              \"base_seed\": partial(check_equal, expected=base_seed),\n",
     "                              \"base_seed\": lambda name, seed: seed if seed == base_seed\n"
     "                              else check_equal(name, seed, base_seed),\n",
     (MARKER_DAMAGE + "[_false_base_seed]",)),
    ("eval does not check the three documents against each other", CLI,
     "    if not config[\"n_components\"] == pipe.n_components == model.config.n_features:\n",
     "    if False:\n",
     (EVAL_DAMAGE + "[_mismatched_run_config_components]",
      EVAL_DAMAGE + "[_model_of_another_width]")),
    ("load_csv fills in the schema defaults but checks no key", PIPELINE,
     "    schema = _checked_schema(schema, \"schema\")\n",
     "    schema = {**SCHEMA_DEFAULTS, **schema}\n",
     ("tests/test_pipeline.py::TestLoadCsv::test_misspelled_schema_key_is_refused",)),
    ("a schema given with a built-in dataset name is ignored", CLI,
     "        if config[\"schema\"] is not None:\n",
     "        if False:\n",
     (BAD_SETTINGS,)),
    ("an enum config default kept as the member, not its value", CLI,
     "    **{f\"{section}.{field.name}\": (getattr(field.default, \"value\", field.default),\n",
     "    **{f\"{section}.{field.name}\": (field.default,\n",
     ("tests/test_cli.py::TestRunConfig::test_defaults_are_plain_json",)),
    ("train.max_epochs has no cap", "src/multivqc/training.py",
     "    \"max_epochs\": partial(check_int, low=1, high=100_000),\n",
     "    \"max_epochs\": partial(check_int, low=1),\n",
     (BAD_SETTINGS,)),
    ("model.json parameter layout not checked against its config", "src/multivqc/model.py",
     "    if counts != model.param_counts:\n",
     "    if False:\n",
     (EVAL_DAMAGE + "[_model_of_another_ansatz]",)),
    ("pipeline.json encoder column with min > max accepted", PIPELINE,
     "        if not np.all(encoder[\"mins\"] <= encoder[\"maxs\"]):\n",
     "        if False:\n",
     (EVAL_DAMAGE + "[_inverted_encoder_column]",)),
    ("train's numerical failure re-raised without its epoch, batch and norm",
     "src/multivqc/training.py",
     "                except NumericalError as exc:\n"
     "                    raise NumericalError(\n"
     "                        f\"epoch {epoch}, batch {batch_no}, parameter norm \"\n"
     "                        f\"{np.linalg.norm(store.values):.6g}: {exc}\"\n"
     "                    ) from exc\n",
     "                except NumericalError:\n"
     "                    raise\n",
     ("tests/test_cli.py::TestExitCodes::test_numerical_failure_in_train_names_its_batch",)),
    ("a blank-column check lets any value through", "src/multivqc/errors.py",
     "    return lambda name, value: means if value == blank else check(name, value)\n",
     "    return lambda name, value: means if value == blank else value\n",
     (ROW_RECORDS,)),
]


def apply(tree: Path, path: str, old: str, new: str) -> None:
    target = tree / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"error: old text occurs {text.count(old)} times in {path}, "
                         f"not once:\n{old}")
    target.write_text(text.replace(old, new), encoding="utf-8")


def fails(tree: Path, test: str) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             test], cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # 0 passed, 1 some failed; else it did not run
        raise SystemExit(f"error: pytest could not run {test}:\n{result.stdout}{result.stderr}")
    return result.returncode == 1


def main() -> int:
    survived = 0
    for name, path, old, new, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as scratch:
            tree = Path(scratch)
            for part in ("src", "tests", "bench"):
                shutil.copytree(ROOT / part, tree / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            apply(tree, path, old, new)
            missed = [test for test in tests if not fails(tree, test)]
        survived += bool(missed)
        print(f"{'survived' if missed else 'killed'}: {name}"
              + "".join(f"\n  passes: {test}" for test in missed), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every name a ``multivqc`` module imports is used by that module, every
name it defines at top level is used somewhere, and every dataclass field is
read somewhere.

An import kept only so that other code can look the name up on the module
hides dead code, and so does a function, class, constant or field that
nothing reads. ``__init__.py`` exists to re-export names and is exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multivqc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .core import GateOp, rotation\n"
              "def f(g: GateOp):\n    return np.zeros(1), os.sep\n")
    assert unused_imports(source) == ["rotation"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(source: str) -> set[str]:
    """Functions, classes and constants a module defines at top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def referenced_names(source: str) -> set[str]:
    """Names read, attributes, and strings (a string can name a function to
    look up, as the benchmark tracer's site table does)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_dead_name_checker_sees_names_attributes_and_strings():
    source = ("LIMIT = 3\nUNUSED = 4\ndef f():\n    return LIMIT\n"
              "class K:\n    pass\n")
    assert top_level_names(source) == {"LIMIT", "UNUSED", "f", "K"}
    refs = referenced_names("import m\nm.f()\nx = 'K'\n")
    assert top_level_names(source) - referenced_names(source) - refs == {"UNUSED"}


def unreferenced(paths) -> list[str]:
    """``module.name`` of each top-level name in ``MODULES`` that no file in
    ``paths`` references."""
    refs = set()
    for path in paths:
        refs |= referenced_names(path.read_text(encoding="utf-8"))
    return sorted(f"{path.stem}.{name}" for path in MODULES
                  for name in top_level_names(path.read_text(encoding="utf-8")) - refs)


def test_every_top_level_name_is_referenced():
    folders = ("src", "tests", "bench")
    assert unreferenced(p for folder in folders for p in (ROOT / folder).rglob("*.py")) == []


# Top-level src names that no src module reads, with the code outside src that
# needs each one. A function that only tests or the benchmark call belongs in
# tests/ unless it is listed here with its reason.
UNREAD_IN_SRC = {
    "core.apply_rotation_batch": "bench/tracer.py site; tests/test_core.py",
    "core.apply_cnot_batch": "bench/tracer.py site; tests/test_core.py",
    "gradients.batch_loss": "bench/workloads.py gradient check; tests/test_gradients.py",
    "gradients.stage_parameter_jacobian": "bench/tracer.py site; tests/oracles.py",
    "gradients.stage_input_jacobian": "bench/tracer.py site; tests/oracles.py",
}


def test_names_no_src_module_reads_are_listed():
    assert unreferenced(MODULES) == sorted(UNREAD_IN_SRC)


def dataclass_fields(source: str) -> set[str]:
    """``Class.field`` of each field a module's dataclasses declare."""
    fields = set()
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            fields.update(f"{node.name}.{item.target.id}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
    return fields


def attribute_reads(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_field_checker_sees_only_attribute_reads():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n    Z = 1\n"
              "@dataclass\nclass B:\n    w: int\nclass C:\n    v: int\n"
              "def f(a, b):\n    a.y = b.w\n    return A(x=1), getattr(a, 'x')\n")
    assert dataclass_fields(source) == {"A.x", "A.y", "B.w"}
    assert attribute_reads(source) == {"w"}


# Dataclass fields that no src module reads as an attribute, with the code
# outside src that reads each one. A field nothing reads is dead weight that
# every writer still has to fill in.
UNREAD_FIELDS = {
    "model.ForwardTrace.stage_expectations": "bench/oracle.py",
    "training.LayerSearchReport.tried_layer_counts": "tests/test_training.py",
    "training.LayerSearchReport.validation_losses": "tests/test_training.py",
    "training.LayerSearchReport.stop_reason": "tests/test_training.py",
}


def test_dataclass_fields_no_src_module_reads_are_listed():
    reads = set()
    for path in MODULES:
        reads |= attribute_reads(path.read_text(encoding="utf-8"))
    unread = sorted(f"{path.stem}.{field}" for path in MODULES
                    for field in dataclass_fields(path.read_text(encoding="utf-8"))
                    if field.split(".")[1] not in reads)
    assert unread == sorted(UNREAD_FIELDS)


def test_cli_import_loads_no_process_pool():
    # Only a sweep with workers > 1 starts a pool; every other command's
    # start-up does without the multiprocessing modules.
    probe = ("import sys, multivqc.cli; print(sorted("
             "{'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

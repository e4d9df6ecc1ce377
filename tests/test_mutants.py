"""Every mutant in ``tests/mutants.py`` still applies and still names tests
that exist, so a refactor that strands one fails here rather than only when
the mutant script is run."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def methods(path: str, class_name: str) -> set[str]:
    """The method names of class ``class_name`` in the file at ``path``."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {item.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == class_name
            for item in node.body if isinstance(item, ast.FunctionDef)}


@pytest.mark.parametrize("name, path, old, new, tests", mutants.MUTANTS,
                         ids=[mutant[0] for mutant in mutants.MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(name, path, old, new, tests):
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    for test in tests:
        file, class_name, function = test.split("[")[0].split("::")
        assert function in methods(file, class_name), test

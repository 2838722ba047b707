"""Exact elimination lives in one module: only ``linalg.py`` takes row steps
or gcds, and the oracles that check it share none of its code."""

import ast
from pathlib import Path

import apolar

_CORE_NAMES = {"row_step", "gcd"}


def _names(tree):
    """Every identifier a module binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_row_steps_and_gcds_are_taken_only_in_linalg_py():
    package = Path(apolar.__file__).parent
    users = sorted(
        path.name
        for path in package.glob("*.py")
        if _CORE_NAMES & set(_names(ast.parse(path.read_text())))
    )
    assert users == ["linalg.py"]


def test_oracles_do_not_import_the_elimination_core():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not imported & {"apolar.linalg", "apolar.generators"}

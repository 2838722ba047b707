"""Contraction images have one source in the library: the catalecticant
columns.  The sparse ``contract`` stays the public action, and no module but
``polynomials.py`` calls it."""

import ast
from pathlib import Path

import apolar


def _calls_contract(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "contract":
                return True
    return False


def test_only_polynomials_py_calls_contract():
    package = Path(apolar.__file__).parent
    callers = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "polynomials.py"
        and _calls_contract(ast.parse(path.read_text()))
    )
    assert callers == []

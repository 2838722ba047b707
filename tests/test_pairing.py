"""The library has one pairing: no function takes a pairing mode, and the
divided-power rescaling that reads differentiation as contraction has one
home, ``polynomials.differentiation_form``."""

import ast
from pathlib import Path

import apolar

_PACKAGE = Path(apolar.__file__).parent


def _trees():
    for path in sorted(_PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _parameters(node):
    args = node.args
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}


def test_no_function_takes_a_convention():
    offenders = [
        f"{name}:{getattr(node, 'name', '<lambda>')}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "convention" in _parameters(node)
    ]
    assert offenders == []


def test_factorial_is_used_only_in_polynomials_py():
    users = [
        name
        for name, tree in _trees()
        if any(
            (isinstance(node, ast.Name) and node.id == "factorial")
            or (isinstance(node, ast.Attribute) and node.attr == "factorial")
            or (isinstance(node, ast.alias) and node.name == "factorial")
            for node in ast.walk(tree)
        )
    ]
    assert users == ["polynomials.py"]


def test_the_package_exports_no_pairing_mode():
    retired = {"PairingConvention", "DUAL_BASIS", "DIFFERENTIATION"}
    assert not retired & set(dir(apolar))
    assert "differentiation_form" in apolar.__all__

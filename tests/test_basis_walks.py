"""Each monomial basis is walked once: the walk is a loop, not a recursion,
and the projection maps never compute a lift image of their source basis."""

import ast
from pathlib import Path

import pytest

import apolar.locus
from apolar.locus import projection_map_report
from apolar.monomials import monomial_count


def test_no_function_in_monomials_calls_itself():
    tree = ast.parse((Path(apolar.__file__).parent / "monomials.py").read_text())
    recursive = sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == fn.name
    )
    assert recursive == []


@pytest.mark.parametrize("n,d", [(2, 3), (2, 5), (3, 3), (3, 4)])
def test_projection_maps_take_no_lift_image_of_the_source_basis(n, d, monkeypatch):
    calls = []
    lift_image = apolar.locus.lift_image

    def spy(num_vars, degree):
        calls.append((num_vars, degree))
        return lift_image(num_vars, degree)

    monkeypatch.setattr("apolar.locus.lift_image", spy)
    projection_map_report(n, d)
    source_vars = monomial_count(n, d - 1) + n
    assert calls and all(num_vars != source_vars for num_vars, _ in calls)

"""Each monomial basis is walked once: the walk is a loop, not a recursion,
and the projection maps never compute a lift image of their source basis.
The cell complex walks no ambient basis at all: its cells, minimal non-faces
and covering edges come from the facets of its cells."""

import ast
from pathlib import Path

import pytest

import apolar.locus
from apolar.complexes import divisor_closure, minimal_nonfaces
from apolar.locus import projection_map_report
from apolar.monomials import enumerate_exponents, monomial_count

from oracles import divisor_set
from sampling import seeded_cases


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


def test_complexes_imports_no_basis_walk():
    tree = ast.parse((Path(apolar.__file__).parent / "complexes.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    walks = {"enumerate_exponents", "iter_exponents", "basis_index", "product"}
    assert imported.isdisjoint(walks | {"itertools", "monomials"})


def _seeded_supports():
    dims = [(1, 4), (2, 3), (2, 5), (3, 2), (3, 4), (4, 3), (4, 5)]
    for rng, n, d in seeded_cases(17017, 42, dims):
        basis = enumerate_exponents(n, d)
        support = [m for m in basis if rng.coin()] or [basis[0]]
        yield n, d, support


def test_closure_is_the_union_of_the_divisor_sets():
    for n, d, support in _seeded_supports():
        cells = set().union(*map(divisor_set, support))
        assert divisor_closure(support, n).cells == cells


def test_layers_are_the_cells_by_degree():
    for n, d, support in _seeded_supports():
        zeta = divisor_closure(support, n)
        assert zeta.layers[0] == ((0,) * n,)
        assert len(zeta.layers) == d + 1
        for j in range(1, d + 1):
            assert zeta.layers[j] == tuple(sorted(m for m in zeta.cells if sum(m) == j))


def test_minimal_nonfaces_equal_the_ambient_walk():
    for n, d, support in _seeded_supports():
        zeta = divisor_closure(support, n)
        for j in range(1, d + 3):
            walk = tuple(
                m
                for m in enumerate_exponents(n, j)
                if m not in zeta.cells and divisor_set(m) - {m} <= zeta.cells
            )
            assert minimal_nonfaces(zeta, j) == walk

"""The contract of the eight value types: immutable, equal by class and
fields, hashed alike when equal, printed as ``Name(field=value, ...)``, built
by keyword with their parameter names, and round-tripped by ``pickle`` and
``copy.deepcopy``."""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import apolar
from apolar.complexes import CellComplex, complex_of
from apolar.generators import GeneratorSet, extract_generators
from apolar.linalg import RationalMatrix
from apolar.locus import (
    ComponentDescriptor,
    ProjectionMap,
    SupportConditions,
    enumerate_admissible_supports,
    support_conditions,
    u_elimination_matrix,
)
from apolar.perazzo import Degree2Census, build_full_perazzo, degree2_census
from apolar.polynomials import GradedPolynomial, graded_polynomial

F = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
P = GradedPolynomial(2, 2, {(1, 1): 1})
Q = GradedPolynomial(2, 2, {(2, 0): 1})

# name: (a fresh value, the keywords that build it, its repr)
VALUES = {
    "RationalMatrix": (
        lambda: RationalMatrix(2, 2, [1, Fraction(1, 2), 0, -3]),
        {"rows": 2, "cols": 2, "entries": (1, Fraction(1, 2), 0, -3)},
        "RationalMatrix(rows=2, cols=2, entries=(1, Fraction(1, 2), 0, -3))",
    ),
    "GradedPolynomial": (
        lambda: graded_polynomial(2, {(2, 0): 1, (1, 1): 1}),
        {"num_vars": 2, "degree": 2, "terms": {(2, 0): 1, (1, 1): 1}},
        "GradedPolynomial(num_vars=2, degree=2, terms=mappingproxy("
        "{(2, 0): Fraction(1, 1), (1, 1): Fraction(1, 1)}))",
    ),
    "CellComplex": (
        lambda: complex_of(F),
        {"num_vars": 2, "cells": {(1, 0), (0, 1), (2, 0), (1, 1)}},
        "CellComplex(num_vars=2, cells=frozenset({(0, 1), (1, 0), (1, 1), (2, 0)}))",
    ),
    "GeneratorSet": (
        lambda: extract_generators(F),
        {
            "num_vars": 2,
            "socle_degree": 2,
            "powers": frozenset(),
            "nonface_monomials": {2: {(0, 2)}},
            "differences": {2: [(P, Q)]},
        },
        "GeneratorSet(num_vars=2, socle_degree=2, powers=frozenset(), "
        "nonface_monomials=mappingproxy({2: frozenset({(0, 2)})}), "
        "differences=mappingproxy({2: ((GradedPolynomial(num_vars=2, degree=2, "
        "terms=mappingproxy({(1, 1): 1})), GradedPolynomial(num_vars=2, "
        "degree=2, terms=mappingproxy({(2, 0): 1}))),)}))",
    ),
    "SupportConditions": (
        lambda: support_conditions([(2, 0)], 2),
        {
            "covers_all_variables": False,
            "unique_derivative_source": True,
            "no_cross_collision": True,
        },
        "SupportConditions(covers_all_variables=False, "
        "unique_derivative_source=True, no_cross_collision=True)",
    ),
    "ComponentDescriptor": (
        lambda: enumerate_admissible_supports(2, 2)[1],
        {
            "support": [(0, 2), (2, 0)],
            "derived_set": [(0, 1), (1, 0)],
            "dim_support": 1,
            "dim_derived": 1,
        },
        "ComponentDescriptor(support=((0, 2), (2, 0)), "
        "derived_set=((0, 1), (1, 0)), dim_support=1, dim_derived=1)",
    ),
    "ProjectionMap": (
        lambda: u_elimination_matrix(2, 2),
        {"rows": 3, "images": [None, None, 0, None, 1, 2, None, None, None, None]},
        "ProjectionMap(rows=3, "
        "images=(None, None, 0, None, 1, 2, None, None, None, None))",
    ),
    "Degree2Census": (
        lambda: degree2_census(F),
        {
            "monomial_count": 1,
            "binomial_count": 1,
            "other_count": 0,
            "total_dim": 2,
            "h2": 1,
        },
        "Degree2Census(monomial_count=1, binomial_count=1, other_count=0, "
        "total_dim=2, h2=1)",
    ),
}

ROWS = pytest.mark.parametrize("name", VALUES)


@ROWS
def test_keyword_construction_uses_the_parameter_names(name):
    make, keywords, _ = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    assert type(value)(**keywords) == value


@ROWS
def test_fields_refuse_assignment_and_deletion(name):
    make, keywords, _ = VALUES[name]
    value = make()
    for field in [*keywords, "undeclared"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make()


@ROWS
def test_equal_values_hash_alike(name):
    make, _, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@ROWS
def test_a_value_equals_no_tuple_and_no_other_type(name):
    make, keywords, _ = VALUES[name]
    value = make()
    assert value != tuple(getattr(value, field) for field in keywords)
    for other, (make_other, _, _) in VALUES.items():
        if other != name:
            assert value != make_other()


@ROWS
def test_repr_is_the_field_listing(name):
    make, _, text = VALUES[name]
    assert repr(make()) == text


@ROWS
def test_pickle_and_deepcopy_round_trip(name):
    make, _, _ = VALUES[name]
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


@ROWS
def test_as_dict_maps_the_fields_to_their_values(name):
    make, _, _ = VALUES[name]
    value = make()
    assert value.as_dict() == {field: getattr(value, field) for field in value._fields}
    assert list(value.as_dict()) == list(value._fields)


def test_only_the_base_defines_the_generic_methods():
    """Equality, hash, pickling and ``as_dict`` are ``values.Record``'s
    alone: no value type keeps its own copy of a rule."""
    generic = {"__eq__", "__hash__", "__reduce__", "as_dict"}
    found = []
    for path in sorted(Path(apolar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found += [(path.name, node.name, item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name in generic]
    assert sorted(found) == [("values.py", "Record", name) for name in sorted(generic)]


def _reversed(mapping):
    return dict(reversed(mapping.items()))


def test_mapping_fields_hash_by_their_items():
    # the hash is the one GradedPolynomial's own __hash__ gave before the
    # base owned the rule
    p = build_full_perazzo(2, 4)
    twin = GradedPolynomial(p.num_vars, p.degree, _reversed(p.terms))
    assert list(twin.terms) != list(p.terms)
    assert twin == p and hash(twin) == hash(p)
    assert hash(p) == hash((p.num_vars, p.degree, frozenset(p.terms.items())))


def test_generator_set_mapping_fields_hash_by_their_items():
    # the hash is the one GeneratorSet's own __hash__ gave before the base
    # owned the rule
    r, s = GradedPolynomial(2, 3, {(2, 1): 1}), GradedPolynomial(2, 3, {(1, 2): 1})
    hand_built = GeneratorSet(2, 3, {(1, 4)}, {2: {(0, 2)}, 3: {(3, 0)}},
                              {2: [(P, Q)], 3: [(r, s)]})
    for g in (extract_generators(build_full_perazzo(2, 4)), hand_built):
        nf, pairs = g.nonface_monomials, g.differences
        twin = GeneratorSet(g.num_vars, g.socle_degree, g.powers, _reversed(nf),
                            _reversed(pairs))
        assert list(twin.nonface_monomials) != list(nf)
        assert twin == g and hash(twin) == hash(g)
        assert hash(g) == hash((g.num_vars, g.socle_degree, g.powers,
                                frozenset(nf.items()), frozenset(pairs.items())))

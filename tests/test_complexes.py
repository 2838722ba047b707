import ast
import inspect
from pathlib import Path

import pytest

import apolar
from apolar.complexes import (
    CellComplex,
    cell_count_vector,
    complex_of,
    divisor_closure,
    is_subcomplex,
    minimal_nonfaces,
    skeleton_count,
)
from apolar.monomials import enumerate_exponents
from apolar.polynomials import coefficient_one_poly, graded_polynomial

from oracles import divisor_set


def test_power_chain_cells():
    zeta = divisor_closure([(3,)], 1)
    assert zeta.cells == frozenset({(1,), (2,), (3,)})


def test_single_monomial_divisors():
    zeta = divisor_closure([(2, 1)], 2)
    assert zeta.cells == frozenset({(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)})


def test_coprime_supports_share_nothing():
    zeta = divisor_closure([(2, 0), (0, 2)], 2)
    assert zeta.cells == frozenset({(1, 0), (2, 0), (0, 1), (0, 2)})


def test_closure_is_divisor_closed():
    zeta = divisor_closure([(2, 1, 1), (0, 2, 2)], 3)
    for cell in zeta.cells:
        assert divisor_set(cell) <= zeta.cells


def test_complex_keeps_a_copy_of_its_cells():
    cells = {(1, 0), (0, 1)}
    zeta = CellComplex(2, cells)
    cells.add((2, 0))
    assert zeta.cells == frozenset({(1, 0), (0, 1)})
    assert skeleton_count(zeta, 1) == 2
    assert hash(zeta) == hash(CellComplex(2, frozenset({(1, 0), (0, 1)})))


def test_layers_are_derived_not_a_field():
    built = divisor_closure([(2, 1)], 2)
    by_hand = CellComplex(2, [(2, 1), (1, 1), (2, 0), (0, 1), (1, 0)])
    assert list(inspect.signature(CellComplex).parameters) == ["num_vars", "cells"]
    assert "layers" not in repr(by_hand)
    with pytest.raises(AttributeError):
        by_hand.layers = ()
    assert built == by_hand and hash(built) == hash(by_hand)
    assert by_hand.layers == (
        ((0, 0),),
        ((0, 1), (1, 0)),
        ((1, 1), (2, 0)),
        ((2, 1),),
    )


def test_only_complexes_py_reads_cells():
    """The grading is read through ``layers``; the flat cell set stays
    behind ``complexes.py``."""
    package = Path(apolar.__file__).parent
    readers = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "complexes.py"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "cells"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert readers == []


def test_rejects_bad_supports():
    with pytest.raises(ValueError):
        divisor_closure([], 2)
    with pytest.raises(ValueError):
        divisor_closure([(1, 0), (2, 0)], 2)  # inhomogeneous
    with pytest.raises(ValueError):
        divisor_closure([(0, 0)], 2)


@pytest.mark.parametrize("d", range(1, 11))
def test_skeleton_of_power_chain(d):
    zeta = divisor_closure([(d,)], 1)
    for k in range(d):
        assert skeleton_count(zeta, k) == k + 1


@pytest.mark.parametrize("k", [-1, -3, -10])
def test_skeleton_below_dimension_zero_is_empty(k):
    zeta = divisor_closure([(3, 2), (1, 4)], 2)
    assert skeleton_count(zeta, k) == 0


def test_skeleton_counts_example():
    zeta = divisor_closure([(2, 1)], 2)
    assert skeleton_count(zeta, 0) == 2
    assert skeleton_count(zeta, 1) == 4


def test_cell_count_vector_golden():
    assert cell_count_vector(divisor_closure([(2, 1)], 2), 3) == (1, 2, 2, 1)
    assert cell_count_vector(divisor_closure([(4,)], 1), 4) == (1, 1, 1, 1, 1)
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    assert cell_count_vector(complex_of(f), 2) == (1, 2, 2)


def test_cell_count_vector_every_length():
    zeta = divisor_closure([(2, 1, 1), (0, 2, 2)], 3)
    degrees = [sum(m) for m in zeta.cells]
    for d in range(9):
        assert cell_count_vector(zeta, d) == (1, *map(degrees.count, range(1, d + 1)))
    assert cell_count_vector(zeta, 6) == (1, 3, 6, 5, 2, 0, 0)
    for d in (-1, -2, -5):
        assert cell_count_vector(zeta, d) == ()


def test_is_subcomplex_golden():
    assert is_subcomplex((1, 1), (2, 1))
    assert not is_subcomplex((0, 2), (2, 1))
    assert is_subcomplex((2, 1), (2, 1))


def test_subcomplex_equals_divisor_containment_bruteforce():
    monomials = [
        m for d in range(1, 5) for m in enumerate_exponents(3, d)
    ]
    for g in monomials:
        for h in monomials:
            assert is_subcomplex(g, h) == (divisor_set(g) <= divisor_set(h))


def test_monotone_in_support():
    small = divisor_closure([(2, 1, 0)], 3)
    large = divisor_closure([(2, 1, 0), (0, 1, 2)], 3)
    assert small.cells <= large.cells


def test_minimal_nonfaces_paper_example():
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    assert minimal_nonfaces(complex_of(f), 2) == ((0, 2),)


def test_minimal_nonfaces_symmetric_cubic():
    import itertools

    support = [
        tuple(1 if i in c else 0 for i in range(4))
        for c in itertools.combinations(range(4), 3)
    ]
    zeta = divisor_closure(support, 4)
    squares = tuple(
        tuple(2 if i == k else 0 for i in range(4)) for k in range(4)
    )
    assert minimal_nonfaces(zeta, 2) == tuple(sorted(squares))
    assert minimal_nonfaces(zeta, 3) == ()


def test_minimal_nonfaces_degree_one_is_unused_variables():
    zeta = divisor_closure([(2, 0, 1)], 3)
    assert minimal_nonfaces(zeta, 1) == ((0, 1, 0),)


def test_minimal_nonfaces_above_the_top_and_across_a_gap():
    zeta = divisor_closure([(2, 0), (1, 1), (0, 2)], 2)
    assert minimal_nonfaces(zeta, 3) == tuple(enumerate_exponents(2, 3))
    assert minimal_nonfaces(zeta, 4) == ()
    gapped = CellComplex(2, {(3, 0)})
    assert minimal_nonfaces(gapped, 4) == ((4, 0),)
    assert minimal_nonfaces(gapped, 1) == ((0, 1), (1, 0))
    assert minimal_nonfaces(gapped, 2) == minimal_nonfaces(gapped, 3) == ()


def test_cell_counts_dominate_hilbert_vector():
    from apolar.polynomials import hilbert_vector, is_standard

    supports = [
        [(2, 0), (1, 1)],
        [(3, 0), (0, 3)],
        [(2, 1, 0), (0, 1, 2), (1, 0, 2)],
    ]
    for support in supports:
        n = len(support[0])
        f = coefficient_one_poly(n, support)
        if not is_standard(f):
            continue
        h = hilbert_vector(f)
        s = cell_count_vector(complex_of(f), f.degree)
        assert all(1 <= hj <= sj for hj, sj in zip(h, s))

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar.monomials import (
    basis_index,
    enumerate_exponents,
    iter_exponents,
    lift_image,
    monomial_count,
    unit_power,
)
from oracles import lex_min_preimage, lower_at, lower_last


def test_monomial_count_values():
    assert monomial_count(2, 3) == 4
    assert monomial_count(5, 0) == 1
    assert monomial_count(3, 2) == 6


def test_monomial_count_rejects_no_variables():
    with pytest.raises(ValueError):
        monomial_count(0, 2)


def test_recurrence_full_grid():
    for n in range(2, 13):
        for d in range(1, 13):
            assert monomial_count(n, d) == monomial_count(n - 1, d) + monomial_count(
                n, d - 1
            )


def test_unit_power():
    assert unit_power(3, 1, 4) == (4, 0, 0)
    assert unit_power(3, 3, 1) == (0, 0, 1)
    assert unit_power(1, 1, 0) == (0,)
    for k in (0, 4):
        with pytest.raises(ValueError, match="variable index"):
            unit_power(3, k, 2)


def test_enumerate_small_cases():
    assert enumerate_exponents(2, 2) == ((0, 2), (1, 1), (2, 0))
    assert enumerate_exponents(1, 5) == ((5,),)
    assert len(enumerate_exponents(3, 3)) == 10 == monomial_count(3, 3)


def test_enumerate_strictly_increasing():
    for n, d in [(2, 4), (3, 3), (4, 2)]:
        basis = enumerate_exponents(n, d)
        assert all(a < b for a, b in zip(basis, basis[1:]))


vectors = st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3).map(
    tuple
)


# The derivative shift and the lift are stated literally in the oracles; the
# package reads lift_image and lowers the last exponent in place.
def test_decrement_at():
    assert lower_at((2, 1), 2) == (2, 0)
    assert lower_at((2, 0), 2) is None
    assert lower_at((1, 1, 1), 1) == (0, 1, 1)
    with pytest.raises(ValueError):
        lower_at((1, 1), 3)


@settings(max_examples=100)
@given(vectors, st.integers(min_value=1, max_value=3))
def test_decrement_lowers_degree_by_one(vec, k):
    out = lower_at(vec, k)
    if out is not None:
        assert sum(out) == sum(vec) - 1


def test_decrement_last():
    assert lower_last((1, 0, 2)) == (1, 0, 1)
    assert lower_last((0, 3)) == (0, 2)
    assert lower_last((2, 1, 0)) == (2, 0, 0)


def test_lex_min_preimage_golden():
    assert lex_min_preimage((1, 0, 1)) == (1, 0, 2)
    assert lex_min_preimage((0, 2)) == (0, 3)
    assert lex_min_preimage((4,)) == (5,)


def test_lex_min_preimage_is_a_section():
    for n, d in [(2, 3), (3, 3), (3, 4)]:
        for j in enumerate_exponents(n, d - 1):
            assert lower_last(lex_min_preimage(j)) == j


def _positions(n, d, subset):
    """1-based positions of ``subset`` in the degree-``d`` basis."""
    basis = enumerate_exponents(n, d)
    return tuple(k + 1 for k, vec in enumerate(basis) if vec in subset)


def test_last_variable_multiples_golden():
    # the degree-2 basis in 2 variables is u2^2, u1*u2, u1^2
    assert lift_image(2, 2) == {(0, 2), (1, 1)}
    assert lift_image(2, 1) == {(0, 1)}


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 3)])
def test_last_variable_multiples_count(n, d):
    count = len(lift_image(n, d - 1))
    assert count == monomial_count(n, d - 1) - monomial_count(n - 1, d - 1)


def test_lift_image_positions_golden():
    # positions of lift_image(2, 2) in the degree-2 basis u2^2, u1*u2, u1^2
    assert _positions(2, 2, lift_image(2, 2)) == (1, 2)


@pytest.mark.parametrize("n,d", [(2, 3), (2, 4), (3, 3), (3, 4), (3, 6), (2, 6)])
def test_lift_image_positions_count(n, d):
    # the lift is injective, so its image has one element per lower monomial
    assert len(lift_image(n, d - 1)) == monomial_count(n, d - 2)


def test_lift_image_positions_are_last_variable_multiples():
    # the projection maps take the x-positions as the last-variable multiples
    # of the degree-(d-1) basis; they are the positions of the lift's image
    for n in range(2, 6):
        for d in range(3, 7):
            basis = enumerate_exponents(n, d - 1)
            lifted = {lex_min_preimage(w) for w in enumerate_exponents(n, d - 2)}
            multiples = tuple(k + 1 for k, m in enumerate(basis) if m[-1])
            assert _positions(n, d - 1, lifted) == multiples, (n, d)


def test_lift_image_matches_bruteforce_minima():
    for n in range(1, 5):
        for d in range(1, 6):
            image = lift_image(n, d)
            expected = {
                lex_min_preimage(j) for j in enumerate_exponents(n, d - 1)
            }
            assert image == frozenset(expected), (n, d)


def test_lift_image_positions_not_always_initial_segment():
    # in 3 variables at degree 2 the image skips position 3
    assert _positions(3, 2, lift_image(3, 2)) == (1, 2, 4)


def test_iter_matches_enumerate():
    for n, d in [(1, 0), (2, 5), (4, 3)]:
        assert tuple(iter_exponents(n, d)) == enumerate_exponents(n, d)


def test_enumerate_matches_sorted_product():
    # independent of the lex-successor walk: filter the full grid and sort
    cases = [(n, d) for n in range(1, 6) for d in range(7)] + [(1, 7)]
    for n, d in cases:
        expected = sorted(
            v for v in itertools.product(range(d + 1), repeat=n) if sum(v) == d
        )
        assert list(enumerate_exponents(n, d)) == expected, (n, d)


def test_basis_index_inverts_the_enumeration_and_is_read_only():
    for n, d in [(1, 0), (2, 5), (4, 3)]:
        index = basis_index(n, d)
        assert [index[m] for m in enumerate_exponents(n, d)] == list(range(len(index)))
        assert len(index) == monomial_count(n, d)
        assert basis_index(n, d) is index
    with pytest.raises(TypeError):
        index[(0, 0, 0, 3)] = 0

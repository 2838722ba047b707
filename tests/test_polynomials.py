import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar.polynomials import (
    GradedPolynomial,
    HilbertOrder,
    annihilator_basis,
    annihilator_dimension,
    catalecticant_matrix,
    coefficient_one_poly,
    compare_hilbert,
    contract,
    differentiation_form,
    graded_polynomial,
    hilbert_vector,
    is_standard,
    monomial_poly,
)
import apolar.polynomials
from apolar.linalg import rank
from apolar.monomials import enumerate_exponents, monomial_count
from apolar.perazzo import _standard_draw, build_full_perazzo
from apolar.rng import substream

from oracles import (
    catalecticant_by_lookup,
    hilbert_via_pairing,
    nullspace_rref,
    row_reduce_rank,
)
from sampling import random_polynomial, random_standard_polynomial, seeded_cases


def test_constructor_merges_and_validates():
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): Fraction(1, 2)})
    assert f.degree == 2 and f.num_vars == 2
    with pytest.raises(ValueError):
        graded_polynomial(2, {(2, 0): 1, (1, 0): 1})  # inhomogeneous
    with pytest.raises(ValueError):
        graded_polynomial(2, {(1, 1): 0})  # zero polynomial
    with pytest.raises(ValueError):
        graded_polynomial(2, {(1, 1, 0): 1})  # wrong arity


def test_terms_are_a_read_only_copy():
    terms = {(2, 0): 1, (1, 1): Fraction(1, 2)}
    f = GradedPolynomial(2, 2, terms)
    with pytest.raises(TypeError):
        f.terms[(2, 0)] = 5
    terms[(2, 0)] = 5  # the caller's map is not shared
    assert f.terms[(2, 0)] == 1


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 1): 1},  # degree 2, declared 3: would get a wrong C_1
        {(2, 1): 1, (1, 1, 1): 1},  # one term of the wrong length
    ],
)
def test_terms_must_match_the_declared_shape(terms):
    with pytest.raises(ValueError, match="is not of degree 3 in 2 variables"):
        GradedPolynomial(2, 3, terms)


def test_hash_agrees_with_equality():
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): Fraction(1, 2)})
    g = GradedPolynomial(2, 2, {(1, 1): Fraction(2, 4), (2, 0): 1})
    assert f == g and hash(f) == hash(g)
    assert len({f, g, monomial_poly(2, (2, 0))}) == 2


def test_pickling_round_trips():
    f = graded_polynomial(3, {(2, 0, 1): Fraction(-3, 7), (0, 1, 2): 4})
    g = pickle.loads(pickle.dumps(f))
    assert g == f and hash(g) == hash(f)
    with pytest.raises(TypeError):
        g.terms[(0, 1, 2)] = 1


def test_contract_dual_basis_golden():
    f = graded_polynomial(2, {(2, 1): 1})
    out = contract(monomial_poly(2, (1, 1)), f)
    assert out.terms == {(1, 0): Fraction(1)}
    # equal-degree dual pairing is the Kronecker delta
    assert contract(monomial_poly(2, (2, 1)), f).terms == {(0, 0): Fraction(1)}
    assert contract(monomial_poly(2, (1, 2)), f).is_zero()


def test_contract_rejects_mismatches():
    f = graded_polynomial(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        contract(monomial_poly(3, (1, 0, 0)), f)
    with pytest.raises(ValueError):
        contract(monomial_poly(2, (2, 1)), f)


@pytest.mark.parametrize("trial", range(20))
def test_contract_composition(trial):
    rng = substream(2100, trial)
    n, d = 2 + rng.below(2), 3 + rng.below(2)
    f = random_polynomial(rng, n, d)
    alpha = enumerate_exponents(n, 1)[rng.below(n)]
    beta = enumerate_exponents(n, 1)[rng.below(n)]
    both = tuple(a + b for a, b in zip(alpha, beta))
    nested = contract(monomial_poly(n, alpha), contract(monomial_poly(n, beta), f))
    assert nested == contract(monomial_poly(n, both), f)


def test_catalecticant_single_variable_chain():
    f = graded_polynomial(1, {(4,): 1})
    for j in range(5):
        m = catalecticant_matrix(f, j)
        assert (m.rows, m.cols) == (1, 1)
        assert m.row(0) == (1,)


_coefficients = st.builds(
    Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6)
)


@st.composite
def _forms(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    basis = enumerate_exponents(n, d)
    terms = draw(st.dictionaries(st.sampled_from(basis), _coefficients, min_size=1))
    return graded_polynomial(n, terms)


@settings(max_examples=150, deadline=None)
@given(_forms())
def test_catalecticant_agrees_with_the_lookup_oracle(f):
    # the dual C_j entry by entry; differentiation, read off the rescaled
    # form, by the oracle's rank and canonical kernel of its own matrix
    h_diff = hilbert_vector(differentiation_form(f))
    for j in range(f.degree + 1):
        m = catalecticant_matrix(f, j)
        expected = catalecticant_by_lookup(f.num_vars, f.terms, j)
        assert (m.rows, m.cols) == (len(expected), len(expected[0]))
        assert [list(m.row(i)) for i in range(m.rows)] == expected
        diff = catalecticant_by_lookup(f.num_vars, f.terms, j, differentiate=True)
        assert h_diff[j] == row_reduce_rank(diff)
        col_basis = enumerate_exponents(f.num_vars, j)
        basis = [
            tuple(op.terms.get(c, 0) for c in col_basis)
            for op in annihilator_basis(differentiation_form(f), j)
        ]
        assert basis == [tuple(v) for v in nullspace_rref(diff, len(col_basis))]


def test_catalecticant_rank_paper_example():
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    assert rank(catalecticant_matrix(f, 1)) == 2


@pytest.mark.parametrize("trial", range(100))
def test_rank_is_convention_independent_on_random_draws(trial):
    rng = substream(2101, trial)
    n, d = 1 + rng.below(3), 1 + rng.below(5)
    f = random_polynomial(rng, n, d)
    assert hilbert_vector(f) == hilbert_vector(differentiation_form(f))


def test_conventions_can_disagree_on_aligned_coefficients():
    # All-ones coefficients give the dual pairing an extra linear relation
    # that honest differentiation does not see; random draws above almost
    # never hit such alignments, but they exist and are not a bug.
    f = coefficient_one_poly(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    assert hilbert_vector(f)[1] == 1
    assert hilbert_vector(differentiation_form(f))[1] == 2


def test_differentiation_form_multiplies_each_coefficient_by_b_factorial():
    f = coefficient_one_poly(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    expected = graded_polynomial(2, {(3, 0): 6, (2, 1): 2, (1, 2): 2, (0, 3): 6})
    assert differentiation_form(f) == expected


def test_differentiation_form_keeps_the_coefficient_type():
    # int draws keep integer catalecticants; Fractions stay Fractions
    f = GradedPolynomial(2, 3, {(3, 0): -2, (2, 1): 5})
    terms = differentiation_form(f).terms
    assert terms == {(3, 0): -12, (2, 1): 10}
    assert all(type(c) is int for c in terms.values())
    g = graded_polynomial(2, {(2, 1): Fraction(1, 3), (0, 3): 1})
    terms = differentiation_form(g).terms
    assert terms == {(2, 1): Fraction(2, 3), (0, 3): 6}
    assert all(type(c) is Fraction for c in terms.values())


def test_ann_dimension_golden():
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    assert annihilator_dimension(f, 0) == 0
    assert annihilator_dimension(f, 1) == 0
    assert annihilator_dimension(f, 2) == 2
    assert annihilator_dimension(f, 3) == monomial_count(2, 3)


def _span(polys):
    vectors = set()
    for p in polys:
        vectors.add(tuple(sorted(p.terms.items())))
    return vectors


def test_ann_basis_paper_example_span():
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    basis = annihilator_basis(f, 2)
    assert len(basis) == 2
    # X2^2 and X1^2 - X1*X2 must lie in the span of the canonical kernel
    expected = [
        graded_polynomial(2, {(0, 2): 1}),
        graded_polynomial(2, {(2, 0): 1, (1, 1): -1}),
    ]
    for target in expected:
        assert contract(target, f).is_zero()
    # dimension 2 plus membership of two independent vectors pins the span
    assert annihilator_dimension(f, 2) == 2


def test_ann_basis_quartic_chain_empty():
    f = graded_polynomial(1, {(6,): 3})
    for j in range(1, 7):
        assert annihilator_basis(f, j) == []


def test_binomial_membership_cubic():
    f = coefficient_one_poly(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    diff = graded_polynomial(2, {(2, 0): 1, (0, 2): -1})
    assert contract(diff, f).is_zero()


def test_hilbert_vector_golden():
    assert hilbert_vector(graded_polynomial(1, {(3,): 1})) == (1, 1, 1, 1)
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    assert hilbert_vector(f) == (1, 2, 1)


def test_is_standard_golden():
    assert is_standard(graded_polynomial(2, {(2, 0): 1, (1, 1): 1}))
    assert is_standard(graded_polynomial(2, {(2, 1): 1, (1, 2): 1}))
    # unused variable: the matching operator annihilates
    assert not is_standard(graded_polynomial(2, {(2, 0): 1}))


def test_standard_iff_first_entry_is_n():
    for trial in range(30):
        rng = substream(2102, trial)
        n, d = 2 + rng.below(2), 1 + rng.below(4)
        f = random_polynomial(rng, n, d)
        assert (hilbert_vector(f)[1] == n) == is_standard(f)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ((1, 2, 1), (1, 2, 1), HilbertOrder.EQUAL),
        ((1, 5, 5, 1), (1, 5, 6, 1), HilbertOrder.LESS_EQ),
        ((1, 5, 6, 1), (1, 5, 5, 1), HilbertOrder.GREATER_EQ),
        ((1, 3, 2, 1), (1, 2, 3, 1), HilbertOrder.INCOMPARABLE),
    ],
)
def test_compare_hilbert(a, b, expected):
    assert compare_hilbert(a, b) is expected


def test_compare_hilbert_rejects_length_mismatch():
    with pytest.raises(ValueError):
        compare_hilbert((1, 1), (1, 1, 1))


@pytest.mark.parametrize("trial", range(60))
def test_gorenstein_symmetry_random(trial):
    cases = list(seeded_cases(2103, 60, [(1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (2, 5)]))
    rng, n, d = cases[trial]
    h = hilbert_vector(random_polynomial(rng, n, d))
    assert h == tuple(reversed(h))
    assert h[0] == 1 and all(x >= 1 for x in h)


@pytest.mark.parametrize("trial", range(15))
def test_scale_invariance_of_annihilator(trial):
    rng = substream(2104, trial)
    n, d = 2 + rng.below(2), 2 + rng.below(3)
    f = random_polynomial(rng, n, d)
    lam = Fraction(rng.nonzero_int(9), 1 + rng.below(9))
    scaled = graded_polynomial(n, {e: c * lam for e, c in f.terms.items()})
    for j in range(1, d + 1):
        assert annihilator_basis(f, j) == annihilator_basis(scaled, j)


@pytest.mark.parametrize("trial", range(25))
def test_hilbert_matches_independent_pairing_oracle(trial):
    rng = substream(2105, trial)
    n, d = 1 + rng.below(3), 1 + rng.below(4)
    f = random_polynomial(rng, n, d)
    assert hilbert_vector(f) == hilbert_via_pairing(n, f.terms)


def _ranked_matrices(f, caps, monkeypatch):
    """The (rows, cols, entries) of each matrix ``hilbert_vector(f, caps)``
    hands to ``rank``, with the number of catalecticants built by then, and
    how many earlier catalecticants were still alive as each was built."""

    class Tracked(apolar.polynomials.RationalMatrix):
        __slots__ = ("__weakref__",)

    built, alive, ranked = [], [], []

    def counting_matrix(*args):
        alive.append(sum(r() is not None for r in built))
        m = Tracked(*args)
        built.append(weakref.ref(m))
        return m

    def spying_rank(m, at_most=None):
        ranked.append(((m.rows, m.cols, m.entries), len(built)))
        return rank(m, at_most)

    monkeypatch.setattr(apolar.polynomials, "RationalMatrix", counting_matrix)
    monkeypatch.setattr(apolar.polynomials, "rank", spying_rank)
    h = hilbert_vector(f, caps)
    monkeypatch.undo()
    assert len(ranked) == f.degree + 1
    return h, ranked, alive


_ONE_WALK_FORMS = [
    *(_standard_draw(3700, t, enumerate_exponents(6, 4), 6) for t in range(4)),
    graded_polynomial(
        3, {(2, 1, 0): Fraction(1, 2), (0, 1, 2): Fraction(-3, 4), (1, 1, 1): Fraction(4, 2)}
    ),
    monomial_poly(9, (0,) * 8 + (5,)),
    *(build_full_perazzo(n, d) for n, d in [(2, 3), (2, 4), (3, 3)]),
]


@pytest.mark.parametrize("f", _ONE_WALK_FORMS)
@pytest.mark.parametrize("capped", [False, True])
def test_hilbert_vector_ranks_each_catalecticant_entry_for_entry(f, capped, monkeypatch):
    # the matrices of the one walk over the terms are the single-degree
    # catalecticants, entry types included, with and without rank caps
    caps = [1 + (j % 2) for j in range(f.degree + 1)] if capped else None
    h, ranked, _ = _ranked_matrices(f, caps, monkeypatch)
    for j, ((rows, cols, entries), _) in enumerate(ranked):
        expected = catalecticant_matrix(f, j)
        assert (rows, cols, entries) == (expected.rows, expected.cols, expected.entries)
        assert list(map(type, entries)) == list(map(type, expected.entries))
        assert h[j] == rank(expected, caps[j] if capped else None)


@pytest.mark.parametrize("f", _ONE_WALK_FORMS)
def test_hilbert_vector_builds_one_catalecticant_at_a_time(f, monkeypatch):
    # C_j is built only after C_(j-1) has been ranked and dropped: at the
    # j-th rank call exactly j + 1 catalecticants of the form have been
    # built, and none of the earlier ones is alive while the next is built
    _, ranked, alive = _ranked_matrices(f, None, monkeypatch)
    assert [built for _, built in ranked] == list(range(1, f.degree + 2))
    assert alive == [0] * (f.degree + 1)

import ast
import hashlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from apolar import generators
from apolar.complexes import cell_count_vector, complex_of, minimal_nonfaces
from apolar.errors import GuardExceeded
from apolar.generators import (
    GeneratorSet,
    contraction_image_classes,
    extract_generators,
    verify_generators,
)
from apolar.locus import enumerate_admissible_supports, support_conditions
from apolar.monomials import basis_index, enumerate_exponents, unit_power
from apolar.parsing import parse_polynomial
from apolar.perazzo import build_full_perazzo
from apolar.polynomials import (
    annihilator_dimension,
    catalecticant_matrix,
    coefficient_one_poly,
    compare_hilbert,
    contract,
    graded_polynomial,
    hilbert_vector,
    is_standard,
    monomial_poly,
    HilbertOrder,
)
from apolar.rng import substream

from oracles import contract_dual, missing_annihilator_dimensions
from sampling import random_coefficient_one_standard


def _paper_quadric():
    return graded_polynomial(2, {(2, 0): 1, (1, 1): 1})


def _symmetric_cubic():
    support = [
        tuple(1 if i in c else 0 for i in range(4))
        for c in itertools.combinations(range(4), 3)
    ]
    return coefficient_one_poly(4, support)


def _full_support_cubic():
    return coefficient_one_poly(2, [(3, 0), (2, 1), (1, 2), (0, 3)])


def test_extract_quadric_structure():
    gens = extract_generators(_paper_quadric())
    assert gens.nonface_monomials == {2: frozenset({(0, 2)})}
    assert len(gens.differences[2]) == 1
    p1, p2 = gens.differences[2][0]
    assert {p1.support(), p2.support()} == {((1, 1),), ((2, 0),)}
    # both top powers are redundant: X2^3 via X2^2, X1^3 via the difference
    assert gens.powers == frozenset()
    assert verify_generators(_paper_quadric(), gens)


def test_paper_generating_set_verifies():
    # the published generating set (X1^3, X2^2, X1^2 - X1*X2)
    gens = GeneratorSet(
        2,
        2,
        frozenset({(1, 3)}),
        {2: frozenset({(0, 2)})},
        {2: ((monomial_poly(2, (2, 0)), monomial_poly(2, (1, 1))),)},
    )
    assert verify_generators(_paper_quadric(), gens)


def test_dropping_a_generator_breaks_verification():
    gens = GeneratorSet(
        2,
        2,
        frozenset({(1, 3)}),
        {2: frozenset({(0, 2)})},
        {},  # difference removed: the span is a strict subspace at degree 2
    )
    assert not verify_generators(_paper_quadric(), gens)


def test_non_annihilating_generator_breaks_verification():
    # X1^2 does not kill x1^2 + x1*x2, yet every span dimension matches
    gens = GeneratorSet(
        2,
        2,
        frozenset({(1, 3)}),
        {2: frozenset({(0, 2), (2, 0)})},
        {},
    )
    assert not verify_generators(_paper_quadric(), gens)


def test_constant_generator_breaks_verification():
    # the unit ideal is not the annihilator, even of a constant f
    f = graded_polynomial(1, {(0,): 1})
    assert verify_generators(f, GeneratorSet(1, 0, frozenset({(1, 1)}), {}, {}))
    assert not verify_generators(f, GeneratorSet(1, 0, frozenset({(1, 0)}), {}, {}))


def test_generator_set_is_immutable():
    gens = extract_generators(_paper_quadric())
    with pytest.raises(AttributeError):
        gens.powers = frozenset()
    assert gens == extract_generators(_paper_quadric())
    with pytest.raises(TypeError):
        gens.nonface_monomials[3] = frozenset()
    with pytest.raises(TypeError):
        gens.differences[2] = ()
    # the mappings are copies: changing the caller's dict changes nothing
    nonfaces = {2: frozenset({(0, 2)})}
    built = GeneratorSet(2, 2, frozenset(), nonfaces, {})
    nonfaces[1] = frozenset({(1, 0)})
    assert built.nonface_monomials == {2: frozenset({(0, 2)})}


def test_generator_set_keeps_copies_of_its_values():
    # a set of powers, a set of nonfaces and a list of pairs, changed after
    # construction through the caller's objects and through the fields
    powers, nonfaces = {(1, 3)}, {(0, 2)}
    pairs = [(monomial_poly(2, (2, 0)), monomial_poly(2, (1, 1)))]
    gens = GeneratorSet(2, 2, powers, {2: nonfaces}, {2: pairs})
    powers.add((2, 3))
    nonfaces.add((2, 0))
    pairs.clear()
    with pytest.raises(AttributeError):
        gens.nonface_monomials[2].add((2, 0))
    assert gens.powers == frozenset({(1, 3)})
    assert gens.nonface_monomials == {2: frozenset({(0, 2)})}
    assert len(gens.differences[2]) == 1
    assert verify_generators(_paper_quadric(), gens)


def test_generator_sets_of_one_form_are_equal_and_hash_alike():
    f = parse_polynomial("x1^2 + x1*x2", 2)
    first, second = extract_generators(f), extract_generators(f)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_generator_degree_is_read_from_the_polynomial():
    # the dict keys only group the generators: a key that is not their degree
    # must not change the verdict of the published generating set
    gens = GeneratorSet(
        2,
        2,
        frozenset({(1, 3)}),
        {1: frozenset({(0, 2)})},
        {1: ((monomial_poly(2, (2, 0)), monomial_poly(2, (1, 1))),)},
    )
    assert verify_generators(_paper_quadric(), gens)


def test_difference_of_unequal_degrees_is_rejected():
    gens = GeneratorSet(
        2,
        2,
        frozenset({(1, 3)}),
        {},
        {2: ((monomial_poly(2, (2, 0)), monomial_poly(2, (1, 0))),)},
    )
    with pytest.raises(ValueError, match="inhomogeneous"):
        verify_generators(_paper_quadric(), gens)


# difference pairs with rational coefficients: (1/2, 2) against (5/2), whose
# difference (X1^2 - X1*X2)/2 annihilates the paper's quadric, and (2) against
# (1/2), whose difference does not
_RATIONAL_PAIRS = {
    "annihilating": ({(2, 0): Fraction(1, 2), (1, 1): 2}, {(1, 1): Fraction(5, 2)}),
    "not-annihilating": ({(2, 0): 2}, {(1, 1): Fraction(1, 2)}),
}


def _quadric_set_with_pair(left, right):
    """The published generating set, its difference pair replaced."""
    pair = (graded_polynomial(2, left), graded_polynomial(2, right))
    nonfaces = {2: frozenset({(0, 2)})}
    return GeneratorSet(2, 2, frozenset({(1, 3)}), nonfaces, {2: (pair,)})


@pytest.mark.parametrize("kind", sorted(_RATIONAL_PAIRS))
def test_rational_difference_pairs_keep_their_coefficients(kind):
    left, right = _RATIONAL_PAIRS[kind]
    gens = _quadric_set_with_pair(left, right)
    expected = graded_polynomial(
        2, {e: left.get(e, 0) - right.get(e, 0) for e in {**left, **right}}
    )
    # nonface monomials come first, then the difference, then the power
    degree, got = gens.polynomials()[1]
    assert (degree, got) == (2, expected)
    assert sorted((e, str(c)) for e, c in got.terms.items()) == sorted(
        (e, str(c)) for e, c in expected.terms.items()
    )
    # the pair scaled by 2 to integer coefficients gets the same verdict
    scaled = _quadric_set_with_pair(
        {e: 2 * c for e, c in left.items()}, {e: 2 * c for e, c in right.items()}
    )
    verdict = verify_generators(_paper_quadric(), gens)
    assert verdict == verify_generators(_paper_quadric(), scaled)
    assert verdict is (kind == "annihilating")


def _scale_pairs(gens):
    """The set with its difference pairs scaled by 1/2 and 2 in turn: each
    difference is scaled, so the ideal is the same."""
    differences = {
        j: tuple(
            tuple(
                graded_polynomial(p.num_vars, {e: s * c for e, c in p.terms.items()})
                for p in pair
            )
            for s, pair in zip(itertools.cycle((Fraction(1, 2), 2)), pairs)
        )
        for j, pairs in gens.differences.items()
    }
    return GeneratorSet(
        gens.num_vars, gens.socle_degree, gens.powers, gens.nonface_monomials, differences
    )


def test_scaled_difference_pairs_get_the_verdict_of_extraction():
    # draw 109 of criterion 7 fails verification; the rest verify
    draws = [substream(52002, k) for k in (5, 21, 109)]
    forms = [random_coefficient_one_standard(rng, 3, 3) for rng in draws]
    for f in [_symmetric_cubic(), *forms]:
        gens = extract_generators(f)
        assert verify_generators(f, _scale_pairs(gens)) == verify_generators(f, gens)


def test_generators_builds_operators_without_the_rational_constructors():
    # every kept generator is an int operator built from term maps, and the
    # echelon alone scales rational rows
    tree = ast.parse(Path(generators.__file__).read_text())
    named = {
        value
        for node in ast.walk(tree)
        for value in (getattr(node, field, None) for field in ("id", "attr", "name"))
        if isinstance(value, str)
    }
    retired = {"graded_polynomial", "monomial_poly", "integer_row", "Fraction", "_unit"}
    assert not retired & named


def test_single_variable_chain_power_only():
    f = graded_polynomial(1, {(4,): 1})
    gens = extract_generators(f)
    assert gens.nonface_monomials == {}
    assert gens.differences == {}
    assert gens.powers == frozenset({(1, 5)})
    assert verify_generators(f, gens)


def test_symmetric_cubic_membership_and_classes():
    f = _symmetric_cubic()
    # four-term alternating sums annihilate, adjacent two-term ones do not
    for i, j, k, l in itertools.permutations(range(4)):
        four_term = graded_polynomial(
            4,
            {
                _pair(i, j): 1,
                _pair(k, l): 1,
                _pair(i, l): -1,
                _pair(j, k): -1,
            },
        )
        assert contract(four_term, f).is_zero()
    for i, j, k in itertools.permutations(range(4), 3):
        two_term = graded_polynomial(4, {_pair(i, j): 1, _pair(j, k): -1})
        assert not contract(two_term, f).is_zero()


def _pair(i, j):
    out = [0, 0, 0, 0]
    out[i] += 1
    out[j] += 1
    return tuple(out)


def test_symmetric_cubic_extraction_complete():
    f = _symmetric_cubic()
    gens = extract_generators(f)
    squares = {tuple(2 if i == k else 0 for i in range(4)) for k in range(4)}
    assert gens.nonface_monomials[2] == frozenset(squares)
    assert verify_generators(f, gens)
    # the paired two-element supports with a common image stay in one class
    classes = contraction_image_classes(f, 2)
    by_member = {}
    for idx, cls in enumerate(classes):
        for member in cls:
            by_member[member] = idx
    a = tuple(sorted((_pair(0, 1), _pair(2, 3))))
    b = tuple(sorted((_pair(0, 3), _pair(1, 2))))
    assert by_member[a] == by_member[b]
    assert by_member[(_pair(0, 1),)] != by_member[(_pair(1, 2),)]


def test_full_support_cubic_difference_in_ideal():
    f = _full_support_cubic()
    gens = extract_generators(f)
    # the linear relation is the only primitive generator ...
    assert any(degree == 1 for degree, _ in gens.polynomials())
    # ... and the published degree-2 binomial lies in the ideal it generates
    from apolar.generators import _ideal_span

    index = basis_index(2, 2)
    span = _ideal_span(gens.polynomials(), index, 2)
    binomial = [0] * len(index)
    binomial[index[(2, 0)]], binomial[index[(0, 2)]] = 1, -1
    assert not any(span.reduce(binomial))
    assert verify_generators(f, gens)


def test_equal_image_classes_quadric():
    classes = contraction_image_classes(_paper_quadric(), 2)
    by_member = {}
    for idx, cls in enumerate(classes):
        for member in cls:
            by_member[member] = idx
    assert by_member[((2, 0),)] == by_member[((1, 1),)]


def test_equal_image_classes_chain_singletons():
    f = graded_polynomial(1, {(5,): 1})
    for j in range(1, 6):
        classes = contraction_image_classes(f, j)
        assert all(len(cls) == 1 for cls in classes)


# coefficient kinds of the image-class property: all ones, nonzero ints of
# both signs, and k + 1/q with q in 2..4, never integral
_COEFFICIENTS = {
    "ones": lambda rng: 1,
    "int": lambda rng: rng.nonzero_int(9),
    "fraction": lambda rng: Fraction(rng.nonzero_int(9)) + Fraction(1, 2 + rng.below(3)),
}


def _brute_force_classes(f, j):
    """Supports grouped by the sum of their monomials' oracle images, each
    class sorted, classes sorted by first member."""
    images = {}
    for m in enumerate_exponents(f.num_vars, j):
        image = contract_dual(m, f.terms)
        if image:
            images[m] = image
    groups = {}
    for size in range(1, len(images) + 1):
        for support in itertools.combinations(images, size):
            total = {}
            for m in support:
                for e, c in images[m].items():
                    total[e] = total.get(e, 0) + c
            key = frozenset((e, c) for e, c in total.items() if c)
            groups.setdefault(key, []).append(support)
    return sorted(sorted(cls) for cls in groups.values())


def _seeded_forms(kind):
    """Four draws per (n, d) with n <= 3, d <= 4, with coefficients of
    ``kind``; none has more than 10 non-annihilating monomials."""
    coefficient = _COEFFICIENTS[kind]
    for trial in range(48):
        rng = substream(3004, trial)
        n, d = 1 + trial % 3, 1 + trial // 3 % 4
        support = [m for m in enumerate_exponents(n, d) if rng.coin()]
        if support:
            yield graded_polynomial(n, {m: coefficient(rng) for m in support})


@pytest.mark.parametrize("kind", sorted(_COEFFICIENTS))
def test_image_classes_equal_the_brute_force_partition(kind):
    # the brute force walks every support, which stays fast on these draws
    for f in _seeded_forms(kind):
        for j in range(1, f.degree + 1):
            assert contraction_image_classes(f, j) == _brute_force_classes(f, j)


def test_image_classes_come_in_scan_order_without_a_sort():
    # the lex-order walk fills each class sorted and makes the classes in
    # the order of their first members, so nothing is sorted afterwards
    tree = ast.parse(Path(generators.__file__).read_text())
    scan = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "contraction_image_classes"
    )
    calls = [node.func for node in ast.walk(scan) if isinstance(node, ast.Call)]
    names = {getattr(func, "id", None) for func in calls}
    names |= {getattr(func, "attr", None) for func in calls}
    assert not {"sorted", "sort"} & names


def test_a_signed_form_needs_the_whole_key_width():
    # X2 and X1 send x1*x2 - 3*x2^2 to x1 - 3*x2 and x2: the rows of C_1
    # have absolute sums 4 and 1, so the keys take 3-bit digits.  With 2-bit
    # digits the images' difference (-4, 1) would pack to -4 + 1 * 4 = 0
    # and merge the two one-cell classes.
    f = parse_polynomial("x1*x2 - 3*x2^2", 2)
    classes = contraction_image_classes(f, 1)
    assert classes == [[((0, 1),)], [((0, 1), (1, 0))], [((1, 0),)]]
    assert classes == _brute_force_classes(f, 1)


@pytest.mark.parametrize("kind", sorted(_COEFFICIENTS))
def test_cells_per_degree_are_the_nonzero_catalecticant_columns(kind):
    # the identity a skipped scan's subset guard reads: X^c sends the terms
    # x^b with b >= c to distinct x^(b-c), so column c of C_j is nonzero
    # exactly when x^c divides the support, that is, when it is a cell
    for f in _seeded_forms(kind):
        counts = cell_count_vector(complex_of(f), f.degree)
        for j in range(1, f.degree + 1):
            c_j = catalecticant_matrix(f, j)
            nonzero = sum(1 for c in range(c_j.cols) if any(c_j.column(c)))
            assert counts[j] == nonzero


def test_extraction_soundness_random():
    for trial in range(10):
        rng = substream(3001, trial)
        n, d = 2 + rng.below(2), 2 + rng.below(3)
        f = random_coefficient_one_standard(rng, n, d)
        gens = extract_generators(f)
        for degree, poly in gens.polynomials():
            if degree <= d:
                assert contract(poly, f).is_zero()


def test_extraction_completeness_random():
    for trial in range(12):
        rng = substream(3002, trial)
        n, d = 2 + rng.below(2), 2 + rng.below(3)
        f = random_coefficient_one_standard(rng, n, d)
        assert verify_generators(f, extract_generators(f))


def test_extraction_deterministic():
    rng = substream(3003, 0)
    f = random_coefficient_one_standard(rng, 3, 3)
    a = extract_generators(f)
    b = extract_generators(f)
    assert a == b


def test_rejects_non_coefficient_one():
    f = graded_polynomial(2, {(2, 0): 2, (1, 1): 1})
    with pytest.raises(ValueError):
        extract_generators(f)


def test_coefficient_one_hilbert_not_always_minimal():
    # Counterexample found by the sampling harness and verified exactly: the
    # coefficient-one form on this support is NOT minimal among nonzero
    # coefficient assignments.  Pinned here so the finding cannot regress
    # into silence.
    support = [(4, 0), (2, 2), (1, 3), (0, 4)]
    ones = coefficient_one_poly(2, support)
    assert hilbert_vector(ones) == (1, 2, 3, 2, 1)
    special = graded_polynomial(
        2, {(4, 0): 3, (2, 2): 3, (1, 3): -3, (0, 4): 6}
    )
    assert hilbert_vector(special) == (1, 2, 2, 2, 1)
    assert (
        compare_hilbert(hilbert_vector(ones), hilbert_vector(special))
        is HilbertOrder.GREATER_EQ
    )
    # the witness: a trinomial annihilating the special form only
    witness = graded_polynomial(2, {(0, 2): 1, (1, 1): 1, (2, 0): -1})
    assert contract(witness, special).is_zero()
    assert not contract(witness, ones).is_zero()


def test_minimality_checker_reports_the_violation():
    from apolar.perazzo import coefficient_one_minimality_check

    # seed chosen so one draw hits the violating coefficient locus
    report = coefficient_one_minimality_check(
        [(4, 0), (2, 2), (1, 3), (0, 4)], 2, trials=20, seed=53019
    )
    assert report["hilbert_ones"] == [1, 2, 3, 2, 1]
    assert "GREATER_EQ" in report["verdicts"] or "INCOMPARABLE" in report["verdicts"]
    assert report["counterexamples"]
    first = report["counterexamples"][0]
    assert first["hilbert"] != report["hilbert_ones"]


def test_subset_guard_refuses_just_over_limit():
    # both degree-1 monomials survive on x1^2 + x1*x2: 2^2 = 4 subsets
    f = _paper_quadric()
    with pytest.raises(GuardExceeded) as refused:
        contraction_image_classes(f, 1, max_subsets=3)
    assert "4 exceeds the guard of 3" in str(refused.value)
    assert "max_subsets" in str(refused.value)
    assert len(contraction_image_classes(f, 1, max_subsets=4)) == 3


def test_extraction_passes_the_subset_guard_to_every_degree():
    # the symmetric cubic's widest scan is in degree 2, where the six
    # squarefree monomials survive: 2^6 = 64 subsets
    f = _symmetric_cubic()
    with pytest.raises(GuardExceeded) as refused:
        extract_generators(f, max_subsets=63)
    assert "64 exceeds the guard of 63" in str(refused.value)
    assert "max_subsets" in str(refused.value)
    assert extract_generators(f, max_subsets=64) == extract_generators(f)


def test_extraction_guards_a_degree_before_skipping_its_scan():
    # x1*x2^2 has two non-annihilating monomials (4 subsets) in degrees 1 and
    # 2, and both degrees are saturated before their image scan
    f = parse_polynomial("x1*x2^2", 2)
    with pytest.raises(GuardExceeded) as refused:
        extract_generators(f, max_subsets=3)
    assert "4 exceeds the guard of 3" in str(refused.value)
    assert "max_subsets" in str(refused.value)


def test_extraction_skips_the_scan_of_saturated_degrees(monkeypatch):
    f = parse_polynomial("x1*x2^2", 2)
    expected = extract_generators(f)

    def no_scan(*args):
        raise AssertionError("a saturated degree ran its image scan")

    monkeypatch.setattr(generators, "contraction_image_classes", no_scan)
    assert extract_generators(f) == expected


def _standard_supports(n, d):
    """Coefficient-one forms on every standard support, by size then lex."""
    basis = enumerate_exponents(n, d)
    supports = [
        support
        for size in range(1, len(basis) + 1)
        for support in itertools.combinations(basis, size)
    ]
    forms = [coefficient_one_poly(n, support) for support in supports]
    return [f for f in forms if is_standard(f)]


def _extraction_digest(forms):
    digest = hashlib.sha256()
    for f in forms:
        for degree, p in extract_generators(f).polynomials():
            terms = [(e, str(c)) for e, c in sorted(p.terms.items())]
            digest.update(repr((degree, terms)).encode())
        digest.update(b";")
    return digest.hexdigest()


# SHA-256 of extract_generators(f).polynomials() (degrees, exponents and
# coefficients, in order) over every standard coefficient-one support in the
# order of _standard_supports.  The digests were computed before extraction
# stopped each degree at dim ker C_j; the stops must not change any output.
@pytest.mark.parametrize(
    "n,d,standard,expected",
    [
        (2, 5, 60, "15b5c526e11db84d2c63c6efcd3b87601a342b3f14e5c4027a3fb47cab24d738"),
        (2, 6, 124, "c2672cd5c829b779595172cc25146c3c74cc4777099562ebd32213c59339167e"),
        (3, 3, 944, "364b632686d03db72a0a143549bbd21a0e8d6c3cdffa5be7f4bc474f00eb2d41"),
    ],
)
def test_extraction_output_is_pinned_on_standard_supports(n, d, standard, expected):
    forms = _standard_supports(n, d)
    assert len(forms) == standard
    assert _extraction_digest(forms) == expected


# SHA-256 of extract_generators(build_full_perazzo(n, d)).polynomials() with
# the subset guard at 2^17, the paper's own forms; (2, 6) needs the raised
# guard.  Computed before extraction wrote its spans over the cells only.
@pytest.mark.parametrize(
    "n,d,expected",
    [
        (2, 3, "d6e662c2e804a65adb5ec67cc3cef73224ec7fcbbb6fc4b312a495f066788547"),
        (2, 4, "37b8d0a3589831267396f5b490c4b67ec13df25b85f53e06f254362df9d2259a"),
        (2, 5, "1f79e12ce4527d5f89419b0fc236d34162bedb674e49c50353afa85e77eff720"),
        (3, 3, "186c221ab78c8a6b831341a33f5a10c9a51378819a4cffc1237ffdcc5a6f71f6"),
        (2, 6, "1aa28312fb2736d28b769bf6c9bc45e5ef3f350031fb1ace42b2a04435acaa5f"),
    ],
)
def test_extraction_output_is_pinned_on_full_perazzo_forms(n, d, expected):
    gens = extract_generators(build_full_perazzo(n, d), max_subsets=1 << 17)
    digest = hashlib.sha256()
    for degree, p in gens.polynomials():
        terms = [(e, str(c)) for e, c in sorted(p.terms.items())]
        digest.update(repr((degree, terms)).encode())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize(
    "n,d,subsets", [(2, 6, 1 << 17), (3, 4, 1 << 24), (4, 3, 1 << 26)]
)
def test_default_guard_refuses_the_larger_full_perazzo_forms(n, d, subsets):
    with pytest.raises(GuardExceeded) as refused:
        extract_generators(build_full_perazzo(n, d))
    assert str(refused.value) == (
        f"subset count {subsets} exceeds the guard of 65536; "
        "raise --max-subsets / max_subsets to override"
    )


def test_pure_power_in_fourteen_variables():
    # one cell per degree: the degree-7 span has one coordinate, x1^7, where
    # the whole degree-7 basis has C(20, 7) = 77,520 monomials
    gens = extract_generators(parse_polynomial("x1^6", 14))
    assert gens.powers == frozenset({(1, 7)})
    unused = frozenset(unit_power(14, k, 1) for k in range(2, 15))
    assert gens.nonface_monomials == {1: unused}
    assert gens.differences == {}


def test_extraction_spans_only_the_cells(monkeypatch):
    # every non-cell is a multiple of a kept minimal non-face, so extraction
    # writes its degree-j span over the degree-j cells alone, and the degree
    # d+1 span over the minimal non-faces of that degree
    spans = []

    class Recording(generators.Echelon):
        def __init__(self, rows=()):
            self.lengths = []
            spans.append(self)
            super().__init__(rows)

        def add(self, row):
            self.lengths.append(len(row))
            return super().add(row)

    monkeypatch.setattr(generators, "Echelon", Recording)
    for f in (build_full_perazzo(2, 4), _paper_quadric()):
        spans.clear()
        extract_generators(f)
        zeta = complex_of(f)
        widths = [*cell_count_vector(zeta, f.degree)[1:]]
        widths.append(len(minimal_nonfaces(zeta, f.degree + 1)))
        assert len(spans) == len(widths)
        assert any(span.lengths for span in spans)
        for span, width in zip(spans, widths):
            assert set(span.lengths) <= {width}


# Criterion 7's (3, 3) draws: random_coefficient_one_standard at substream
# (52002, k) for k = 5, 13, ..., 797.  Extraction misses one degree-2
# relation with a coefficient 2 on these forms; why is still open, and this
# pins the finding so that a fix or a new miss shows.
UNVERIFIED_3_3_DRAWS = {109, 213, 309, 349, 357, 365, 741, 797}


def test_draw_109_misses_a_degree_2_relation():
    f = parse_polynomial(
        "x1^3 + x1^2*x2 + x1*x2*x3 + x1*x3^2 + x2^3 + x2^2*x3", 3
    )
    assert f == random_coefficient_one_standard(substream(52002, 109), 3, 3)
    relation = graded_polynomial(
        3, {(0, 0, 2): 2, (1, 0, 1): 1, (2, 0, 0): -1, (1, 1, 0): -1}
    )
    assert contract(relation, f).is_zero()
    assert annihilator_dimension(f, 2) == 3
    gens = extract_generators(f)
    assert not verify_generators(f, gens)
    from apolar.generators import _ideal_span

    index = basis_index(3, 2)
    span = _ideal_span(gens.polynomials(), index, 2)
    vector = [0] * len(index)
    for e, c in relation.terms.items():
        vector[index[e]] = int(c)
    assert any(span.reduce(vector))


def test_unverified_3_3_draws_of_criterion_7():
    failing = set()
    for k in range(5, 800, 8):
        f = random_coefficient_one_standard(substream(52002, k), 3, 3)
        if not verify_generators(f, extract_generators(f)):
            failing.add(k)
    assert failing == UNVERIFIED_3_3_DRAWS


# An exhaustive finding, not a theorem: every admissible coefficient-one
# support is standard and its structured generators verify at these shapes,
# 455 supports in all.
@pytest.mark.parametrize(
    "n,d,admissible",
    [(2, 3, 5), (2, 4, 10), (2, 5, 18), (2, 6, 31), (3, 3, 41), (3, 4, 350)],
)
def test_every_admissible_support_is_standard_and_verifies(n, d, admissible):
    components = enumerate_admissible_supports(n, d)
    assert len(components) == admissible
    for component in components:
        f = coefficient_one_poly(n, component.support)
        assert is_standard(f)
        assert verify_generators(f, extract_generators(f))


# Every standard coefficient-one support in two variables: verification fails
# on exactly this many, and each failing support is non-admissible.
@pytest.mark.parametrize(
    "d,standard,unverified", [(5, 60, 8), (6, 124, 14), (7, 252, 67)]
)
def test_unverified_standard_supports_in_two_variables(d, standard, unverified):
    basis = enumerate_exponents(2, d)
    supports = [
        support
        for size in range(1, len(basis) + 1)
        for support in itertools.combinations(basis, size)
    ]
    forms = [coefficient_one_poly(2, support) for support in supports]
    forms = [f for f in forms if is_standard(f)]
    failing = [f for f in forms if not verify_generators(f, extract_generators(f))]
    assert (len(forms), len(failing)) == (standard, unverified)
    assert not any(support_conditions(f.support(), 2).all_hold for f in failing)


# Where the unverified two-variable supports fall short, measured by an
# oracle with its own ranks: (missing degree, dimensions missed) pairs of
# each failing support, counted.  Every failing degree misses one dimension.
@pytest.mark.parametrize(
    "d,shortfalls",
    [
        (5, {((3, 1),): 8}),
        (6, {((4, 1),): 14}),
        (7, {((4, 1),): 49, ((5, 1),): 10, ((4, 1), (5, 1)): 8}),
    ],
)
def test_unverified_supports_miss_one_dimension_per_failing_degree(d, shortfalls):
    counted = {}
    for f in _standard_supports(2, d):
        gens = extract_generators(f)
        if not verify_generators(f, gens):
            polys = [(degree, p.terms) for degree, p in gens.polynomials()]
            missing = missing_annihilator_dimensions(2, f.terms, polys)
            key = tuple(sorted(missing.items()))
            counted[key] = counted.get(key, 0) + 1
    assert counted == shortfalls


@pytest.mark.parametrize("n,d", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3)])
def test_full_perazzo_generators_verify(n, d):
    f = build_full_perazzo(n, d)
    assert verify_generators(f, extract_generators(f, max_subsets=1 << 17))


def _oracle_verdict(f, gens):
    """Whether the set generates the annihilator, by the oracles alone:
    every generator contracts ``f`` to zero, and its multiples miss no
    dimension of any ker C_j, j = 1 .. d+1."""
    polys = [(degree, p.terms) for degree, p in gens.polynomials()]
    for _, terms in polys:
        image = {}
        for e, c in terms.items():
            for r, x in contract_dual(e, f.terms).items():
                image[r] = image.get(r, 0) + c * x
        if any(image.values()):
            return False
    return not missing_annihilator_dimensions(f.num_vars, f.terms, polys)


def _mutations(f, gens):
    """The set itself, then: one generator dropped, a non-annihilating
    monomial added (also in place of a difference), a difference pair
    scaled on one side and on both, and a redundant one-term generator
    added."""
    n, d = gens.num_vars, gens.socle_degree
    powers, nonfaces, pairs = gens.powers, dict(gens.nonface_monomials), gens.differences

    def with_(powers=powers, nonfaces=nonfaces, pairs=pairs):
        return GeneratorSet(n, d, powers, nonfaces, pairs)

    def scaled(p, s):
        return graded_polynomial(n, {e: s * c for e, c in p.terms.items()})

    yield gens
    for j in sorted(pairs):
        yield with_(pairs={**pairs, j: pairs[j][1:]})
    for j in sorted(nonfaces):
        yield with_(nonfaces={**nonfaces, j: sorted(nonfaces[j])[1:]})
    for power in sorted(powers):
        yield with_(powers=powers - {power})
    cells = complex_of(f).layers
    for j in range(1, d + 1):
        cell = cells[j][0]  # every cell is a non-annihilating monomial
        yield with_(nonfaces={**nonfaces, j: {*nonfaces.get(j, ()), cell}})
    for j in sorted(pairs):
        # in place of a difference, one of its cells: the span dimensions
        # can all match, as for the paper's quadric
        cell = min(pairs[j][0][0].terms)
        yield with_(
            nonfaces={**nonfaces, j: {*nonfaces.get(j, ()), cell}},
            pairs={**pairs, j: pairs[j][1:]},
        )
    for j in sorted(pairs):
        (left, right), *others = pairs[j]
        yield with_(pairs={**pairs, j: ((scaled(left, 2), right), *others)})
        half = Fraction(1, 2)
        yield with_(pairs={**pairs, j: ((scaled(left, half), scaled(right, half)), *others)})
    for j in sorted(nonfaces):
        m = min(nonfaces[j])
        multiple = (m[0] + 1, *m[1:])
        yield with_(nonfaces={**nonfaces, j + 1: {*nonfaces.get(j + 1, ()), multiple}})
    for k, e in sorted(powers):
        yield with_(powers=powers | {(k, e + 1)})


def test_verification_agrees_with_the_oracle_on_mutated_sets():
    verdicts = []
    for f in _seeded_forms("ones"):
        for gens in _mutations(f, extract_generators(f)):
            verdict = verify_generators(f, gens)
            assert verdict == _oracle_verdict(f, gens)
            verdicts.append(verdict)
    # both verdicts occur often, so the comparison tests both ways
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50
